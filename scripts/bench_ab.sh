#!/usr/bin/env bash
# Same-runner A/B benchmark gate. Builds the root package's test binary at
# BASE (a git ref, checked out in a temporary git worktree) and at the
# checkout, runs the gated set (benchmarks whose names match Quick|Micro)
# five times per side, alternating which side runs first each round, and
# hands both outputs to cmd/perf. It fails on a median slowdown above 15%
# whose runs separate, and on a benchmark that fails on either side. The raw
# outputs stay in bench-base.txt and bench-head.txt at the repository root.
#
#   scripts/bench_ab.sh origin/main
#
# One run of the gated set takes about 50 s on a 2-vCPU VM, so the script
# takes about 9 minutes there.
set -euo pipefail

base=${1:?usage: scripts/bench_ab.sh BASE}
cd "$(dirname "$0")/.."
root=$(pwd)
work=$(mktemp -d)
cleanup() {
  git worktree remove --force "$work/base" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

git worktree add --detach --quiet "$work/base" "$base"
(cd "$work/base" && go test -c -o "$work/base.test" .)
go test -c -o "$work/head.test" .
: >bench-base.txt
: >bench-head.txt

# run SIDE DIR runs the gated set once from the package directory DIR. A
# binary that exits non-zero without a "--- FAIL:" line (a panic) still
# leaves a FAIL line for cmd/perf to fail on.
run() {
  echo "bench_ab: round $round, $1" >&2
  (cd "$2" && "$work/$1.test" -test.run '^$' -test.bench 'Quick|Micro' -test.benchmem -test.timeout 20m) \
    >>"$root/bench-$1.txt" 2>&1 || echo FAIL >>"$root/bench-$1.txt"
}
for round in 1 2 3 4 5; do
  if ((round % 2)); then
    run base "$work/base"
    run head "$root"
  else
    run head "$root"
    run base "$work/base"
  fi
done
go run ./cmd/perf bench-base.txt bench-head.txt
