#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Run from
# the repository root:
#
#   bash benchmark/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
#
# Build caches, temporary files, stores and span files stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "benchmark: run from the repository root (go.mod or benchmark/go.mod missing)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$out/tdmbench" .)
exec "$out/tdmbench" --root "$root" "$@"
