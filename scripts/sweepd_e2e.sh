#!/usr/bin/env bash
# End-to-end exercise of the sweepd daemon: boot it on a free port, submit a
# small grid over HTTP, stream the NDJSON results, then SIGTERM the daemon
# mid-sweep and verify it drains gracefully (exit 0, cancelled sweep settles,
# store left with only complete result files). CI runs this on every PR.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
store="$workdir/store"
log="$workdir/sweepd.log"
bin="$workdir/sweepd"
pid=""

cleanup() {
  if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
    kill -9 "$pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "--- sweepd log ---" >&2
  cat "$log" >&2 || true
  exit 1
}

# no_dotfiles DIR fails on any hidden file in a store directory: the
# "$dir"/* globs below skip them, and a store holds none (a ".KEY.tmp*" file
# is a leftover of an interrupted write).
no_dotfiles() {
  local dots
  dots=$(find "$1" -mindepth 1 -maxdepth 1 -name '.*')
  [ -z "$dots" ] || fail "store $1 holds leftover dotfiles: $dots"
}

go build -o "$bin" ./cmd/sweepd

"$bin" -addr 127.0.0.1:0 -store "$store" >"$log" 2>&1 &
pid=$!

# The daemon logs its resolved address; wait for it.
addr=""
for _ in $(seq 100); do
  addr=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$log" | head -1)
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || fail "sweepd did not report a listen address"
base="http://$addr"

curl -fsS "$base/healthz" | grep -q '"ok":true' || fail "healthz not ok"

# Submit a small grid asynchronously and extract the sweep id.
id=$(curl -fsS -X POST "$base/v1/sweeps" \
  -d '{"benchmarks":["synth:chain:width=4,depth=4,mean=5"],"runtimes":["software","tdm"]}' |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$id" ] || fail "submission returned no sweep id"

# Stream the results: one NDJSON object per point, all successful.
lines=$(curl -fsS -N "$base/v1/sweeps/$id/stream" | tee "$workdir/stream.ndjson" | wc -l)
[ "$lines" -eq 2 ] || fail "stream returned $lines lines, want 2"
grep -q '"error"' "$workdir/stream.ndjson" && fail "streamed points contain errors"
curl -fsS "$base/v1/sweeps/$id" | grep -q '"state":"done"' || fail "sweep did not finish"

# Every store file is complete JSON (atomic writes: no temp files, no
# truncated entries).
ls "$store"/*.json >/dev/null 2>&1 || fail "store holds no results"
for f in "$store"/*; do
  case "$f" in
    *.json) python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$f" 2>/dev/null ||
      fail "store file $f is not valid JSON" ;;
    *) fail "store holds a non-result file: $f" ;;
  esac
done
no_dotfiles "$store"

# Submit a sweep too large to finish, then SIGTERM mid-run: the daemon must
# drain gracefully and exit 0.
big=$(curl -fsS -X POST "$base/v1/sweeps" \
  -d '{"benchmarks":["synth:layered:width=16,depth=60,mean=20"],"runtimes":["software","tdm"],"schedulers":["fifo","lifo","locality","successor","age"],"cores":[8,16,32]}' |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$big" ] || fail "big submission returned no sweep id"

kill -TERM "$pid"
deadline=$((SECONDS + 60))
while kill -0 "$pid" 2>/dev/null; do
  [ "$SECONDS" -lt "$deadline" ] || fail "sweepd did not exit within 60s of SIGTERM"
  sleep 0.2
done
set +e
wait "$pid"
code=$?
set -e
pid=""
[ "$code" -eq 0 ] || fail "sweepd exited with code $code after SIGTERM"
grep -q "draining" "$log" || fail "sweepd log does not mention draining"
grep -q "drained, exiting" "$log" || fail "sweepd log does not confirm drain completion"

# Drain must not corrupt the store: still only complete JSON files.
for f in "$store"/*; do
  case "$f" in
    *.json) python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$f" 2>/dev/null ||
      fail "store file $f is not valid JSON after drain" ;;
    *) fail "store holds a non-result file after drain: $f" ;;
  esac
done
no_dotfiles "$store"

echo "PASS: sweepd e2e (submit, stream, SIGTERM drain)"
