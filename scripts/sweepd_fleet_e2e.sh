#!/usr/bin/env bash
# End-to-end exercise of the distributed sweep fleet: boot a coordinator and
# two worker daemons (plain sweepds: every sweepd serves POST /execute),
# submit a grid through `sweep -remote`, SIGKILL one worker while the sweep
# is running, and verify that the sweep still completes with output
# byte-identical to an in-process run — i.e. the killed worker's points were
# requeued onto the survivor, not lost.
# Along the way it scrapes /metrics on the coordinator and the surviving
# worker (mid-sweep and after completion) and asserts the observability
# counters recorded what actually happened: the requeues after the kill, the
# survivor's executions, and the store hits when the grid is resubmitted warm.
# It runs the search grid through `sweep -search` in process and with -remote
# and compares the two leaderboards byte for byte.
# Finally it boots a second coordinator with a cold store pointed at the
# first via -store-peers and proves the whole sweep is served by peer fetch:
# byte-identical output, zero simulations, zero dispatched points.
# CI runs this on every PR; the nightly workflow runs it as well.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pids=()

cleanup() {
  for p in "${pids[@]:-}"; do
    kill -9 "$p" 2>/dev/null || true
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  for f in "$workdir"/*.log; do
    [ -f "$f" ] || continue
    echo "--- $f ---" >&2
    cat "$f" >&2
  done
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

go build -o "$workdir/sweepd" ./cmd/sweepd
go build -o "$workdir/sweep" ./cmd/sweep

# start_daemon <name> [sweepd args...] — boots a daemon on a free port and
# exports <name>_pid / <name>_addr from its "listening on" log line.
start_daemon() {
  local name=$1
  shift
  "$workdir/sweepd" -addr 127.0.0.1:0 "$@" >"$workdir/$name.log" 2>&1 &
  local pid=$!
  pids+=("$pid")
  local addr=""
  for _ in $(seq 100); do
    addr=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$workdir/$name.log" | head -1)
    [ -n "$addr" ] && break
    sleep 0.1
  done
  [ -n "$addr" ] || fail "$name did not report a listen address"
  eval "${name}_pid=$pid"
  eval "${name}_addr=$addr"
}

# A grid slow enough (~0.5s/point, 12 points) that a worker can be killed
# mid-sweep, fast enough for CI.
GRID=(-workload "synth:layered:seed=3,width=64,depth=400,mean=60"
  -runtimes software,tdm -schedulers fifo,lifo,locality -cores 8,16
  -format csv)

# Reference: an uninterrupted in-process run of the same grid.
"$workdir/sweep" "${GRID[@]}" -o "$workdir/local.csv" || fail "local sweep failed"

start_daemon w1
start_daemon w2
start_daemon coord -store "$workdir/store" \
  -peers "http://$w1_addr,http://$w2_addr" -peer-slots 2

curl -fsS "http://$w1_addr/healthz" | grep -q '"ok":true' || fail "w1 is not healthy"
workers=$(curl -fsS "http://$coord_addr/v1/workers" | grep -o '"name"' | wc -l)
[ "$workers" -eq 2 ] || fail "coordinator registered $workers workers, want 2"

# Submit the grid through the coordinator.
"$workdir/sweep" -remote "http://$coord_addr" "${GRID[@]}" -o "$workdir/remote.csv" \
  >"$workdir/sweep-remote.log" 2>&1 &
sweep_pid=$!
pids+=("$sweep_pid")

# SIGKILL worker 1 once the sweep is demonstrably mid-flight (some points
# completed, more outstanding).
killed=no
for _ in $(seq 600); do
  sweeps=$(curl -fsS "http://$coord_addr/v1/sweeps" 2>/dev/null || true)
  state=$(echo "$sweeps" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p' | head -1)
  completed=$(echo "$sweeps" | sed -n 's/.*"completed":\([0-9]*\).*/\1/p' | head -1)
  if [ "$state" = "running" ] && [ "${completed:-0}" -ge 2 ]; then
    kill -9 "$w1_pid"
    killed=yes
    echo "killed worker 1 at $completed/12 points"
    break
  fi
  [ "$state" = "done" ] && break
  sleep 0.1
done
[ "$killed" = yes ] || fail "sweep finished before a worker could be killed mid-flight (grid too fast?)"

# Mid-sweep observability: both the coordinator and the surviving worker
# serve valid Prometheus text while points are still in flight.
coord_mid=$(curl -fsS "http://$coord_addr/metrics") || fail "coordinator /metrics unreachable mid-sweep"
echo "$coord_mid" | grep -q '^# TYPE service_sweeps_active gauge' ||
  fail "coordinator /metrics lacks service_sweeps_active: $coord_mid"
echo "$coord_mid" | grep -q '^# HELP ' || fail "coordinator /metrics has no HELP lines"
w2_mid=$(curl -fsS "http://$w2_addr/metrics") || fail "surviving worker /metrics unreachable mid-sweep"
echo "$w2_mid" | grep -q '^# TYPE runner_execs_total counter' ||
  fail "worker /metrics lacks runner_execs_total: $w2_mid"

wait "$sweep_pid" || fail "remote sweep exited non-zero after the worker kill"

# The acceptance bar: byte-identical results despite the mid-sweep kill.
cmp "$workdir/local.csv" "$workdir/remote.csv" || fail "remote results differ from the local run"

# The sweep settled cleanly: done, every point completed, none failed.
final=$(curl -fsS "http://$coord_addr/v1/sweeps")
echo "$final" | grep -q '"state":"done"' || fail "sweep did not end done: $final"
echo "$final" | grep -q '"completed":12' || fail "sweep did not complete all 12 points: $final"
echo "$final" | grep -q '"failed":0' || fail "sweep recorded failures: $final"

# The coordinator observed the kill (requeue evidence) and the survivor
# carried points.
fleet=$(curl -fsS "http://$coord_addr/v1/workers")
echo "$fleet" | grep -q '"last_error"' || fail "killed worker's dispatch failure not recorded: $fleet"

# The requeues show up as live counter values on the coordinator, and the
# survivor's engine counted real executions.
coord_metrics=$(curl -fsS "http://$coord_addr/metrics")
requeued=$(echo "$coord_metrics" | awk '/^service_worker_points_requeued_total\{/ {sum += $2} END {print sum+0}')
[ "$requeued" -ge 1 ] || fail "no requeues recorded after SIGKILL: $coord_metrics"
w2_metrics=$(curl -fsS "http://$w2_addr/metrics")
execs=$(echo "$w2_metrics" | awk '/^runner_execs_total / {print int($2)}')
[ "${execs:-0}" -ge 1 ] || fail "surviving worker recorded no executions: $w2_metrics"

# Resubmitting the identical grid hits the coordinator's warm store for
# every point: store_hits_total must go nonzero, and no new dispatches occur.
"$workdir/sweep" -remote "http://$coord_addr" "${GRID[@]}" -o "$workdir/remote2.csv" \
  >"$workdir/sweep-remote2.log" 2>&1 || fail "warm resubmission failed"
cmp "$workdir/local.csv" "$workdir/remote2.csv" || fail "warm resubmission results differ"
coord_metrics=$(curl -fsS "http://$coord_addr/metrics")
hits=$(echo "$coord_metrics" | awk '/^store_hits_total\{/ {sum += $2} END {print sum+0}')
[ "$hits" -ge 12 ] || fail "warm resubmission recorded $hits store hits, want >= 12: $coord_metrics"

# Design-space search over the same grid: the coordinator evaluates only the
# rung batches the halving searcher proposes (sharded over the fleet like any
# sweep), and must land on the same winner the exhaustive sweep found while
# saving at least 40% of the grid points.
search_resp=$(curl -fsS -X POST "http://$coord_addr/v1/sweeps" -d '{
  "benchmarks": ["synth:layered:seed=3,width=64,depth=400,mean=60"],
  "runtimes": ["software", "tdm"],
  "schedulers": ["fifo", "lifo", "locality"],
  "cores": [8, 16],
  "search": {"objective": "min:cycles", "budget": 6, "seed": 1}
}') || fail "search submission rejected"
sid=$(echo "$search_resp" | python3 -c "import json,sys; print(json.load(sys.stdin)['id'])")
search_state=""
for _ in $(seq 300); do
  search_stat=$(curl -fsS "http://$coord_addr/v1/sweeps/$sid")
  search_state=$(echo "$search_stat" | python3 -c "import json,sys; print(json.load(sys.stdin)['state'])")
  [ "$search_state" = done ] && break
  sleep 0.1
done
[ "$search_state" = done ] || fail "search sweep did not finish: $search_stat"
exh_winner=$(python3 -c "
import csv, sys
rows = list(csv.DictReader(open(sys.argv[1])))
best = min(rows, key=lambda r: int(r['cycles']))
print(best['runtime'], best['scheduler'], best['cores'])
" "$workdir/local.csv")
search_summary=$(echo "$search_stat" | python3 -c "
import json, sys
st = json.load(sys.stdin)['search']
best = st['best'][0]
print(best['runtime'], best['scheduler'], best['cores'])
print(st['evaluated'], st['space_points'], st['saved'])
")
search_winner=$(echo "$search_summary" | sed -n 1p)
read -r evaluated space saved <<<"$(echo "$search_summary" | sed -n 2p)"
[ "$search_winner" = "$exh_winner" ] ||
  fail "search winner ($search_winner) differs from exhaustive argmin ($exh_winner): $search_stat"
[ "$saved" -ge $((space * 40 / 100)) ] ||
  fail "search saved only $saved of $space points, want >= 40%: $search_stat"
[ $((evaluated + saved)) -eq "$space" ] || fail "search accounting off: $search_stat"
coord_metrics=$(curl -fsS "http://$coord_addr/metrics")
rungs=$(echo "$coord_metrics" | awk '/^search_rungs_total / {print int($2)}')
[ "${rungs:-0}" -ge 1 ] || fail "search_rungs_total not incremented: $coord_metrics"
echo "search matched the exhaustive winner ($search_winner) evaluating $evaluated/$space points ($saved saved)"

# The same search through the CLI, in process and against the coordinator,
# with the objective spelled non-canonically: both paths submit it to the
# sweep service, so leaderboard and summary must match byte for byte.
SEARCH=(-search halving -objective cycles -budget 6 -search-seed 1)
"$workdir/sweep" "${GRID[@]}" "${SEARCH[@]}" -o "$workdir/search-local.csv" \
  2>"$workdir/search-local.log" || fail "local search failed"
"$workdir/sweep" -remote "http://$coord_addr" "${GRID[@]}" "${SEARCH[@]}" -o "$workdir/search-remote.csv" \
  2>"$workdir/search-remote.log" || fail "remote search failed"
cmp "$workdir/search-local.csv" "$workdir/search-remote.csv" ||
  fail "remote search leaderboard differs from the local one"
cmp "$workdir/search-local.log" "$workdir/search-remote.log" ||
  fail "remote search summary differs from the local one"
echo "CLI search: local and remote leaderboards are byte-identical"

# Fleet-wide cache: a second coordinator with a cold store but the first
# coordinator as a store peer serves the same grid without simulating or
# dispatching anything — every point arrives over GET /results/{key}.
start_daemon coord2 -store "$workdir/store2" -store-peers "http://$coord_addr"
"$workdir/sweep" -remote "http://$coord2_addr" "${GRID[@]}" -o "$workdir/remote3.csv" \
  >"$workdir/sweep-remote3.log" 2>&1 || fail "peer-backed submission failed"
cmp "$workdir/local.csv" "$workdir/remote3.csv" || fail "peer-fetched results differ from the local run"
coord2_metrics=$(curl -fsS "http://$coord2_addr/metrics")
c2_execs=$(echo "$coord2_metrics" | awk '/^runner_execs_total / {print int($2)}')
[ "${c2_execs:-0}" -eq 0 ] || fail "cold coordinator simulated $c2_execs points instead of peer-fetching"
c2_dispatched=$(echo "$coord2_metrics" | awk '/^service_worker_points_dispatched_total\{/ {sum += $2} END {print sum+0}')
[ "$c2_dispatched" -eq 0 ] || fail "cold coordinator dispatched $c2_dispatched points, want 0"
peer_hits=$(echo "$coord2_metrics" | awk '/^store_hits_total\{.*source="peer"/ {sum += $2} END {print sum+0}')
[ "$peer_hits" -ge 12 ] || fail "cold coordinator recorded $peer_hits peer hits, want >= 12: $coord2_metrics"
peer_fetches=$(echo "$coord2_metrics" | awk '/^store_peer_fetches_total\{.*outcome="hit"/ {sum += $2} END {print sum+0}')
[ "$peer_fetches" -ge 12 ] || fail "peer fetch counter recorded $peer_fetches hits, want >= 12"
# The fetched results were persisted into the second store (warm restart).
ls "$workdir/store2"/*.json >/dev/null 2>&1 || fail "peer-fetched results not persisted to store2"
no_dotfiles "$workdir/store2"
echo "cold coordinator served 12/12 points by peer fetch ($peer_hits peer hits, 0 execs, 0 dispatches)"

# Every coordinator store file is complete JSON (the merge is atomic).
ls "$workdir/store"/*.json >/dev/null 2>&1 || fail "coordinator store holds no results"
for f in "$workdir/store"/*; do
  case "$f" in
  *.json) python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$f" 2>/dev/null ||
    fail "store file $f is not valid JSON" ;;
  *) fail "store holds a non-result file: $f" ;;
  esac
done
no_dotfiles "$workdir/store"

echo "PASS: sweepd fleet e2e (coordinator + 2 workers, SIGKILL mid-sweep, peer-fetch coordinator, byte-identical results)"
