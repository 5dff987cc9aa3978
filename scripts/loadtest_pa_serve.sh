#!/bin/sh
# loadtest_pa_serve.sh — end-to-end load test of the pa-serve control
# plane (cmd/pa-serve + internal/jobqueue), the service-layer
# counterpart of smoke_pa_tcp.sh. Two phases against one daemon running
# real pa-tcp rank processes:
#
#   1. Crash/resume: submit a checkpointed 2-rank job, kill one of its
#      rank processes after the first checkpoint epoch commits, and
#      assert the queue respawns the job (restarts >= 1, state done —
#      not failed) with a downloaded merged graph byte-identical to a
#      direct pagen run of the same parameters.
#   2. Concurrency/queue wait: fill the pool with small jobs, submit a
#      full-pool streamed job plus more small jobs behind it, and
#      assert every job completes, the big job's download is intact,
#      the max queue wait stays under MAX_WAIT_NS (the DESIGN.md §14
#      FIFO bound: the drain time of the jobs admitted ahead), and the
#      /metrics counters reconcile: submitted == completed + failed +
#      cancelled + queued + running + checkpointed.
#
# Finishes with a SIGTERM graceful-shutdown check. Set RESULTS_JSON to
# also write a machine-readable summary (results/LOADTEST_pa_serve.json
# in CI). Exits non-zero on the first violated assertion.
set -eu

HTTP_PORT=${HTTP_PORT:-9850}
BASE_PORT=${BASE_PORT:-9860}
SLOTS=${SLOTS:-4}
SMALL_JOBS=${SMALL_JOBS:-8}
TIMEOUT=${TIMEOUT:-300}
# Queue-wait ceiling (ns): a generous drain time of the jobs ahead.
MAX_WAIT_NS=${MAX_WAIT_NS:-120000000000}
RESULTS_JSON=${RESULTS_JSON:-}

workdir=$(mktemp -d)
srv=""
cleanup() {
    [ -n "$srv" ] && kill "$srv" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/pa-serve" ./cmd/pa-serve
go build -o "$workdir/pa-tcp" ./cmd/pa-tcp
go build -o "$workdir/pagen" ./cmd/pagen
go build -o "$workdir/serve" ./examples/serve

"$workdir/pa-serve" -listen "127.0.0.1:$HTTP_PORT" -data-dir "$workdir/data" \
    -slots "$SLOTS" -queue-cap 64 \
    -runner process -pa-tcp "$workdir/pa-tcp" \
    -port-base "$BASE_PORT" -port-span 32 2>"$workdir/serve.log" &
srv=$!

client() { "$workdir/serve" -addr "http://127.0.0.1:$HTTP_PORT" "$@"; }

i=0
until client metrics >/dev/null 2>&1; do
    i=$((i + 1))
    if [ $i -ge 100 ] || ! kill -0 "$srv" 2>/dev/null; then
        echo "pa-serve never came up:" >&2
        cat "$workdir/serve.log" >&2
        exit 1
    fi
    sleep 0.1
done

# ---- Phase 1: kill a rank mid-job; the queue must respawn, not fail.
RN=${RN:-800000}
echo "loadtest: phase 1 — crash/resume (n=$RN, 2 ranks)"
big=$(client submit -n "$RN" -x 3 -seed 7 -job-ranks 2 -job-workers 2 -ckpt-every 60000)
ckdir="$workdir/data/jobs/$big/ck"

polls=0
committed=0
while :; do
    state=$(client show "$big" -field state)
    committed=$(ls "$ckdir" 2>/dev/null | grep -c '\.ckpt$' || true)
    [ "$committed" -ge 2 ] && break
    if [ "$state" = done ]; then
        echo "job finished before the first checkpoint epoch committed;" >&2
        echo "raise RN so the kill lands mid-run" >&2
        exit 1
    fi
    polls=$((polls + 1))
    sleep 0.05
done
# The bracketed [1] keeps pkill from matching this script; the job dir
# pins the pattern to this job's cluster.
pkill -f -- "-rank [1] .*jobs/$big/" \
    || { echo "failed to kill rank 1 of $big" >&2; exit 1; }
echo "loadtest: killed rank 1 of $big after $committed snapshots ($polls polls)"

client wait "$big" -wait-timeout "${TIMEOUT}s"
restarts=$(client show "$big" -field restarts)
[ "$restarts" -ge 1 ] \
    || { echo "job completed with restarts=$restarts, want >= 1 (kill landed after the run?)" >&2; exit 1; }

client download "$big" -o "$workdir/big.bin" >/dev/null
"$workdir/pagen" -n "$RN" -x 3 -seed 7 -ranks 2 -workers 2 \
    -format binary -o "$workdir/ref.bin"
cmp "$workdir/big.bin" "$workdir/ref.bin" \
    || { echo "resumed job's download differs from direct pagen run" >&2; exit 1; }
echo "loadtest: phase 1 ok — respawned job ($restarts restart) byte-identical to direct run"

# ---- Phase 2: concurrent small jobs + one full-pool streamed job.
echo "loadtest: phase 2 — $SMALL_JOBS small jobs + 1 full-pool job on $SLOTS slots"
ids=""
i=0
while [ $i -lt $((SMALL_JOBS / 2)) ]; do
    ids="$ids $(client submit -n 50000 -x 2 -seed $((100 + i)))"
    i=$((i + 1))
done
# The big job lands behind running smalls and must wait for the whole
# pool; the trailing smalls queue behind it (FIFO admission), so its
# wait is the drain time of the smalls ahead and theirs includes its run.
bigstream=$(client submit -n 400000 -x 3 -seed 11 -job-ranks "$SLOTS" -job-workers 2)
while [ $i -lt "$SMALL_JOBS" ]; do
    ids="$ids $(client submit -n 50000 -x 2 -seed $((100 + i)))"
    i=$((i + 1))
done

for id in $ids; do
    client wait "$id" -wait-timeout "${TIMEOUT}s" >/dev/null
done
client wait "$bigstream" -wait-timeout "${TIMEOUT}s" >/dev/null
client download "$bigstream" -o "$workdir/bigstream.bin" >/dev/null
[ -s "$workdir/bigstream.bin" ] \
    || { echo "streamed download of $bigstream is empty" >&2; exit 1; }
echo "loadtest: phase 2 ok — all $((SMALL_JOBS + 1)) jobs completed"

# ---- Metrics reconciliation and the queue-wait bound.
client metrics >"$workdir/metrics.txt"
get() { awk -v k="$1" '$1 == k {print $2}' "$workdir/metrics.txt"; }

submitted=$(get submitted); completed=$(get completed)
failed=$(get failed); cancelled=$(get cancelled); rejected=$(get rejected)
queued=$(get queued); running=$(get running); checkpointed=$(get checkpointed)
restarts=$(get restarts); maxwait=$(get queue_wait_nanos.max)

total=$((completed + failed + cancelled + queued + running + checkpointed))
[ "$submitted" -eq "$total" ] \
    || { echo "metrics do not reconcile: submitted=$submitted, state sum=$total" >&2; cat "$workdir/metrics.txt" >&2; exit 1; }
want=$((SMALL_JOBS + 2))
[ "$completed" -eq "$want" ] && [ "$failed" -eq 0 ] && [ "$cancelled" -eq 0 ] && [ "$rejected" -eq 0 ] \
    || { echo "job accounting off: completed=$completed (want $want) failed=$failed cancelled=$cancelled rejected=$rejected" >&2; exit 1; }
[ "$maxwait" -le "$MAX_WAIT_NS" ] \
    || { echo "queue wait: max queue wait ${maxwait}ns exceeds bound ${MAX_WAIT_NS}ns" >&2; exit 1; }

# ---- Graceful shutdown: SIGTERM checkpoints the (idle) pool and exits 0.
kill -TERM "$srv"
wait "$srv" || { echo "pa-serve exited non-zero on SIGTERM:" >&2; cat "$workdir/serve.log" >&2; exit 1; }
srv=""

if [ -n "$RESULTS_JSON" ]; then
    cat >"$RESULTS_JSON" <<EOF
{
  "slots": $SLOTS,
  "jobs_completed": $completed,
  "small_jobs": $SMALL_JOBS,
  "crash_respawns": $restarts,
  "max_queue_wait_nanos": $maxwait,
  "max_queue_wait_bound_nanos": $MAX_WAIT_NS,
  "rejected": $rejected,
  "failed": $failed
}
EOF
fi

echo "pa-serve loadtest: $completed jobs ($SMALL_JOBS small + 2 big) on $SLOTS slots; $restarts crash respawn(s); max queue wait $((maxwait / 1000000))ms (bound $((MAX_WAIT_NS / 1000000))ms); metrics reconcile"
