#!/bin/sh
# smoke_pa_tcp.sh — 4-rank pa-tcp localhost smoke test: real OS
# processes, real TCP mesh, the full generation protocol plus the
# post-run collective sequence (the stats gather that the unsequenced
# tag protocol used to kill at 4 ranks), plus per-rank metrics export.
# Each rank runs with 2 workers, so the striped batch kernel (a helper
# goroutine drawing and gathering beside the rank goroutine, which polls
# its sockets itself) is exercised against the real TCP transport, not
# just the in-process one.
# Exits non-zero if any rank fails, hangs past the timeout, or the
# output shards don't union to the expected edge count.
#
# With "resume" as the first argument the script instead runs the
# checkpoint/restart smoke: a supervised baseline run, then a second
# supervised run where one rank is killed after the first checkpoint
# epoch commits, letting the supervisor restart the cluster from the
# snapshots. The resumed run's shards must be byte-identical to the
# uninterrupted baseline.
#
# With "chaos" as the first argument it runs the kill-mid-epoch smoke:
# a supervised run checkpointing a base+delta chain
# (-checkpoint-full-every) where one rank is killed while the second
# checkpoint epoch is only partially committed across the cluster —
# i.e. mid-epoch, with delta publishes in flight in the background
# writers. The supervisor restarts the cluster from whatever the
# directory holds (committed chain prefix, possibly torn newest
# members), and the resumed run's shards must be byte-identical to an
# uninterrupted baseline.
#
# With "stream" as the first argument it runs the external-memory
# smoke: a supervised run streaming compressed edge shards
# (-stream-dir, docs/SHARD_FORMAT.md) is killed after the first
# checkpoint epoch commits and restarted by the supervisor; the
# recovered shard directory must carry the same edge-stream
# fingerprint as an in-memory run of the same configuration, and
# converting it with pa-analyze -export-binary must reproduce the
# in-memory binary output byte for byte.
#
# With "shm" as the first argument it runs the in-process transport
# smoke instead: pagen over the shared-memory transport (message
# batches by reference, no codec) against the codec-ablation local
# transport, at 1 and 2 workers per rank — all four outputs must be
# byte-identical (DESIGN.md §13.1).
set -eu

MODE=${1:-basic}
N=${N:-50000}
X=${X:-4}
RANKS=4
WORKERS=${WORKERS:-2}
BASE_PORT=${BASE_PORT:-9700}
TIMEOUT=${TIMEOUT:-120}

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

if [ "$MODE" = shm ]; then
    # In-process transport smoke: the shm fast path and the local codec
    # path must agree byte for byte, at every worker count.
    SEED=${SEED:-7}
    go build -o "$workdir/pagen" ./cmd/pagen

    ref=""
    for tr in shm local; do
        for w in 1 2; do
            out="$workdir/$tr-w$w.bin"
            timeout "$TIMEOUT" "$workdir/pagen" -n "$N" -x "$X" -seed "$SEED" \
                -ranks "$RANKS" -workers "$w" -transport "$tr" \
                -format binary -o "$out"
            if [ -z "$ref" ]; then
                ref="$out"
            else
                cmp "$ref" "$out" \
                    || { echo "output differs: $ref vs $out" >&2; exit 1; }
            fi
        done
    done
    echo "pagen shm smoke: $RANKS ranks, shm and local transports at 1 and 2 workers, all outputs byte-identical (n=$N, x=$X)"
    exit 0
fi

go build -o "$workdir/pa-tcp" ./cmd/pa-tcp

addrs=""
i=0
while [ $i -lt $RANKS ]; do
    addrs="$addrs${addrs:+,}127.0.0.1:$((BASE_PORT + i))"
    i=$((i + 1))
done

if [ "$MODE" = resume ]; then
    # Checkpoint/restart smoke. Scale n up and the epoch cadence down so
    # the first checkpoint epoch commits well before the run finishes,
    # even on slow CI machines (commit time and run time scale together).
    RN=${RN:-800000}
    EVERY=${EVERY:-60000}
    SEED=${SEED:-7}

    echo "resume smoke: baseline supervised run (n=$RN, x=3)"
    timeout "$TIMEOUT" "$workdir/pa-tcp" -supervise -addrs "$addrs" \
        -n "$RN" -x 3 -seed "$SEED" -workers "$WORKERS" \
        -checkpoint-dir "$workdir/ck-base" -checkpoint-every "$EVERY" \
        -shard-dir "$workdir/base" 2>"$workdir/base.log"

    echo "resume smoke: kill-and-resume supervised run"
    timeout "$TIMEOUT" "$workdir/pa-tcp" -supervise -addrs "$addrs" \
        -n "$RN" -x 3 -seed "$SEED" -workers "$WORKERS" \
        -checkpoint-dir "$workdir/ck-kill" -checkpoint-every "$EVERY" \
        -shard-dir "$workdir/kill" 2>"$workdir/kill.log" &
    sup=$!

    # Wait until every rank has committed its first epoch, then kill
    # rank 2. The bracketed [2] keeps pkill from matching this script's
    # own command line.
    polls=0
    committed=0
    while kill -0 "$sup" 2>/dev/null; do
        committed=$(ls "$workdir/ck-kill" 2>/dev/null | grep -c '\.ckpt$' || true)
        [ "$committed" -ge "$RANKS" ] && break
        polls=$((polls + 1))
        sleep 0.05
    done
    if [ "$committed" -lt "$RANKS" ]; then
        echo "run finished before the first checkpoint epoch committed;" >&2
        echo "raise RN or lower EVERY so the kill lands mid-run" >&2
        exit 1
    fi
    pkill -f -- "-rank [2] -addrs 127.0.0.1:$BASE_PORT" \
        || { echo "failed to kill rank 2" >&2; exit 1; }
    echo "resume smoke: killed rank 2 after $committed snapshots ($polls polls)"

    wait "$sup" || { echo "supervisor failed:" >&2; cat "$workdir/kill.log" >&2; exit 1; }
    grep -q 'restart 1/' "$workdir/kill.log" \
        || { echo "supervisor log records no restart" >&2; cat "$workdir/kill.log" >&2; exit 1; }

    i=0
    while [ $i -lt $RANKS ]; do
        cmp "$workdir/base/shard-$i-of-$RANKS.pag" "$workdir/kill/shard-$i-of-$RANKS.pag" \
            || { echo "shard $i differs between baseline and resumed run" >&2; exit 1; }
        i=$((i + 1))
    done
    echo "pa-tcp resume smoke: killed rank restarted from checkpoint; all $RANKS shards byte-identical to uninterrupted baseline"
    exit 0
fi

if [ "$MODE" = chaos ]; then
    # Kill-mid-epoch smoke over a base+delta chain. The kill fires when
    # the second epoch is partially committed (some ranks' snapshots on
    # disk, others still capturing or mid-publish), so the restart must
    # negotiate past an incomplete epoch and replay a delta chain.
    RN=${RN:-800000}
    EVERY=${EVERY:-40000}
    FULL_EVERY=${FULL_EVERY:-4}
    SEED=${SEED:-7}

    echo "chaos smoke: baseline supervised run (n=$RN, x=3, full every $FULL_EVERY epochs)"
    timeout "$TIMEOUT" "$workdir/pa-tcp" -supervise -addrs "$addrs" \
        -n "$RN" -x 3 -seed "$SEED" -workers "$WORKERS" \
        -checkpoint-dir "$workdir/ck-base" -checkpoint-every "$EVERY" \
        -checkpoint-full-every "$FULL_EVERY" \
        -shard-dir "$workdir/base" 2>"$workdir/base.log"

    echo "chaos smoke: kill-mid-epoch supervised run"
    timeout "$TIMEOUT" "$workdir/pa-tcp" -supervise -addrs "$addrs" \
        -n "$RN" -x 3 -seed "$SEED" -workers "$WORKERS" \
        -checkpoint-dir "$workdir/ck-chaos" -checkpoint-every "$EVERY" \
        -checkpoint-full-every "$FULL_EVERY" \
        -shard-dir "$workdir/chaos" 2>"$workdir/chaos.log" &
    sup=$!

    # Wait for the second epoch to be PARTIALLY committed: more
    # snapshots than one full epoch's worth, fewer than two — the
    # cluster is mid-epoch, with background publishes in flight. If the
    # window is too narrow to observe, fall back to killing after the
    # first epoch (still a valid chaos point; the run stays mid-chain).
    polls=0
    committed=0
    while kill -0 "$sup" 2>/dev/null; do
        committed=$(ls "$workdir/ck-chaos" 2>/dev/null | grep -c '\.ckpt$' || true)
        [ "$committed" -gt "$RANKS" ] && [ "$committed" -lt $((2 * RANKS)) ] && break
        [ "$committed" -ge $((2 * RANKS)) ] && break
        polls=$((polls + 1))
        sleep 0.02
    done
    if [ "$committed" -le "$RANKS" ]; then
        echo "run finished before a second checkpoint epoch started;" >&2
        echo "raise RN or lower EVERY so the kill lands mid-epoch" >&2
        exit 1
    fi
    pkill -f -- "-rank [2] -addrs 127.0.0.1:$BASE_PORT" \
        || { echo "failed to kill rank 2" >&2; exit 1; }
    echo "chaos smoke: killed rank 2 mid-epoch at $committed snapshots ($polls polls)"

    wait "$sup" || { echo "supervisor failed:" >&2; cat "$workdir/chaos.log" >&2; exit 1; }
    grep -q 'restart 1/' "$workdir/chaos.log" \
        || { echo "supervisor log records no restart" >&2; cat "$workdir/chaos.log" >&2; exit 1; }

    i=0
    while [ $i -lt $RANKS ]; do
        cmp "$workdir/base/shard-$i-of-$RANKS.pag" "$workdir/chaos/shard-$i-of-$RANKS.pag" \
            || { echo "shard $i differs between baseline and resumed run" >&2; exit 1; }
        i=$((i + 1))
    done
    echo "pa-tcp chaos smoke: rank killed mid-epoch over a delta chain, restarted from the committed prefix; all $RANKS shards byte-identical to uninterrupted baseline"
    exit 0
fi

if [ "$MODE" = stream ]; then
    # External-memory streaming smoke: kill + resume a streamed
    # supervised run, then check the recovered shards against an
    # in-memory run of the same configuration.
    RN=${RN:-800000}
    EVERY=${EVERY:-60000}
    SEED=${SEED:-7}

    go build -o "$workdir/pagen" ./cmd/pagen
    go build -o "$workdir/pa-analyze" ./cmd/pa-analyze

    echo "stream smoke: in-memory reference run (n=$RN, x=3)"
    timeout "$TIMEOUT" "$workdir/pagen" -n "$RN" -x 3 -seed "$SEED" \
        -ranks "$RANKS" -workers "$WORKERS" -format binary \
        -o "$workdir/mem.bin"
    memfp=$("$workdir/pa-analyze" -i "$workdir/mem.bin" -format binary \
        -fingerprint | awk '{print $2}')

    echo "stream smoke: kill-and-resume supervised streamed run"
    timeout "$TIMEOUT" "$workdir/pa-tcp" -supervise -addrs "$addrs" \
        -n "$RN" -x 3 -seed "$SEED" -workers "$WORKERS" \
        -checkpoint-dir "$workdir/ck-stream" -checkpoint-every "$EVERY" \
        -stream-dir "$workdir/shards" 2>"$workdir/stream.log" &
    sup=$!

    polls=0
    committed=0
    while kill -0 "$sup" 2>/dev/null; do
        committed=$(ls "$workdir/ck-stream" 2>/dev/null | grep -c '\.ckpt$' || true)
        [ "$committed" -ge "$RANKS" ] && break
        polls=$((polls + 1))
        sleep 0.05
    done
    if [ "$committed" -lt "$RANKS" ]; then
        echo "run finished before the first checkpoint epoch committed;" >&2
        echo "raise RN or lower EVERY so the kill lands mid-run" >&2
        exit 1
    fi
    pkill -f -- "-rank [2] -addrs 127.0.0.1:$BASE_PORT" \
        || { echo "failed to kill rank 2" >&2; exit 1; }
    echo "stream smoke: killed rank 2 after $committed snapshots ($polls polls)"

    wait "$sup" || { echo "supervisor failed:" >&2; cat "$workdir/stream.log" >&2; exit 1; }
    grep -q 'restart 1/' "$workdir/stream.log" \
        || { echo "supervisor log records no restart" >&2; cat "$workdir/stream.log" >&2; exit 1; }

    streamfp=$("$workdir/pa-analyze" -stream-dir "$workdir/shards" \
        -ranks "$RANKS" -fingerprint | awk '{print $2}')
    [ "$streamfp" = "$memfp" ] \
        || { echo "fingerprint mismatch: streamed $streamfp vs in-memory $memfp" >&2; exit 1; }

    "$workdir/pa-analyze" -stream-dir "$workdir/shards" -ranks "$RANKS" \
        -export-binary "$workdir/stream.bin" 2>/dev/null
    cmp "$workdir/mem.bin" "$workdir/stream.bin" \
        || { echo "exported streamed graph differs from in-memory binary output" >&2; exit 1; }

    echo "pa-tcp stream smoke: killed rank restarted from checkpoint; recovered shards fingerprint-equal ($streamfp) and byte-identical to the in-memory run"
    exit 0
fi

pids=""
i=1
while [ $i -lt $RANKS ]; do
    timeout "$TIMEOUT" "$workdir/pa-tcp" -rank $i -addrs "$addrs" \
        -n "$N" -x "$X" -workers "$WORKERS" -o "$workdir/shard$i.bin" \
        -metrics "$workdir/metrics$i.json" &
    pids="$pids $!"
    i=$((i + 1))
done
timeout "$TIMEOUT" "$workdir/pa-tcp" -rank 0 -addrs "$addrs" \
    -n "$N" -x "$X" -workers "$WORKERS" -o "$workdir/shard0.bin" -stats \
    -metrics "$workdir/metrics0.json"

for pid in $pids; do
    wait "$pid"
done

# Every rank must have produced its shard and metrics file.
i=0
while [ $i -lt $RANKS ]; do
    for f in "$workdir/shard$i.bin" "$workdir/metrics$i.json"; do
        if [ ! -s "$f" ]; then
            echo "rank $i produced no $f" >&2
            exit 1
        fi
    done
    i=$((i + 1))
done

# Second pass with the hub-prefix cache disabled (the first pass ran
# with the default auto-sized cache). The cache elides traffic, never
# output, so every shard must be byte-identical across the two runs.
pids=""
i=1
while [ $i -lt $RANKS ]; do
    timeout "$TIMEOUT" "$workdir/pa-tcp" -rank $i -addrs "$addrs" \
        -n "$N" -x "$X" -workers "$WORKERS" -hub-prefix -1 \
        -o "$workdir/shard$i.off.bin" &
    pids="$pids $!"
    i=$((i + 1))
done
timeout "$TIMEOUT" "$workdir/pa-tcp" -rank 0 -addrs "$addrs" \
    -n "$N" -x "$X" -workers "$WORKERS" -hub-prefix -1 \
    -o "$workdir/shard0.off.bin"

for pid in $pids; do
    wait "$pid"
done

i=0
while [ $i -lt $RANKS ]; do
    cmp "$workdir/shard$i.bin" "$workdir/shard$i.off.bin" \
        || { echo "shard $i differs between cache-on and cache-off runs" >&2; exit 1; }
    i=$((i + 1))
done

# Third pass in recomputation resolve mode: non-local dependencies are
# replayed locally instead of asked over the wire, so the mode changes
# traffic radically — and must not change output. Every shard must be
# byte-identical to the wire-protocol passes.
pids=""
i=1
while [ $i -lt $RANKS ]; do
    timeout "$TIMEOUT" "$workdir/pa-tcp" -rank $i -addrs "$addrs" \
        -n "$N" -x "$X" -workers "$WORKERS" -resolve recompute \
        -o "$workdir/shard$i.rc.bin" &
    pids="$pids $!"
    i=$((i + 1))
done
timeout "$TIMEOUT" "$workdir/pa-tcp" -rank 0 -addrs "$addrs" \
    -n "$N" -x "$X" -workers "$WORKERS" -resolve recompute \
    -o "$workdir/shard0.rc.bin"

for pid in $pids; do
    wait "$pid"
done

i=0
while [ $i -lt $RANKS ]; do
    cmp "$workdir/shard$i.bin" "$workdir/shard$i.rc.bin" \
        || { echo "shard $i differs between wire and recompute resolve modes" >&2; exit 1; }
    i=$((i + 1))
done

echo "pa-tcp smoke: $RANKS ranks x $WORKERS workers over localhost completed (n=$N, x=$X); cache-on, cache-off and recompute shards byte-identical"
