#!/bin/sh
# smoke_pa_tcp.sh — 4-rank pa-tcp localhost smoke test: real OS
# processes, real TCP mesh, the full generation protocol plus the
# post-run collective sequence (the stats gather that the unsequenced
# tag protocol used to kill at 4 ranks), plus per-rank metrics export.
# Each rank runs with 2 workers, so the striped batch kernel (a helper
# goroutine drawing and gathering beside the rank goroutine, which polls
# its sockets itself) is exercised against the real TCP transport, not
# just the in-process one. Every rank writes its edges to its own esink
# shard (-stream-dir, docs/SHARD_FORMAT.md), pa-tcp's only output.
# The basic mode runs three clusters — hub-prefix cache on, cache off
# (-hub-prefix -1) and -resolve recompute — and requires all three
# shard directories to carry the fingerprint of an in-process
# pagen -ranks 4 run. Raw shard bytes are not compared: the merged edge
# stream is the contract (a checkpointed run's block cuts depend on
# timing; an uncheckpointed run's shards are deterministic too).
#
# With "chaos" as the first argument it runs the kill-mid-epoch smoke:
# a supervised streamed run where one rank is killed while the second
# checkpoint epoch is only partially committed across the cluster —
# some ranks' snapshots published, others still in flight in their
# background writers. The supervisor restarts the cluster from whatever
# the directory holds, and the resumed run's shards, converted with
# pa-analyze -export-binary, must be byte-identical to an uninterrupted
# supervised baseline's.
#
# With "stream" as the first argument it runs the kill-after-first-epoch
# smoke: a supervised streamed run is killed after the first checkpoint
# epoch commits and restarted by the supervisor; the recovered shard
# directory must carry the same edge-stream fingerprint as an in-memory
# run of the same configuration, and converting it with pa-analyze
# -export-binary must reproduce the in-memory binary output byte for
# byte.
#
# With "shm" as the first argument it runs the in-process transport
# smoke instead: pagen over the shared-memory transport (message
# batches by reference, no codec) against the codec-ablation local
# transport, at 1 and 2 workers per rank — all four outputs must be
# byte-identical (DESIGN.md §13.1).
#
# A run that outlives TIMEOUT seconds is a hang, not just a failure:
# every surviving pa-tcp rank on this script's port range gets SIGQUIT,
# so its goroutine dump lands in the run's log, and the log is printed.
# The EXIT trap kills whatever rank or supervisor is left so the ports
# are free for the next run.
# Exits non-zero if any rank fails or hangs, or an output differs.
set -eu

MODE=${1:-basic}
N=${N:-50000}
X=${X:-4}
RANKS=4
WORKERS=${WORKERS:-2}
BASE_PORT=${BASE_PORT:-9700}
TIMEOUT=${TIMEOUT:-120}

workdir=$(mktemp -d)

# cluster_pids [rank|supervise]: this port range's pa-tcp processes of
# that role (the timeout wrappers excluded: their command lines start
# with timeout, not pa-tcp).
cluster_pids() {
    pgrep -f "^[^ ]*pa-tcp -$1 ([0-9]+ )?-addrs 127\.0\.0\.1:$BASE_PORT," || true
}

cleanup() {
    for pid in $(cluster_pids supervise) $(cluster_pids rank); do
        kill -KILL "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

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
go build -o "$workdir/pagen" ./cmd/pagen
go build -o "$workdir/pa-analyze" ./cmd/pa-analyze

addrs=""
i=0
while [ $i -lt $RANKS ]; do
    addrs="$addrs${addrs:+,}127.0.0.1:$((BASE_PORT + i))"
    i=$((i + 1))
done

# fingerprint ARGS...: pa-analyze's edge-stream fingerprint of a graph
# file (-i) or a shard directory (-stream-dir).
fingerprint() {
    "$workdir/pa-analyze" "$@" -fingerprint | awk '{print $2}'
}

# hung LOG: the run outlived TIMEOUT. Print LOG, then ask every
# surviving rank, one at a time, for a goroutine dump (Go writes it to
# the rank's stderr, which is LOG) and print each dump under the rank's
# name, and fail. The ranks are stopped first, so a dumped rank's exit
# cannot unwind its peers before their turn.
hung() {
    pids=$(cluster_pids rank | tr '\n' ' ')
    echo "timed out after ${TIMEOUT}s; surviving ranks: ${pids:-none}; log:" >&2
    cat "$1" >&2
    for pid in $pids; do
        kill -STOP "$pid" 2>/dev/null || true
    done
    for pid in $pids; do
        who=$(ps -o args= -p "$pid" | cut -d' ' -f2-3)
        size=$(wc -c <"$1")
        kill -QUIT "$pid" 2>/dev/null || continue
        kill -CONT "$pid" 2>/dev/null || true
        sleep 1
        echo "=== goroutine dump of pa-tcp $who (pid $pid)" >&2
        tail -c +$((size + 1)) "$1" >&2
    done
    exit 1
}

if [ "$MODE" = chaos ] || [ "$MODE" = stream ]; then
    # Scale n up and the epoch cadence down so the kill lands well
    # before the run finishes, even on slow CI machines (commit time
    # and run time scale together).
    RN=${RN:-800000}
    SEED=${SEED:-7}

    # supervise LOG ARGS...: start a supervised streamed cluster in the
    # background (pid in $sup); every child's stderr goes to LOG. On
    # timeout only the supervisor is killed (--foreground: timeout does
    # not signal its process group), so hung ranks survive for hung.
    supervise() {
        log=$1
        shift
        timeout --foreground "$TIMEOUT" "$workdir/pa-tcp" -supervise -addrs "$addrs" \
            -n "$RN" -x 3 -seed "$SEED" -workers "$WORKERS" "$@" 2>"$log" &
        sup=$!
    }

    # await LOG: wait for the supervisor; a timeout is a hang.
    await() {
        status=0
        wait "$sup" || status=$?
        [ "$status" -ne 124 ] || hung "$1"
        if [ "$status" -ne 0 ]; then
            echo "supervisor failed (exit $status):" >&2
            cat "$1" >&2
            exit 1
        fi
    }

    # kill_rank_when CKDIR WHEN: watch the snapshots published under
    # CKDIR (rank%04d-epoch%08d.ckpt) and kill rank 2 once WHEN holds:
    # "committed" — every rank has published epoch 1; "partial" — the
    # newest epoch, 2 or later, is published by some ranks but not all
    # (the others' background writes are in flight), or, if no poll
    # catches that window, epoch 8 is out — still a mid-run kill. The
    # bracketed [2] keeps pkill from matching this script's own command
    # line.
    kill_rank_when() {
        polls=0
        newest=0
        holders=0
        fire=""
        while kill -0 "$sup" 2>/dev/null; do
            snaps=$(ls "$1" 2>/dev/null | grep '\.ckpt$' || true)
            newest=$(echo "$snaps" | sed -n 's/.*-epoch0*\([0-9][0-9]*\)\.ckpt$/\1/p' | sort -n | tail -1)
            newest=${newest:-0}
            holders=$(echo "$snaps" | grep -c "epoch0*$newest\.ckpt$" || true)
            if [ "$2" = committed ]; then
                if [ "$newest" -ge 2 ] || { [ "$newest" -eq 1 ] && [ "$holders" -eq "$RANKS" ]; }; then
                    fire=1
                fi
            elif { [ "$newest" -ge 2 ] && [ "$holders" -lt "$RANKS" ]; } || [ "$newest" -ge 8 ]; then
                fire=1
            fi
            [ -z "$fire" ] || break
            polls=$((polls + 1))
            sleep 0.01
        done
        if [ -z "$fire" ]; then
            echo "run finished before the kill point ($2) was reached;" >&2
            echo "raise RN or lower EVERY so the kill lands mid-run" >&2
            exit 1
        fi
        pkill -f -- "-rank [2] -addrs 127.0.0.1:$BASE_PORT" \
            || { echo "failed to kill rank 2" >&2; exit 1; }
        echo "$MODE smoke: killed rank 2 at epoch $newest, published by $holders of $RANKS ranks ($polls polls)"
    }

    # restarted LOG: the supervisor must have relaunched the cluster.
    restarted() {
        grep -q 'restart 1/' "$1" \
            || { echo "supervisor log records no restart" >&2; cat "$1" >&2; exit 1; }
    }
fi

if [ "$MODE" = chaos ]; then
    # Kill mid-epoch: the newest epoch is on disk for some ranks only,
    # so the restart must negotiate past an incomplete epoch.
    EVERY=${EVERY:-40000}

    echo "chaos smoke: baseline supervised run (n=$RN, x=3)"
    supervise "$workdir/base.log" -checkpoint-dir "$workdir/ck-base" \
        -checkpoint-every "$EVERY" -stream-dir "$workdir/base"
    await "$workdir/base.log"

    echo "chaos smoke: kill-mid-epoch supervised run"
    supervise "$workdir/chaos.log" -checkpoint-dir "$workdir/ck-chaos" \
        -checkpoint-every "$EVERY" -stream-dir "$workdir/chaos"
    kill_rank_when "$workdir/ck-chaos" partial
    await "$workdir/chaos.log"
    restarted "$workdir/chaos.log"

    for run in base chaos; do
        "$workdir/pa-analyze" -stream-dir "$workdir/$run" -ranks "$RANKS" \
            -export-binary "$workdir/$run.bin" 2>/dev/null
    done
    cmp "$workdir/base.bin" "$workdir/chaos.bin" \
        || { echo "resumed run's graph differs from the uninterrupted baseline" >&2; exit 1; }
    echo "pa-tcp chaos smoke: rank killed mid-epoch, restarted from the committed epochs; exported graph byte-identical to uninterrupted baseline"
    exit 0
fi

if [ "$MODE" = stream ]; then
    EVERY=${EVERY:-60000}

    echo "stream smoke: in-memory reference run (n=$RN, x=3)"
    timeout "$TIMEOUT" "$workdir/pagen" -n "$RN" -x 3 -seed "$SEED" \
        -ranks "$RANKS" -workers "$WORKERS" -format binary \
        -o "$workdir/mem.bin"
    memfp=$(fingerprint -i "$workdir/mem.bin" -format binary)

    echo "stream smoke: kill-and-resume supervised streamed run"
    supervise "$workdir/stream.log" -checkpoint-dir "$workdir/ck-stream" \
        -checkpoint-every "$EVERY" -stream-dir "$workdir/shards"
    kill_rank_when "$workdir/ck-stream" committed
    await "$workdir/stream.log"
    restarted "$workdir/stream.log"

    streamfp=$(fingerprint -stream-dir "$workdir/shards" -ranks "$RANKS")
    [ "$streamfp" = "$memfp" ] \
        || { echo "fingerprint mismatch: streamed $streamfp vs in-memory $memfp" >&2; exit 1; }

    "$workdir/pa-analyze" -stream-dir "$workdir/shards" -ranks "$RANKS" \
        -export-binary "$workdir/stream.bin" 2>/dev/null
    cmp "$workdir/mem.bin" "$workdir/stream.bin" \
        || { echo "exported streamed graph differs from in-memory binary output" >&2; exit 1; }

    echo "pa-tcp stream smoke: killed rank restarted from checkpoint; recovered shards fingerprint-equal ($streamfp) and byte-identical to the in-memory run"
    exit 0
fi

# tcp_pass NAME ARGS...: one unsupervised cluster streaming into
# $workdir/NAME, every rank exporting its metrics, rank 0 in the
# foreground with -stats. A hung rank is sent SIGQUIT by its timeout
# and dumps its goroutines to this script's stderr.
tcp_pass() {
    dir="$workdir/$1"
    shift
    pids=""
    i=1
    while [ $i -lt $RANKS ]; do
        timeout -s QUIT -k 5 "$TIMEOUT" "$workdir/pa-tcp" -rank $i -addrs "$addrs" \
            -n "$N" -x "$X" -workers "$WORKERS" -stream-dir "$dir" \
            -metrics "$dir.metrics$i.json" "$@" &
        pids="$pids $!"
        i=$((i + 1))
    done
    timeout -s QUIT -k 5 "$TIMEOUT" "$workdir/pa-tcp" -rank 0 -addrs "$addrs" \
        -n "$N" -x "$X" -workers "$WORKERS" -stream-dir "$dir" \
        -metrics "$dir.metrics0.json" -stats "$@"
    for pid in $pids; do
        wait "$pid"
    done
    i=0
    while [ $i -lt $RANKS ]; do
        for f in "$dir/shard-$i-of-$RANKS.pags" "$dir.metrics$i.json"; do
            [ -s "$f" ] || { echo "rank $i produced no $f" >&2; exit 1; }
        done
        i=$((i + 1))
    done
}

# The hub-prefix cache (on by default, off with -hub-prefix -1) and the
# recompute resolve mode change which queries cross the wire — radically
# so for recompute — and never the output.
tcp_pass on
tcp_pass off -hub-prefix -1
tcp_pass rc -resolve recompute

timeout "$TIMEOUT" "$workdir/pagen" -n "$N" -x "$X" -ranks "$RANKS" \
    -workers "$WORKERS" -format binary -o "$workdir/ref.bin"
ref=$(fingerprint -i "$workdir/ref.bin" -format binary)
for pass in on off rc; do
    got=$(fingerprint -stream-dir "$workdir/$pass" -ranks "$RANKS")
    [ "$got" = "$ref" ] \
        || { echo "pass $pass: fingerprint $got, in-process pagen $ref" >&2; exit 1; }
done

echo "pa-tcp smoke: $RANKS ranks x $WORKERS workers over localhost completed (n=$N, x=$X); cache-on, cache-off and recompute shards fingerprint-equal ($ref) to in-process pagen"
