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
# pagen -ranks 4 run, and every cache-on rank's metrics to show replica
# hits and no miss, coalesced request or publish. Raw shard bytes are
# not compared: the merged edge
# stream is the contract (a checkpointed run's block cuts depend on
# timing; an uncheckpointed run's shards are deterministic too).
#
# With "chaos" as the first argument it runs the kill-mid-epoch smoke
# through the control plane: pa-serve (-runner process) runs 4-rank
# streamed jobs as pa-tcp processes, and one rank of a job is killed
# while the second checkpoint epoch is only partially committed across
# the cluster — some ranks' snapshots published, others still in flight
# in their background writers. The queue respawns the job from whatever
# its directory holds (show -field restarts must be >= 1), and the
# job's download must be byte-identical to the download of an unkilled
# job with the same spec.
#
# With "stream" as the first argument it runs the kill-after-first-epoch
# smoke the same way: a pa-serve job's rank is killed after the first
# checkpoint epoch commits and the queue respawns the job; the job's
# shard directory must carry the same edge-stream fingerprint as an
# in-memory pagen run of the same configuration, and its download must
# reproduce pagen -format binary byte for byte.
#
# With "shm" as the first argument it runs the in-process transport
# smoke instead: pagen over the shared-memory transport (message
# batches by reference, no codec) against the codec-ablation local
# transport, at 1 and 2 workers per rank — all four outputs must be
# byte-identical (DESIGN.md §13.1).
#
# A run that outlives TIMEOUT seconds is a hang, not just a failure.
# In the basic mode each rank's timeout sends it SIGQUIT, so its
# goroutine dump lands in this script's stderr. In chaos and stream
# mode the daemon is killed first (so it cannot reap or respawn the
# ranks), every surviving rank of the job gets SIGQUIT, and the job's
# jobs/<id>/rank*.log files, dumps included, are printed. The EXIT trap
# kills whatever daemon or rank is left so the ports are free for the
# next run.
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
srv="" # the pa-serve daemon of the chaos and stream modes

# cluster_pids: this port range's pa-tcp rank processes (the timeout
# wrappers excluded: their command lines start with timeout, not
# pa-tcp). Every rank's command line begins "pa-tcp -rank R -addrs A".
cluster_pids() {
    pgrep -f "^[^ ]*pa-tcp -rank [0-9]+ -addrs 127\.0\.0\.1:$BASE_PORT," || true
}

cleanup() {
    [ -z "$srv" ] || kill -KILL "$srv" 2>/dev/null || true
    for pid in $(cluster_pids); do
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

if [ "$MODE" = chaos ] || [ "$MODE" = stream ]; then
    # Scale n up and the epoch cadence down so the kill lands well
    # before the run finishes, even on slow CI machines (commit time
    # and run time scale together).
    RN=${RN:-800000}
    SEED=${SEED:-7}
    HTTP_PORT=${HTTP_PORT:-$((BASE_PORT + RANKS))}

    go build -o "$workdir/pa-serve" ./cmd/pa-serve
    go build -o "$workdir/serve" ./examples/serve
    # One job at a time holds every slot, and the rank ports are
    # exactly BASE_PORT.., so each job's ranks read
    # "pa-tcp -rank R -addrs 127.0.0.1:$BASE_PORT,...".
    "$workdir/pa-serve" -listen "127.0.0.1:$HTTP_PORT" -data-dir "$workdir/data" \
        -slots "$RANKS" -runner process -pa-tcp "$workdir/pa-tcp" \
        -port-base "$BASE_PORT" -port-span "$RANKS" 2>"$workdir/serve.log" &
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

    # submit EVERY: submit the smoke's streamed, checkpointed job and
    # print its id.
    submit() {
        client submit -n "$RN" -x 3 -seed "$SEED" -job-ranks "$RANKS" \
            -job-workers "$WORKERS" -ckpt-every "$1"
    }

    # rank_logs JOB: print the job's per-rank logs.
    rank_logs() {
        for f in "$workdir/data/jobs/$1"/rank*.log; do
            echo "=== $f" >&2
            cat "$f" >&2
        done
    }

    # hung JOB: the job outlived TIMEOUT. Kill the daemon so it cannot
    # reap or respawn the ranks, stop every surviving rank, queue a
    # SIGQUIT on each and let them all go at once: each writes its
    # goroutine dump to its own jobs/<id>/rank<i>.log. Print the logs
    # and fail.
    hung() {
        kill -KILL "$srv" 2>/dev/null || true
        pids=$(cluster_pids | tr '\n' ' ')
        echo "job $1 timed out after ${TIMEOUT}s; surviving ranks: ${pids:-none}" >&2
        for pid in $pids; do
            kill -STOP "$pid" 2>/dev/null || true
            kill -QUIT "$pid" 2>/dev/null || true
        done
        for pid in $pids; do
            kill -CONT "$pid" 2>/dev/null || true
        done
        sleep 1
        rank_logs "$1"
        exit 1
    }

    # await JOB: wait for the job to finish; a timeout is a hang, any
    # other end than done a failure.
    await() {
        client wait "$1" -wait-timeout "${TIMEOUT}s" >/dev/null 2>&1 && return 0
        state=$(client show "$1" -field state)
        case "$state" in queued | running | checkpointed) hung "$1" ;; esac
        echo "job $1 ended $state: $(client show "$1" -field error)" >&2
        rank_logs "$1"
        exit 1
    }

    # kill_rank_when JOB WHEN: watch the snapshots published under the
    # job's checkpoint directory (rank%04d-epoch%08d.ckpt) and kill its
    # rank 2 once WHEN holds: "committed" — every rank has published
    # epoch 1; "partial" — the newest epoch, 2 or later, is published by
    # some ranks but not all (the others' background writes are in
    # flight), or, if no poll catches that window, epoch 8 is out —
    # still a mid-run kill. The bracketed [2] keeps pkill from matching
    # this script's own command line.
    kill_rank_when() {
        ckdir="$workdir/data/jobs/$1/ck"
        polls=0
        newest=0
        holders=0
        fire=""
        while :; do
            snaps=$(ls "$ckdir" 2>/dev/null | grep '\.ckpt$' || true)
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
            # The job's state costs an HTTP round trip; look every 50 polls.
            if [ $((polls % 50)) -eq 0 ]; then
                case $(client show "$1" -field state) in done | failed | cancelled) break ;; esac
            fi
            sleep 0.01
        done
        if [ -z "$fire" ]; then
            echo "job $1 finished before the kill point ($2) was reached;" >&2
            echo "raise RN or lower EVERY so the kill lands mid-run" >&2
            exit 1
        fi
        pkill -f -- "-rank [2] -addrs .*jobs/$1/" \
            || { echo "failed to kill rank 2 of job $1" >&2; exit 1; }
        echo "$MODE smoke: killed rank 2 of job $1 at epoch $newest, published by $holders of $RANKS ranks ($polls polls)"
    }

    # restarted JOB: the queue must have respawned the job's cluster.
    restarted() {
        restarts=$(client show "$1" -field restarts)
        [ "$restarts" -ge 1 ] \
            || { echo "job $1 completed with restarts=$restarts, want >= 1" >&2; rank_logs "$1"; exit 1; }
    }
fi

if [ "$MODE" = chaos ]; then
    # Kill mid-epoch: the newest epoch is on disk for some ranks only,
    # so the respawned attempt must negotiate past an incomplete epoch.
    EVERY=${EVERY:-40000}

    echo "chaos smoke: baseline job (n=$RN, x=3)"
    base=$(submit "$EVERY")
    await "$base"

    echo "chaos smoke: kill-mid-epoch job"
    chaos=$(submit "$EVERY")
    kill_rank_when "$chaos" partial
    await "$chaos"
    restarted "$chaos"

    for job in "$base" "$chaos"; do
        client download "$job" -o "$workdir/$job.bin" >/dev/null
    done
    cmp "$workdir/$base.bin" "$workdir/$chaos.bin" \
        || { echo "respawned job's download differs from the unkilled job's" >&2; exit 1; }
    echo "pa-tcp chaos smoke: rank killed mid-epoch, job respawned by pa-serve from the committed epochs ($restarts restart); download byte-identical to an unkilled job's"
    exit 0
fi

if [ "$MODE" = stream ]; then
    EVERY=${EVERY:-60000}

    echo "stream smoke: in-memory reference run (n=$RN, x=3)"
    timeout "$TIMEOUT" "$workdir/pagen" -n "$RN" -x 3 -seed "$SEED" \
        -ranks "$RANKS" -workers "$WORKERS" -format binary \
        -o "$workdir/mem.bin"
    memfp=$(fingerprint -i "$workdir/mem.bin" -format binary)

    echo "stream smoke: kill-and-respawn job"
    job=$(submit "$EVERY")
    kill_rank_when "$job" committed
    await "$job"
    restarted "$job"

    streamfp=$(fingerprint -stream-dir "$workdir/data/jobs/$job/shards" -ranks "$RANKS")
    [ "$streamfp" = "$memfp" ] \
        || { echo "fingerprint mismatch: streamed $streamfp vs in-memory $memfp" >&2; exit 1; }

    client download "$job" -o "$workdir/stream.bin" >/dev/null
    cmp "$workdir/mem.bin" "$workdir/stream.bin" \
        || { echo "job's download differs from in-memory binary output" >&2; exit 1; }

    echo "pa-tcp stream smoke: killed rank respawned by pa-serve from its checkpoint ($restarts restart); shards fingerprint-equal ($streamfp) and download byte-identical to the in-memory run"
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

# Every rank computes the hub prefix itself before its first window, so
# each cache-on rank hits its replica and records no miss, no coalesced
# request and no publish (zero counters are omitted from the file).
i=0
while [ $i -lt $RANKS ]; do
    f="$workdir/on.metrics$i.json"
    grep -Eq '"hub_cache_hit": *[1-9]' "$f" \
        || { echo "pass on: rank $i recorded no hub replica hit in $f" >&2; exit 1; }
    if grep -Eq '"(hub_cache_miss|req_coalesced|hub_cache_publish[a-z_]*)"' "$f"; then
        echo "pass on: rank $i recorded a replica miss, a coalesced request or a publish in $f" >&2
        exit 1
    fi
    i=$((i + 1))
done

timeout "$TIMEOUT" "$workdir/pagen" -n "$N" -x "$X" -ranks "$RANKS" \
    -workers "$WORKERS" -format binary -o "$workdir/ref.bin"
ref=$(fingerprint -i "$workdir/ref.bin" -format binary)
for pass in on off rc; do
    got=$(fingerprint -stream-dir "$workdir/$pass" -ranks "$RANKS")
    [ "$got" = "$ref" ] \
        || { echo "pass $pass: fingerprint $got, in-process pagen $ref" >&2; exit 1; }
done

echo "pa-tcp smoke: $RANKS ranks x $WORKERS workers over localhost completed (n=$N, x=$X); cache-on, cache-off and recompute shards fingerprint-equal ($ref) to in-process pagen; cache-on ranks hit their replicas with no miss, coalesced request or publish"
