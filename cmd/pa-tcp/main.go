// Command pa-tcp runs one rank of the parallel generator as its own OS
// process over TCP — genuine distributed-memory execution, the role one
// MPI rank plays in the paper. Start P processes with the same -addrs
// list and ranks 0..P-1 (on one host or many). Each rank writes its
// edges to its own compressed, CRC-protected esink shard file under
// -stream-dir (required; docs/SHARD_FORMAT.md) with bounded resident
// memory — the paper's Section 2 I/O model, every processor writing its
// own part of the graph as it is produced. Collect the shards into one
// directory and read them with pa-analyze -stream-dir (statistics,
// -fingerprint, -export-binary) or pagen.ReadStreamDir.
//
// Usage (2 ranks on localhost):
//
//	pa-tcp -rank 0 -addrs 127.0.0.1:9500,127.0.0.1:9501 -n 100000 -x 4 -stream-dir out &
//	pa-tcp -rank 1 -addrs 127.0.0.1:9500,127.0.0.1:9501 -n 100000 -x 4 -stream-dir out
//	pa-analyze -stream-dir out -ranks 2 -export-binary g.bin
//
// Each rank reports alone: when the generation protocol terminates it
// closes its connections and prints or writes only its own figures.
// -stats prints the rank's statistics to stderr; -metrics FILE
// additionally exports the rank's full metric record (counters,
// wait-chain histogram, its share of the binned received-message load)
// as JSON, "-" meaning stderr. A cluster figure is a sum or a maximum
// over the ranks' lines or files; the cluster's load curve is the
// bin-wise sum of the ranks' node_load count columns. A checkpointed
// run's records have no load curve.
//
// Long runs can checkpoint: -checkpoint-dir DIR -checkpoint-every N
// makes every rank, at its own trigger and without a message to any
// other, fsync its shard up to its frontier and write a small snapshot
// naming that mark to DIR; -resume restarts every rank from its own
// newest snapshot (see docs/CHECKPOINT_FORMAT.md and
// docs/OPERATIONS.md). The shard is the checkpoint's attachment table:
// on resume each rank truncates its shard to its snapshot's durable
// mark, rebuilds its table from the records before it and regenerates
// every node above it, so the merged output stays byte-identical to an
// uninterrupted run whichever epochs the ranks come back from.
//
// A single-host cluster that restarts itself after a crash is a pa-serve
// job: the daemon's process runner launches one pa-tcp per rank with the
// job's checkpoint and shard directories, and relaunches the cluster with
// -resume when a rank dies (docs/OPERATIONS.md §3.2). pa-tcp itself runs
// exactly one rank once. Its run flags are the ones pagen has
// (-n, -x, -p, -seed, -scheme, -workers, -hub-prefix, -resolve, the
// checkpoint flags, -stream-dir, -stream-block-edges); -rank, -addrs,
// -stats, -metrics and -handshake-timeout are its own, and the number of
// ranks is the length of -addrs.
//
// pa-tcp ranks are separate OS processes and always talk TCP. To run
// co-located ranks over the shared-memory or codec-ablation transports,
// run them in one process: pagen -ranks P -transport=shm|local
// (docs/OPERATIONS.md §8 has the single-host decision guide).
//
// See examples/distributed for a driver that spawns the ranks and merges
// the shards.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pagen/internal/ckpt"
	"pagen/internal/core"
	"pagen/internal/obs"
	"pagen/internal/runcfg"
	"pagen/internal/transport"
)

func main() {
	var cfg runcfg.Config
	cfg.Flags(flag.CommandLine)
	var (
		rank      = flag.Int("rank", 0, "this process's rank")
		addrs     = flag.String("addrs", "", "comma-separated listen addresses, one per rank")
		stats     = flag.Bool("stats", false, "print this rank's statistics to stderr")
		metrics   = flag.String("metrics", "", "write this rank's metrics JSON to this file (\"-\" = stderr); a checkpointed run's has no node_load curve")
		handshake = flag.Duration("handshake-timeout", transport.DefaultHandshakeTimeout,
			"mesh-establishment deadline (a peer missing past it is an error, not a hang)")
	)
	flag.Parse()

	if *addrs == "" {
		fatal(fmt.Errorf("need -addrs with one address per rank"))
	}
	addrList := strings.Split(*addrs, ",")
	if cfg.StreamDir == "" {
		fatal(fmt.Errorf("need -stream-dir: every rank writes its edges to its own shard file under it"))
	}
	cfg.Ranks = len(addrList)
	// The load bins are the one metrics input snapshots do not
	// capture; under checkpointing -metrics still exports everything
	// else (pause/write histograms included).
	cfg.CollectNodeLoad = *metrics != "" && !cfg.Checkpointed()
	cfg, err := cfg.Validate()
	if err != nil {
		fatal(err)
	}
	opts, err := runcfg.Options(cfg)
	if err != nil {
		fatal(err)
	}
	if cfg.Resume {
		reportResumeScan(cfg.CheckpointDir, *rank)
	}

	tr, err := transport.NewTCPWithConfig(*rank, addrList, transport.TCPConfig{
		HandshakeTimeout: *handshake,
	})
	if err != nil {
		fatal(err)
	}

	res, err := core.RunRank(tr, opts)
	if err != nil {
		fatal(err)
	}
	tr.Close()
	st := res.Stats
	if *stats {
		fmt.Fprintf(os.Stderr, "rank %d: nodes=%d edges=%d load=%d reqS=%d reqR=%d frames=%d bytes=%d wall=%v busy=%v\n",
			st.Rank, st.Nodes, st.Edges, st.TotalLoad(), st.Comm.RequestsSent, st.Comm.RequestsRecv,
			st.Comm.FramesSent, st.Comm.BytesSent, st.WallTime, st.BusyTime)
		fmt.Fprintf(os.Stderr, "rank %d: sink blocks=%d bytes=%d fsyncs=%d fsync-stall=%v\n",
			st.Rank, st.SinkBlocks, st.SinkBytes, st.SinkFsyncs, st.SinkFsyncTime)
	}

	if *metrics != "" {
		m := runcfg.Metrics(cfg)
		m.ElapsedNanos = st.WallTime.Nanoseconds()
		m.PerRank = []obs.RankMetrics{st.Metrics()}
		if st.NodeLoad != nil {
			curve := obs.BinNodeLoad(st.NodeLoad, cfg.N, cfg.X, cfg.P)
			m.NodeLoad = &curve
		}
		if err := m.WriteFile(*metrics); err != nil {
			fatal(err)
		}
	}
}

// reportResumeScan previews what a resume will find for this rank:
// which epoch its newest complete snapshot holds, and which snapshot
// files were skipped as torn or corrupt (each is a warning — the run
// falls back past them, but an operator should know the newest data was
// damaged). The engine reads the same snapshot again and validates it
// against the run; this scan only exists for the operator.
func reportResumeScan(dir string, rank int) {
	snap, skipped, err := ckpt.Latest(dir, rank)
	if err != nil {
		fatal(fmt.Errorf("resume pre-scan: %w", err))
	}
	for _, name := range skipped {
		fmt.Fprintf(os.Stderr, "pa-tcp: rank %d: warning: skipping damaged snapshot %s\n", rank, name)
	}
	switch {
	case snap == nil:
		fmt.Fprintf(os.Stderr, "pa-tcp: rank %d: no usable snapshot in %s, starting fresh\n", rank, dir)
	default:
		fmt.Fprintf(os.Stderr, "pa-tcp: rank %d: resuming from its newest complete snapshot, epoch %d (each rank resumes from its own)\n",
			rank, snap.Epoch)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pa-tcp:", err)
	os.Exit(1)
}
