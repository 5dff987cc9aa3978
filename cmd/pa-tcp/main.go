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
// After the generation protocol terminates, the ranks run a sequence of
// collectives (internal/coll) to assemble a cluster-wide summary at rank
// 0: total edges, per-rank loads, and aggregate message counters. -stats
// prints per-rank and cluster statistics to stderr; -metrics FILE
// additionally exports the rank's full metric record (counters,
// wait-chain histogram, per-node received-message load) as JSON, "-"
// meaning stderr.
//
// Long runs can checkpoint: -checkpoint-dir DIR -checkpoint-every N
// makes every rank snapshot its engine state to DIR at cooperative
// epochs, and -resume restarts the cluster from the newest epoch all
// ranks committed (see docs/CHECKPOINT_FORMAT.md and
// docs/OPERATIONS.md). The shard is the checkpoint's attachment table:
// on resume each rank truncates its shard to the snapshot's durable
// mark, rebuilds its table from the records before it and regenerates
// exactly the missing suffix, so the merged output stays byte-identical
// to an uninterrupted run.
//
// -supervise turns pa-tcp into a single-host cluster supervisor: it
// spawns one child rank per address, and when any child dies it kills
// the survivors and relaunches the whole cluster with -resume, up to
// -max-restarts times. Every other flag set on the supervisor reaches
// every child (-stats only rank 0); -metrics is refused, since every
// child would write the same file. Kills mid-run (even mid-flush)
// resume without duplicating or dropping edges:
//
//	pa-tcp -supervise -addrs 127.0.0.1:9500,127.0.0.1:9501 \
//	    -n 1000000 -x 4 -checkpoint-dir ck -checkpoint-every 5000000 \
//	    -stream-dir out
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
	"os/exec"
	"strconv"
	"strings"
	"time"

	"pagen/internal/ckpt"
	"pagen/internal/coll"
	"pagen/internal/comm"
	"pagen/internal/core"
	"pagen/internal/model"
	"pagen/internal/obs"
	"pagen/internal/partition"
	"pagen/internal/transport"
)

// flags is pa-tcp's command line.
type flags struct {
	rank, x, workers, ckptKeep, maxRestarts, streamBlock *int
	n, hub, ckptN                                        *int64
	p                                                    *float64
	seed                                                 *uint64
	addrs, scheme, resolve, metrics, ckptDir, streamDir  *string
	stats, resume, supervise                             *bool
	handshake                                            *time.Duration
}

// defineFlags registers pa-tcp's flags on fs.
func defineFlags(fs *flag.FlagSet) *flags {
	return &flags{
		rank:    fs.Int("rank", 0, "this process's rank"),
		addrs:   fs.String("addrs", "", "comma-separated listen addresses, one per rank"),
		n:       fs.Int64("n", 100000, "number of nodes"),
		x:       fs.Int("x", 4, "edges per new node"),
		p:       fs.Float64("p", 0.5, "direct-attachment probability"),
		scheme:  fs.String("scheme", "RRP", "partitioning scheme"),
		seed:    fs.Uint64("seed", 1, "random seed"),
		workers: fs.Int("workers", 0, "generation goroutines for this rank (0 = GOMAXPROCS)"),
		hub:     fs.Int64("hub-prefix", 0, "hub-prefix cache size H (0 = auto, <0 = off); all ranks must agree"),
		resolve: fs.String("resolve", "wire", "non-local dependency resolution: wire or recompute; all ranks must agree"),
		stats:   fs.Bool("stats", false, "print rank and cluster statistics to stderr"),
		metrics: fs.String("metrics", "", "write this rank's metrics JSON to this file (\"-\" = stderr)"),
		handshake: fs.Duration("handshake-timeout", transport.DefaultHandshakeTimeout,
			"mesh-establishment deadline (a peer missing past it is an error, not a hang)"),
		ckptDir:     fs.String("checkpoint-dir", "", "write per-rank snapshots to this directory (shared across ranks)"),
		ckptN:       fs.Int64("checkpoint-every", 0, "protocol events between checkpoint epochs (requires -checkpoint-dir)"),
		ckptKeep:    fs.Int("checkpoint-keep", 0, "snapshots to retain per rank (0 = default)"),
		resume:      fs.Bool("resume", false, "resume from the latest restorable epoch in -checkpoint-dir"),
		supervise:   fs.Bool("supervise", false, "run as a supervisor: spawn all ranks locally, restart the cluster from the last checkpoint on crash"),
		maxRestarts: fs.Int("max-restarts", 3, "restart attempts before the supervisor gives up"),
		streamDir:   fs.String("stream-dir", "", "required: directory for this rank's compressed edge shard, written with bounded memory (docs/SHARD_FORMAT.md); under -supervise, the children's"),
		streamBlock: fs.Int("stream-block-edges", 0, "edge records per shard block, the unit a rank flushes and a reader decodes on its own (0 = 65536)"),
	}
}

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()

	addrList := strings.Split(*f.addrs, ",")
	if len(addrList) < 1 || *f.addrs == "" {
		fatal(fmt.Errorf("need -addrs with one address per rank"))
	}
	if *f.streamDir == "" {
		fatal(fmt.Errorf("need -stream-dir: every rank writes its edges to its own shard file under it"))
	}

	ck := checkpointOptions(*f.ckptDir, *f.ckptN, *f.ckptKeep, *f.resume)

	mode, err := core.ParseResolveMode(*f.resolve)
	if err != nil {
		fatal(err)
	}

	if *f.supervise {
		runSupervisor(addrList, flag.CommandLine, f)
		return
	}
	if ck != nil && ck.Resume {
		reportResumeScan(*f.ckptDir, *f.rank)
	}
	kind, err := partition.ParseKind(*f.scheme)
	if err != nil {
		fatal(err)
	}
	part, err := partition.New(kind, *f.n, len(addrList))
	if err != nil {
		fatal(err)
	}

	tr, err := transport.NewTCPWithConfig(*f.rank, addrList, transport.TCPConfig{
		HandshakeTimeout: *f.handshake,
	})
	if err != nil {
		fatal(err)
	}
	defer tr.Close()

	res, err := core.RunRank(tr, core.Options{
		Params:    model.Params{N: *f.n, X: *f.x, P: *f.p},
		Part:      part,
		Seed:      *f.seed,
		Workers:   *f.workers,
		HubPrefix: *f.hub,
		Resolve:   mode,
		// Node-load counters are the one metrics input snapshots do not
		// capture; under checkpointing -metrics still exports everything
		// else (pause/write histograms included).
		CollectNodeLoad:  *f.metrics != "" && ck == nil,
		Checkpoint:       ck,
		StreamDir:        *f.streamDir,
		StreamBlockEdges: *f.streamBlock,
	})
	if err != nil {
		fatal(err)
	}
	st := res.Stats
	if *f.stats {
		fmt.Fprintf(os.Stderr, "rank %d: nodes=%d edges=%d reqS=%d reqR=%d frames=%d bytes=%d wall=%v busy=%v\n",
			st.Rank, st.Nodes, st.Edges, st.Comm.RequestsSent, st.Comm.RequestsRecv,
			st.Comm.FramesSent, st.Comm.BytesSent, st.WallTime, st.BusyTime)
		fmt.Fprintf(os.Stderr, "rank %d: sink blocks=%d bytes=%d fsyncs=%d fsync-stall=%v\n",
			st.Rank, st.SinkBlocks, st.SinkBytes, st.SinkFsyncs, st.SinkFsyncTime)
	}

	// Cluster-wide summary: a back-to-back collective sequence over the
	// same mesh (the engine protocol has terminated, so the collectives
	// have the channel to themselves). The sequenced tag protocol keeps
	// the coordinator sane when fast ranks race ahead to the next
	// operation — the 4-rank "tag mismatch" failure mode of the
	// unsequenced design.
	cs := coll.New(comm.New(tr, comm.Config{}))
	edges, err := cs.Gather(st.Edges)
	if err != nil {
		fatal(err)
	}
	maxLoad, err := cs.AllReduceMax(st.TotalLoad())
	if err != nil {
		fatal(err)
	}
	totalReq, err := cs.AllReduceSum(st.Comm.RequestsSent)
	if err != nil {
		fatal(err)
	}
	totalBytes, err := cs.AllReduceSum(st.Comm.BytesSent)
	if err != nil {
		fatal(err)
	}
	if *f.rank == 0 && *f.stats {
		var total int64
		for _, e := range edges {
			total += e
		}
		fmt.Fprintf(os.Stderr, "cluster: %d edges across %d ranks, max rank load %d, %d requests, %d frame bytes\n",
			total, len(addrList), maxLoad, totalReq, totalBytes)
	}

	if *f.metrics != "" {
		if err := writeMetrics(*f.metrics, *f.rank, res, part, *f.n, *f.x, *f.p, len(addrList), *f.scheme, *f.seed); err != nil {
			fatal(err)
		}
	}
}

// writeMetrics exports this rank's metric record as JSON. Unlike the
// in-process pagen run, each pa-tcp rank only sees its own node set, so
// the node-load curve covers this rank's nodes (union the per-rank files
// for the full Lemma 3.4 curve).
func writeMetrics(path string, rank int, res *core.RankResult, part partition.Scheme,
	n int64, x int, p float64, ranks int, scheme string, seed uint64) error {
	m := &obs.RunMetrics{
		N:            n,
		X:            x,
		P:            p,
		Ranks:        ranks,
		Scheme:       scheme,
		Seed:         seed,
		ElapsedNanos: res.Stats.WallTime.Nanoseconds(),
		PerRank:      []obs.RankMetrics{res.Stats.Metrics()},
	}
	if res.Stats.NodeLoad != nil {
		samples := core.NodeLoadSamples(part, rank, res.Stats.NodeLoad)
		curve := obs.BinNodeLoad(samples, n, x, p, 0)
		m.NodeLoad = &curve
	}
	if path == "-" {
		return m.WriteJSON(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkpointOptions translates the checkpoint flags to engine options
// (nil when checkpointing is not requested).
func checkpointOptions(dir string, every int64, keep int, resume bool) *core.CheckpointOptions {
	if dir == "" && every == 0 && !resume {
		return nil
	}
	return &core.CheckpointOptions{Dir: dir, Every: every, Keep: keep, Resume: resume}
}

// reportResumeScan previews what a resume will find for this rank:
// which epoch its newest complete snapshot holds, and which snapshot
// files were skipped as torn or corrupt (each is a warning — the run
// falls back past them, but an operator should know the newest data was
// damaged). The engine re-reads and cross-validates the snapshot during
// resume negotiation; this scan only exists for the operator.
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
		fmt.Fprintf(os.Stderr, "pa-tcp: rank %d: newest complete snapshot is epoch %d (cluster resumes from the minimum across ranks)\n",
			rank, snap.Epoch)
	}
}

// supervisorOnly are the flags the supervisor consumes itself; every
// other flag the operator set reaches every child unchanged.
var supervisorOnly = map[string]bool{"supervise": true, "max-restarts": true, "resume": true, "rank": true}

// childArgs returns the arguments every child rank shares: each flag set
// on fs except the supervisor's own and -stats, which only rank 0
// receives. -metrics is refused: every child would write the same file.
// Flags come in name order, -addrs first, and a non-boolean value is its
// own argument, so a child's command line reads "pa-tcp -rank R -addrs
// A …" (scripts/smoke_pa_tcp.sh finds ranks by that prefix).
func childArgs(fs *flag.FlagSet) ([]string, error) {
	var args []string
	var err error
	fs.Visit(func(fl *flag.Flag) {
		switch {
		case fl.Name == "metrics":
			err = fmt.Errorf("-metrics cannot be used with -supervise: every child rank would write the same file")
		case supervisorOnly[fl.Name] || fl.Name == "stats":
		case isBool(fl):
			args = append(args, "-"+fl.Name+"="+fl.Value.String())
		default:
			args = append(args, "-"+fl.Name, fl.Value.String())
		}
	})
	return args, err
}

// isBool reports whether fl is a boolean flag, which takes its value
// only in the -name=value form.
func isBool(fl *flag.Flag) bool {
	b, ok := fl.Value.(interface{ IsBoolFlag() bool })
	return ok && b.IsBoolFlag()
}

// runSupervisor spawns one pa-tcp child process per address on this
// host and babysits the cluster: if any child exits non-zero, the
// survivors are killed (a rank cannot finish without its peers anyway)
// and the whole cluster is relaunched with -resume, restarting from the
// newest epoch every rank committed. Attempts are bounded by
// -max-restarts. Checkpointing must be enabled — without snapshots a
// restart would silently redo all work.
func runSupervisor(addrList []string, fs *flag.FlagSet, f *flags) {
	if *f.ckptDir == "" || *f.ckptN <= 0 {
		fatal(fmt.Errorf("-supervise needs -checkpoint-dir and -checkpoint-every > 0 (restarts resume from snapshots)"))
	}
	shared, err := childArgs(fs)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*f.streamDir, 0o755); err != nil {
		fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	resume := *f.resume
	for attempt := 0; ; attempt++ {
		err := superviseOnce(exe, len(addrList), shared, *f.stats, resume)
		if err == nil {
			fmt.Fprintf(os.Stderr, "pa-tcp: supervisor: all %d ranks completed\n", len(addrList))
			return
		}
		if attempt >= *f.maxRestarts {
			fatal(fmt.Errorf("supervisor: giving up after %d restarts: %w", *f.maxRestarts, err))
		}
		fmt.Fprintf(os.Stderr, "pa-tcp: supervisor: cluster failed (%v), restart %d/%d from last checkpoint\n",
			err, attempt+1, *f.maxRestarts)
		resume = true // every relaunch resumes from the newest complete epoch
		time.Sleep(500 * time.Millisecond)
	}
}

// rankArgs returns child rank i's full argument list.
func rankArgs(shared []string, i int, stats, resume bool) []string {
	args := append([]string{"-rank", strconv.Itoa(i)}, shared...)
	if resume {
		args = append(args, "-resume")
	}
	if stats && i == 0 {
		args = append(args, "-stats")
	}
	return args
}

// superviseOnce launches the full cluster once and waits for it. On the
// first child failure the remaining children are killed and the first
// error is returned after every process has been reaped.
func superviseOnce(exe string, ranks int, shared []string, stats, resume bool) error {
	cmds := make([]*exec.Cmd, ranks)
	for i := 0; i < ranks; i++ {
		cmd := exec.Command(exe, rankArgs(shared, i, stats, resume)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:i] {
				c.Process.Kill()
				c.Wait()
			}
			return fmt.Errorf("spawn rank %d: %w", i, err)
		}
		cmds[i] = cmd
	}

	type exit struct {
		rank int
		err  error
	}
	exits := make(chan exit, ranks)
	for i, cmd := range cmds {
		go func(i int, cmd *exec.Cmd) {
			exits <- exit{i, cmd.Wait()}
		}(i, cmd)
	}
	var firstErr error
	for done := 0; done < ranks; done++ {
		e := <-exits
		if e.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rank %d: %w", e.rank, e.err)
			// Peers cannot terminate without the dead rank; take the
			// whole cluster down so the restart starts from a clean slate.
			for _, cmd := range cmds {
				cmd.Process.Kill()
			}
		}
	}
	return firstErr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pa-tcp:", err)
	os.Exit(1)
}
