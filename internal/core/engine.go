// Package core implements the paper's contribution: the distributed-memory
// parallel preferential-attachment generator (Algorithms 3.1 and 3.2).
//
// Each processor rank owns a partition of the node set and computes the
// attachments F_t(e) for its nodes with the copy model, into its F table:
// one slot per (node, edge), holding F_t(e)+1 in w = bits.Len64(n) bits
// so that zero is NILL (ftab.go). Direct
// attachments resolve immediately; copy attachments whose source node
// lives on another rank travel as <request, t, e, k, l> messages and come
// back as <resolved, t, e, v>. Requests for still-unknown attachments
// wait in per-slot queues (the paper's Q_{k,l}) and are answered the
// moment the slot resolves. Duplicate edges are rejected at both decision
// points the paper identifies (Algorithm 3.2 lines 7 and 22) by
// re-running the attachment step.
//
// One goroutine per rank — the rank goroutine — runs that state machine
// and is the single writer of everything in it: the F table, the waiter
// and suspension tables, the send buffers, the shard or Sink and the
// checkpoint cut. Attempt r of node t's edge e — duplicate retries
// included — is a pure function of (seed, t, e, r), and a node commits
// its edges strictly in order, so the output graph is a pure function of
// (n, x, p, seed): independent of the worker count, rank count, partition
// and message schedule (DESIGN.md §8.1).
//
// Nodes are started a window at a time (batch.go; DESIGN.md §8.6): draw
// their x first attempts, gather their local copy sources and hub-replica
// slots in one tight loop so the random reads overlap, commit node by
// node, and issue every first attempt that cannot commit straight-line
// at once; answers fill in one edge each (resolve.go). Options.Workers is
// the width of a parallel-for over the draw and gather phases, which
// write nothing shared; the rank goroutine alone commits.
//
// Termination uses the monotonicity of the unresolved-slot count: a
// rank's count never increases once its generation loop has initiated
// every local slot, so when it hits zero the rank reports done to rank 0,
// and rank 0 broadcasts stop once every rank (itself included) has
// reported. At that instant no request or resolved message can be in
// flight (see the package tests for the argument exercised empirically).
package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"pagen/internal/ckpt"
	"pagen/internal/comm"
	"pagen/internal/esink"
	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/msg"
	"pagen/internal/obs"
	"pagen/internal/partition"
	"pagen/internal/transport"
	"pagen/internal/xrand"
)

// Options configures a parallel generation run.
type Options struct {
	// Params are the copy-model parameters.
	Params model.Params
	// Part assigns nodes to ranks. Its P() fixes the number of ranks.
	Part partition.Scheme
	// Seed keys every attachment attempt's draws (model.Drawer.Attempt).
	Seed uint64
	// Workers is the width of the batch kernel's parallel-for: the rank
	// goroutine plus Workers-1 helper goroutines draw and gather the
	// stripes of each window; the rank goroutine alone commits them
	// (batch.go). Zero or negative selects runtime.GOMAXPROCS(0); it is
	// clamped to the stripes the rank's local node count can fill. The
	// output graph is identical for every worker count.
	Workers int
	// bufferCap, when positive, replaces comm.DefaultBufferCap as the
	// per-destination message-buffer capacity (1 disables buffering).
	// Only this package's tests set it, to put every protocol message
	// in its own frame.
	bufferCap int
	// pollEvery, when positive, replaces DefaultPollEvery as the number
	// of local nodes initiated between transport polls (and checkpoint
	// trigger checks). Only this package's tests set it, to
	// cut a checkpoint mid-batch or drive the polling extremes.
	pollEvery int
	// Trace, when non-nil, receives the per-slot attachment decisions.
	// Slot ranges written by different ranks are disjoint, so a single
	// shared trace is written without locking.
	Trace *model.Trace
	// Sink, when non-nil, receives every edge instead of the engine
	// accumulating edges in memory — the paper's Section 3.5 "generate
	// networks on the fly and analyze without performing disk I/O" mode.
	// A rank hands over its edges in slot order — its nodes ascending, a
	// node's edges in edge order, the order of its range of Run's edge
	// list — each node once all its edges are final, from the same
	// frontier walk that writes a StreamDir shard. Each rank calls it from
	// one goroutine — the rank goroutine, at every worker count — so state
	// indexed by the rank argument needs no locking; state shared across
	// ranks does, because ranks run concurrently.
	Sink func(rank int, e graph.Edge)
	// StreamDir, when non-empty, streams the rank's resolved edges into
	// a sorted, CRC-protected shard file under the directory
	// (esink.ShardPath names it; docs/SHARD_FORMAT.md is the byte spec)
	// instead of accumulating them in memory, so resident memory is
	// bounded by the F table regardless of the edge count. Checkpointing
	// requires it: each cut records the shard's durable byte offset in
	// place of the F table, and a resumed run truncates the shard back
	// to it and rebuilds F from that prefix. Merging the per-rank shard
	// streams rank-major in slot-key order reproduces the in-memory
	// merged graph byte for byte. Mutually exclusive with Sink.
	StreamDir string
	// StreamBlockEdges is the edge-record count per streamed block
	// (esink.DefaultBlockEdges if zero); tests shrink it to force many
	// blocks.
	StreamBlockEdges int
	// CollectNodeLoad enables received-message-load counting (the
	// empirical M_k of Lemma 3.4) into RankStats.NodeLoad's bins. It
	// costs one bin lookup and increment per copy query, so it is
	// opt-in.
	CollectNodeLoad bool
	// HubPrefix controls the hub-prefix replica (DESIGN.md §10): the
	// rank computes the first H nodes' attachment slots itself before
	// its first window, and copy queries for them are answered locally
	// instead of crossing the wire. 0 (the default) sizes H
	// automatically to cover partition.HubPrefixAutoFrac of the expected
	// request mass; a negative value disables the replica; a positive
	// value fixes H (clamped to n). The setting is the rank's own: ranks
	// may differ, and a resume may change it. The output graph is
	// identical for every setting.
	HubPrefix int64
	// Checkpoint, when non-nil, enables rank-local checkpoint/restart
	// (see CheckpointOptions and DESIGN.md §9). It requires StreamDir,
	// which Run fills in under Checkpoint.Dir when it is empty.
	// Incompatible with Sink, Trace and CollectNodeLoad, whose side
	// effects are not captured by a snapshot: a resumed rank regenerates
	// only the nodes above its mark, so its load bins would miss every
	// query a node below the mark issued.
	Checkpoint *CheckpointOptions
	// Resolve selects how copy queries for remote-owned slots resolve
	// (DESIGN.md §11): ResolveWire (the default) sends the paper's
	// request/resolved round trip; ResolveRecompute replays the owning
	// node's attempts locally and only falls back to the wire past
	// the depth cap DefaultRecomputeDepth(n). All ranks of a run must use
	// the same setting (checkpoint snapshots pin it). The output graph is
	// byte-identical in both modes.
	Resolve ResolveMode
	// recomputeDepth, when positive, replaces DefaultRecomputeDepth(n)
	// as the replay-chain cap. Only this package's tests set it, to force
	// the wire fallback at small n.
	recomputeDepth int
	// Transport selects the in-process transport Run wires the ranks
	// with: "shm" (the default — co-located ranks hand message batches
	// across by reference, no serialization) or "local" (every frame
	// runs through the v3 codec; the serialization ablation). RunRank
	// ignores it — callers that build their own endpoints (pa-tcp, the
	// simulated-network tests) pass whatever transport they constructed.
	Transport string
}

// DefaultPollEvery is the generation-loop polling interval: local nodes
// initiated between transport polls (and checkpoint trigger checks); a
// window never straddles a poll point. A single rank without
// checkpointing has nothing to poll for and does not poll. DESIGN.md
// §8.6 has the sweep behind the value.
const DefaultPollEvery = 256

// RankStats are one rank's load and traffic statistics — the measurements
// behind Figures 5-7.
type RankStats struct {
	Rank  int
	Nodes int64
	Edges int64
	// Comm is the traffic snapshot (logical messages and frames).
	Comm comm.Counters
	// Retries counts duplicate-edge retries (both decision points).
	Retries int64
	// QueuedWaits counts requests that arrived before their slot
	// resolved and had to wait in a Q_{k,l} queue.
	QueuedWaits int64
	// LocalWaits counts copy attachments whose source was local but
	// unresolved (same-rank dependency-chain waits).
	//
	// Retries, QueuedWaits and LocalWaits count work, not the model. On
	// a resumed rank each is the cut's total, carried in the snapshot,
	// plus the work the rank redid regenerating the nodes above its
	// mark, some of which the cut had already counted. So a resumed
	// run's Retries is at least the model's retry count, not equal to it
	// (DESIGN.md §9.4).
	LocalWaits int64
	// RequestsTo is the per-destination request count — this rank's row
	// of the request-traffic matrix (strictly lower-triangular under
	// consecutive partitioning, Section 4.6.2).
	RequestsTo []int64
	// MaxPendingSlots is the largest number of local slots that were
	// simultaneously waiting on resolutions — the empirical counterpart
	// of the Section 3.4 claim that waiting never idles a processor.
	MaxPendingSlots int64
	// MaxSuspended is the high-water count of the rank's unfinished
	// initiated nodes, which the run-ahead cap keeps at or under
	// RunAheadNodes; RunAheadStalls counts the windows the cap deferred
	// (DESIGN.md §12.1).
	MaxSuspended   int64
	RunAheadStalls int64
	// WaitChain is the histogram of Q_{k,l} waiter-queue lengths
	// observed as each local slot resolved (0 = nobody was waiting).
	// Theorem 3.3's O(log n) dependency-chain bound keeps it shallow.
	WaitChain obs.Histogram
	// NodeLoad is this rank's share of the empirical M_k of Lemma 3.4,
	// binned by the global target node k: Wire counts the queries this
	// rank received for its own nodes (from peers or from itself),
	// Elided the queries its hub replica answered for any rank's node,
	// and Nodes the rank's own nodes per bin. The ranks' bins sum to the
	// run's curve. Nil unless Options.CollectNodeLoad was set.
	NodeLoad *obs.LoadBins
	// HubCacheHits counts remote copy queries answered by the hub
	// replica. HubCacheMisses and ReqCoalesced are always zero: the
	// replica is complete before the first query, so no prefix query
	// misses and none rides another's request. They stay until the
	// benchmark, which reads them, lets go of them.
	HubCacheHits   int64
	HubCacheMisses int64
	ReqCoalesced   int64
	// RecomputeResolved counts remote copy queries resolved by local
	// stream replay (recompute mode); RecomputeFallback counts replays
	// that hit the depth cap and fell back to the wire protocol.
	// ReplayedEdges counts attachment values committed to the rank's
	// replay memo table.
	RecomputeResolved int64
	RecomputeFallback int64
	ReplayedEdges     int64
	// ReplayDepth is the histogram of replay chain depths (nodes
	// replayed per resolved query, 0 = answered from local state or the
	// memo) — the empirical counterpart of the Theorem 3.3 O(log n)
	// chain-depth bound the recompute mode's viability rests on.
	ReplayDepth obs.Histogram
	// Steals is always zero: the engine no longer moves node spans
	// between goroutines. The field stays until the benchmark's
	// ladder.L2_steals row, which reads it, is dropped.
	Steals int64
	// BusyTime is wall time minus time spent blocked waiting for
	// messages.
	BusyTime time.Duration
	// WallTime is the rank's total engine time.
	WallTime time.Duration
	// CkptEpochs counts the checkpoint epochs this rank published;
	// CkptFailed counts those whose background publish failed (shard
	// fsync, snapshot write or prune). CkptBytes is the snapshot bytes
	// the rank's background writer published, CkptWriteTime the time it
	// spent publishing (shard fsync + encode + CRC + write + fsync +
	// rename + prune, off the pause path), and CkptPauseTime the total
	// generation pause across epochs (frontier write + block flush + any
	// wait for the writer's queue; the publish overlaps generation).
	CkptEpochs    int64
	CkptFailed    int64
	CkptBytes     int64
	CkptWriteTime time.Duration
	CkptPauseTime time.Duration
	// CkptPauseHist / CkptWriteHist are the per-epoch distributions of
	// the generation pause and the background publish.
	CkptPauseHist obs.Histogram
	CkptWriteHist obs.Histogram
	// Streaming edge-sink counters (StreamDir runs only): blocks
	// flushed and bytes written to the rank's shard file, and the
	// fsync count and cumulative fsync stall behind checkpoint cuts
	// and the final close.
	SinkBlocks    int64
	SinkBytes     int64
	SinkFsyncs    int64
	SinkFsyncTime time.Duration
	// TCP says who moved the bytes on a TCP transport: frames drained by
	// the engine's own polls against frames that waited for a reader
	// goroutine, readiness probes and their hits, and inline writes that
	// found the peer's socket buffer full. Zero on other transports.
	TCP transport.TCPStats
}

// Metrics converts the rank's statistics into the exported obs form.
func (s RankStats) Metrics() obs.RankMetrics {
	return obs.RankMetrics{
		Rank:              s.Rank,
		Nodes:             s.Nodes,
		Edges:             s.Edges,
		RequestsSent:      s.Comm.RequestsSent,
		RequestsRecv:      s.Comm.RequestsRecv,
		ResolvedSent:      s.Comm.ResolvedSent,
		ResolvedRecv:      s.Comm.ResolvedRecv,
		ControlSent:       s.Comm.ControlSent,
		ControlRecv:       s.Comm.ControlRecv,
		FramesSent:        s.Comm.FramesSent,
		FramesRecv:        s.Comm.FramesRecv,
		BytesSent:         s.Comm.BytesSent,
		BytesRecv:         s.Comm.BytesRecv,
		Retries:           s.Retries,
		QueuedWaits:       s.QueuedWaits,
		LocalWaits:        s.LocalWaits,
		HubCacheHit:       s.HubCacheHits,
		RecomputeResolved: s.RecomputeResolved,
		RecomputeFallback: s.RecomputeFallback,
		ReplayedEdges:     s.ReplayedEdges,
		ReplayDepth:       s.ReplayDepth,
		MaxPendingSlots:   s.MaxPendingSlots,
		MaxSuspended:      s.MaxSuspended,
		RunAheadStalls:    s.RunAheadStalls,
		TotalLoad:         s.TotalLoad(),
		WallNanos:         s.WallTime.Nanoseconds(),
		BusyNanos:         s.BusyTime.Nanoseconds(),
		WaitChain:         s.WaitChain,
		CkptEpochs:        s.CkptEpochs,
		CkptFailed:        s.CkptFailed,
		CkptBytes:         s.CkptBytes,
		CkptWriteNanos:    s.CkptWriteTime.Nanoseconds(),
		CkptPauseNanos:    s.CkptPauseTime.Nanoseconds(),
		CkptPausePerEpoch: s.CkptPauseHist,
		CkptWritePerEpoch: s.CkptWriteHist,
		SinkBlocks:        s.SinkBlocks,
		SinkBytes:         s.SinkBytes,
		SinkFsyncs:        s.SinkFsyncs,
		SinkFsyncNanos:    s.SinkFsyncTime.Nanoseconds(),
		TCPFramesInline:   s.TCP.FramesInline,
		TCPFramesReader:   s.TCP.FramesReader,
		TCPProbes:         s.TCP.Probes,
		TCPProbeHits:      s.TCP.ProbeHits,
		TCPWriteStalls:    s.TCP.WriteStalls,
	}
}

// TotalLoad returns the paper's Section 4.6 load measure for the rank:
// nodes plus incoming plus outgoing data messages.
func (s RankStats) TotalLoad() int64 {
	return s.Nodes +
		s.Comm.RequestsSent + s.Comm.ResolvedSent +
		s.Comm.RequestsRecv + s.Comm.ResolvedRecv
}

// RankResult is one rank's output.
type RankResult struct {
	Stats RankStats
	// Edges are the edges whose higher endpoint (the attaching node) is
	// owned by this rank, in local-index order; the union over ranks is
	// the graph, and ranks 0..p-1 concatenated is Run's Result.Graph.
	// RunRank allocates them exactly sized; under Run they are the rank's
	// range of Result.Graph's edge list. Nil when a Sink or StreamDir
	// took the edges.
	Edges []graph.Edge
}

// engine is the per-rank state machine. Everything in it belongs to the
// rank goroutine; the only state another goroutine touches is a helper
// lane's own scratch (worker, batch.go) and, read-only between a window's
// hand-off and its barrier, f.
type engine struct {
	opts Options
	rank int
	p    int
	x    int
	x64  int64
	// seed and prob are hoisted from opts so the generation loop reads
	// them without chasing the Options struct per node.
	seed uint64
	prob float64
	// stream is the external-memory edge sink (Options.StreamDir); nil
	// when edges accumulate in memory or go to Sink.
	stream *esink.Writer
	part   partition.Scheme
	tr     transport.Transport
	cm     *comm.Comm
	trace  *model.Trace

	size int64 // local node count

	// f holds F_t(e) at slot part.Index(rank,t)*x + e; get reads -1 for
	// NILL. Each slot is written exactly once (NILL -> v), between
	// windows. A slot takes w = bits.Len64(n) bits (ftab.go); an
	// in-memory rank keeps the table in the tail of edges.
	f ftab
	// load counts copy queries by the target node's bin (the rank's
	// RankStats.NodeLoad); nil unless CollectNodeLoad.
	load *obs.LoadBins

	// hub is the computed hub-prefix replica; nil when disabled (single
	// rank, p = 1, or Options.HubPrefix < 0).
	hub *hubCache

	// recompute selects the recomputation resolver (Options.Resolve),
	// depthCap is the effective replay-chain cap, and memo the
	// rank-level replay memo table (DESIGN.md §11).
	recompute bool
	depthCap  int
	memo      map[int64]*replayEntry

	// The batch kernel's lanes (batch.go): workers[0] is the rank
	// goroutine's, the rest have helper goroutines between startHelpers
	// and stopHelpers. gathered is the window barrier, helpers the helper
	// goroutines' exit.
	workers  []*worker
	gathered sync.WaitGroup
	helpers  sync.WaitGroup

	waiters waiterTable
	susp    suspTable
	ahead   aheadArena // susp.go
	// rng draws the rank goroutine's attempts.
	rng xrand.Rand

	// unresolved counts the rank's still-NILL slots.
	unresolved int64
	// cursor is the next local index the generation pass will visit; a
	// checkpoint pause stops the pass and a later pass continues from
	// here.
	cursor int64
	// poll is the generation-loop polling interval and sincePoll the
	// nodes initiated since the last poll.
	poll      int
	sincePoll int
	// pendingWaiters tracks the current and maximum number of queued
	// waiter entries across all local queues.
	pendingWaiters    int64
	maxPendingWaiters int64
	// err latches the first send or sink error raised below the loops
	// that can return it.
	err error

	// edges is the rank's output, written from f by collectEdges after
	// the protocol ends when no sink streams them: the rank's range of
	// Run's one edge list, or a list bootstrap allocates. Until then its
	// tail holds f (hostedFtab).
	edges []graph.Edge
	// frontier is a streamed or Sink rank's lowest NILL slot; every slot
	// below it has gone to the shard or the Sink (streamFrontier).
	// cliqueSlots ends the slots of the local clique nodes, which lead the
	// local order.
	frontier, cliqueSlots int64
	// reqs is handleBatch's gather scratch: the slot and F value of every
	// request in the batch being handled.
	reqs    []reqSlot
	stats   RankStats
	blocked time.Duration

	// coordinator state.
	doneFlag  bool
	doneRanks int
	stopped   bool

	// Checkpoint/restart state (nil ck disables the whole machinery).
	ck *ckptRun
	// ckTrig gates the per-node initiated counter and the epoch trigger:
	// set only with a trigger interval, so a rank without one pays
	// nothing in the loop.
	ckTrig bool
}

// RunRank executes one rank of the parallel algorithm over the given
// transport endpoint. All ranks of the mesh must run concurrently. It is
// the building block Run composes for in-process execution and cmd/pa-tcp
// uses for genuine multi-process runs.
func RunRank(tr transport.Transport, opts Options) (*RankResult, error) {
	return runRank(tr, opts, nil)
}

// runRank is RunRank writing the rank's edges into out, its all-zero
// range of Run's one edge list; a nil out has bootstrap allocate the
// list.
func runRank(tr transport.Transport, opts Options, out []graph.Edge) (*RankResult, error) {
	e, err := newEngine(tr, opts)
	if err != nil {
		return nil, err
	}
	e.edges = out
	// On any failure past this point the shard file keeps its durable
	// prefix (no end-of-stream record) for a later Recover. The snapshot
	// writer drains first — it may still hold the stream for a shard
	// fsync.
	fail := func(err error) (*RankResult, error) {
		if e.ck != nil {
			e.ck.writer.shutdown()
		}
		if e.stream != nil {
			e.stream.Abort()
		}
		return nil, err
	}
	var snap *ckpt.Snapshot
	if opts.Checkpoint != nil && opts.Checkpoint.Resume {
		if snap, err = e.resumeSnapshot(); err != nil {
			return fail(err)
		}
	}
	// The rank's own snapshot decides its shard's fate: a resumed rank
	// truncates it back to the snapshot's durable mark (restore), a fresh
	// one discards whatever an earlier attempt left.
	if e.stream != nil && snap == nil {
		if err := e.stream.Reset(); err != nil {
			return fail(err)
		}
	}
	if err := e.run(snap); err != nil {
		return fail(err)
	}
	if e.ck != nil {
		// Drain the background writer before stats (and before the
		// stream closes — the writer may fsync it).
		e.ck.writer.shutdown()
	}
	if e.opts.Sink == nil && e.stream == nil {
		if err := e.collectEdges(); err != nil {
			return nil, err
		}
	}
	if err := e.streamFrontier(); err != nil {
		return fail(err)
	}
	if e.stream != nil {
		if err := e.stream.Close(); err != nil {
			return nil, err
		}
	}
	e.finishStats()
	return &RankResult{Stats: e.stats, Edges: e.edges}, nil
}

// checkParams is the model's Validate plus the engine's own limit, MaxN.
func checkParams(pr model.Params) error {
	if pr.N > MaxN {
		return fmt.Errorf("core: n = %d exceeds core.MaxN = 2⁵⁷−1, the largest node count the packed F table holds", pr.N)
	}
	return pr.Validate()
}

// newEngine validates opts and builds the per-rank state machine.
func newEngine(tr transport.Transport, opts Options) (*engine, error) {
	if err := checkParams(opts.Params); err != nil {
		return nil, err
	}
	if opts.Part == nil {
		return nil, fmt.Errorf("core: nil partition scheme")
	}
	if opts.Part.N() != opts.Params.N {
		return nil, fmt.Errorf("core: partition over %d nodes but params have n = %d", opts.Part.N(), opts.Params.N)
	}
	if opts.Part.P() != tr.Size() {
		return nil, fmt.Errorf("core: partition has %d ranks but transport has %d", opts.Part.P(), tr.Size())
	}

	rank := tr.Rank()
	size := opts.Part.Size(rank)
	// A lane the node range can never hand a stripe to is not built.
	nw := opts.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if most := size / minStripeNodes; int64(nw) > most {
		nw = int(max(most, 1))
	}
	stripe := batchNodes
	if nw > 1 {
		stripe = stripeNodes
	}

	e := &engine{
		opts:  opts,
		rank:  rank,
		p:     tr.Size(),
		x:     opts.Params.X,
		x64:   int64(opts.Params.X),
		seed:  opts.Seed,
		prob:  opts.Params.P,
		part:  opts.Part,
		tr:    tr,
		cm:    comm.New(tr, comm.Config{BufferCap: opts.bufferCap}),
		trace: opts.Trace,
		size:  size,
	}
	e.workers = make([]*worker, nw)
	for i := range e.workers {
		e.workers[i] = newWorker(stripe, e.x)
	}
	e.waiters.init(size * e.x64)
	e.susp.init()
	e.ahead.x = e.x
	switch opts.Resolve {
	case ResolveWire:
	case ResolveRecompute:
		e.recompute = true
		e.depthCap = opts.recomputeDepth
		if e.depthCap <= 0 {
			e.depthCap = DefaultRecomputeDepth(opts.Params.N)
		}
		e.memo = make(map[int64]*replayEntry)
	default:
		return nil, fmt.Errorf("core: unknown resolve mode %d", int(opts.Resolve))
	}
	if h := hubPrefixLen(opts.Params, e.p, opts.HubPrefix); h > 0 {
		e.hub = newHubCache(h, e.x64, opts.Params.N)
	}
	if c := opts.Checkpoint; c != nil {
		switch {
		case c.Dir == "":
			return nil, fmt.Errorf("core: checkpointing requires a directory")
		case c.Every < 0:
			return nil, fmt.Errorf("core: negative checkpoint interval %d", c.Every)
		case opts.Sink != nil:
			return nil, fmt.Errorf("core: checkpointing is incompatible with a streaming sink (already-streamed edges cannot be unsent on restart)")
		case opts.Trace != nil:
			return nil, fmt.Errorf("core: checkpointing is incompatible with tracing")
		case opts.CollectNodeLoad:
			return nil, fmt.Errorf("core: checkpointing is incompatible with node-load collection")
		case opts.StreamDir == "":
			// The marked shard prefix is a snapshot's only source of F.
			return nil, fmt.Errorf("core: checkpointing requires Options.StreamDir (the shard is the checkpoint's attachment table)")
		}
		e.ck = &ckptRun{every: c.Every, nextTrigger: c.Every}
		e.ckTrig = c.Every > 0
	}
	// A single rank without checkpointing has nothing to poll for, so
	// unless a test pins the interval its windows are not cut to one.
	e.poll = opts.pollEvery
	if e.poll <= 0 {
		e.poll = DefaultPollEvery
		if e.p == 1 && e.ck == nil {
			e.poll = math.MaxInt
		}
	}
	// The stream writer opens last so earlier validation failures never
	// leave a file handle behind. The file's existing contents survive
	// until RunRank's Reset/Recover decision.
	if opts.StreamDir != "" {
		if opts.Sink != nil {
			return nil, fmt.Errorf("core: StreamDir and Sink are mutually exclusive")
		}
		w, err := esink.Open(opts.StreamDir, esink.Meta{
			N:      opts.Params.N,
			X:      opts.Params.X,
			P:      opts.Params.P,
			Seed:   opts.Seed,
			Rank:   rank,
			Ranks:  e.p,
			Scheme: opts.Part.Name(),
		}, opts.StreamBlockEdges)
		if err != nil {
			return nil, err
		}
		e.stream = w
	}
	// The background snapshot writer starts last: it holds the stream
	// handle (shard fsync before snapshot rename) and nothing can fail
	// past this point, so the goroutine never leaks on a construction
	// error.
	if c := opts.Checkpoint; c != nil {
		keep := c.Keep
		if keep == 0 {
			keep = DefaultCheckpointKeep
		}
		e.ck.writer = newCkptWriter(c.Dir, rank, max(keep, 2), e.stream)
	}
	return e, nil
}

// locate returns the rank owning node k and, when that is this rank,
// k's local index. A single rank owns every node at index k under every
// scheme, which spares one-rank runs the partition's interface calls
// and divisions.
func (e *engine) locate(k int64) (owner int, kidx int64) {
	if e.p == 1 {
		return 0, k
	}
	owner = e.part.Owner(k)
	if owner == e.rank {
		kidx = e.part.Index(e.rank, k)
	}
	return owner, kidx
}

// run generates the rank's nodes and serves its peers until stop, from
// snap's mark when it is non-nil.
func (e *engine) run(snap *ckpt.Snapshot) error {
	start := time.Now()
	defer func() {
		e.stats.WallTime = time.Since(start)
		e.stats.BusyTime = e.stats.WallTime - e.blocked
		if e.stats.BusyTime < 0 {
			e.stats.BusyTime = 0
		}
	}()

	e.bootstrap()
	if snap != nil {
		if err := e.restore(snap); err != nil {
			return err
		}
	}
	if e.hub != nil {
		e.hub.fill(e.opts.Params, e.seed)
	}

	e.startHelpers()
	defer e.stopHelpers()

	e.generate()
	if e.err != nil {
		return e.err
	}

	// All local slots initiated. From here unresolved is monotone.
	if err := e.maybeReportDone(); err != nil {
		return err
	}
	for !e.stopped {
		if err := e.serve(); err != nil {
			return err
		}
		if err := e.maybeReportDone(); err != nil {
			return err
		}
	}
	return nil
}

// serve is one turn of a rank that starts no nodes: block for a frame
// and handle what has arrived, advance the shard, check the checkpoint
// trigger.
func (e *engine) serve() error {
	if err := e.drain(true); err != nil {
		return err
	}
	if err := e.streamFrontier(); err != nil {
		return err
	}
	return e.ckptStep()
}

// bootstrap builds the F table, marks the slots of locally-owned clique
// nodes, fixes node x's attachments if x is local, and counts the slots
// left to resolve. An in-memory rank's table lives in the tail of its
// own output range (hostedFtab), which RunRank's rank allocates here; a
// streamed or sink run has no range, so its table stands alone.
func (e *engine) bootstrap() {
	if e.opts.Sink == nil && e.stream == nil && e.edges == nil {
		e.edges = make([]graph.Edge, rankEdges(e.part, e.rank, e.x))
	}
	e.f = hostedFtab(e.edges, e.size*e.x64, e.opts.Params.N)
	if e.opts.CollectNodeLoad {
		e.load = obs.NewLoadBins(e.opts.Params.N, e.x)
		// The rank's nodes ascend with their local index, so its count
		// below an edge is a binary search over NodeAt.
		below := func(k int64) int64 {
			return int64(sort.Search(int(e.size), func(i int) bool { return e.part.NodeAt(e.rank, int64(i)) >= k }))
		}
		for i := range e.load.Nodes {
			e.load.Nodes[i] = below(e.load.Edges[i+1]) - below(e.load.Edges[i])
		}
	}
	i := int64(0)
	e.part.ForEach(e.rank, func(t int64) {
		idx := i
		i++
		switch {
		case t < e.x64:
			// Clique node: its edges are its backward clique edges, not
			// attachments (mark its slots resolved so they never count).
			base := idx * e.x64
			for edge := 0; edge < e.x; edge++ {
				e.f.set(base+int64(edge), t) // self-marker; never queried
			}
			e.cliqueSlots = base + e.x64
		case t == e.x64:
			base := idx * e.x64
			for edge := 0; edge < e.x; edge++ {
				v, _ := e.opts.Params.BootstrapF(t, edge)
				e.f.set(base+int64(edge), v)
				if e.trace != nil {
					e.trace.RecordBootstrap(t, edge)
				}
			}
		default:
			e.unresolved += e.x64
		}
	})
}

// streamFrontier advances a streamed or Sink rank's frontier — the first
// slot of its first unfinished node — past every finished node and hands
// their edges to the shard or the Sink, in slot order. A node commits its
// edges in order, so its last slot being final means all of them are. A
// clique node t's slots all hold t (bootstrap's self-marker); its edges
// are (t, j) for j < t. The frontier moves by whole nodes, so a cut's
// mark always ends on a node boundary (DESIGN.md §9.5). Called between
// windows, before a cut's mark and at the rank's end; a no-op for an
// in-memory rank.
func (e *engine) streamFrontier() error {
	sink := e.opts.Sink
	if e.stream == nil && sink == nil {
		return nil
	}
	x, end := e.x64, e.f.len()
	for s := e.frontier; s < end && e.f.get(s+x-1) >= 0; s += x {
		var t int64
		if sink != nil {
			t = e.part.NodeAt(e.rank, s/x)
		}
		for j := int64(0); j < x; j++ {
			v := e.f.get(s + j)
			if s < e.cliqueSlots {
				if j >= v {
					continue
				}
				v = j
			}
			if sink != nil {
				sink(e.rank, graph.Edge{U: t, V: v})
			} else if err := e.stream.Emit(uint64(s+j), v); err != nil {
				return err
			}
		}
		e.frontier = s + x
	}
	return nil
}

// rankEdges is the number of edges rank r emits: x per owned node,
// except that a clique node t < x has only its t backward clique edges.
// It is known from the partition alone, so Run cuts its one edge list
// into the ranks' ranges before any rank starts.
func rankEdges(part partition.Scheme, r, x int) int64 {
	m := part.Size(r) * int64(x)
	for t := 0; t < x; t++ {
		if part.Owner(int64(t)) == r {
			m -= int64(x - t)
		}
	}
	return m
}

// collectEdges writes the rank's edge list from the resolved F table in
// increasing node order, which keeps the order-sensitive single-rank
// fingerprints independent of the resolution schedule. The list is the
// rank's precomputed range of Run's one edge list, or the one bootstrap
// allocated; a rank whose nodes fill a different count fails rather
// than leave zero edges in the graph or write into a neighbour's range.
//
// The table is usually the last L = ⌊(S−1)w/8⌋ + 8 bytes of that same
// list (S slots of w bits, E = S − d edges, d the clique deficit;
// hostedFtab), and this loop expands it in place. Every scheme's NodeAt
// is increasing in idx, so the clique nodes come first and a non-clique
// slot s lands in edge s − d, whose write ends at byte 16(s − d + 1),
// while slot s + 1's first bit lies in byte 16E − L + ⌊(s + 1)w/8⌋. The
// first is ≤ the second when L ≤ 16(S − s − 1) + ⌊(s + 1)w/8⌋, whose
// right side falls as s grows (w ≤ 57: each step takes 16 and adds at
// most 8), so the last pair s = S − 2 is the tightest: L ≤ 16 +
// ⌊(S−1)w/8⌋, which holds with 8 bytes to spare. No write reaches a
// slot not yet read (slot s itself is read before its edge is stored;
// the bits a read takes beside its slot are masked off). The clique
// edges written first end at byte 16(cx − d) for c owned clique nodes,
// at or before the first non-clique slot's byte 16E − L + ⌊cx·w/8⌋, the
// same inequality at s = cx − 1 (DESIGN.md §8.5).
func (e *engine) collectEdges() error {
	edges, f := e.edges, e.f
	n := int64(0)
	for idx := int64(0); idx < e.size; idx++ {
		t := e.part.NodeAt(e.rank, idx)
		if t < e.x64 {
			if n+t <= int64(len(edges)) {
				for j := int64(0); j < t; j++ {
					edges[n+j] = graph.Edge{U: t, V: j}
				}
			}
			n += t
			continue
		}
		if n+e.x64 <= int64(len(edges)) {
			dst, base := edges[n:n+e.x64], idx*e.x64
			for i := range dst {
				dst[i] = graph.Edge{U: t, V: f.get(base + int64(i))}
			}
		}
		n += e.x64
	}
	if n != int64(len(edges)) {
		return fmt.Errorf("core: rank %d produced %d edges but its range of the edge list holds %d", e.rank, n, len(edges))
	}
	return nil
}

// finishStats completes the rank's statistics from the engine and the
// communicator.
func (e *engine) finishStats() {
	e.stats.Rank = e.rank
	e.stats.Nodes = e.size
	switch {
	case e.stream != nil:
		// The shard file is the ground truth: across a resume its
		// durable prefix already holds edges this process never emitted.
		st := e.stream.Stats()
		e.stats.Edges = st.Edges
		e.stats.SinkBlocks = st.BlocksFlushed
		e.stats.SinkBytes = st.BytesWritten
		e.stats.SinkFsyncs = st.Fsyncs
		e.stats.SinkFsyncTime = time.Duration(st.FsyncNanos)
	default:
		e.stats.Edges = rankEdges(e.part, e.rank, e.x)
	}
	e.stats.Comm = e.cm.Counters()
	if ts, ok := e.tr.(interface{ Stats() transport.TCPStats }); ok {
		e.stats.TCP = ts.Stats()
	}
	// The engine owns its Comm and never sends again, so take the live
	// counts instead of copying them.
	e.stats.RequestsTo = e.cm.RequestsToView()
	e.stats.MaxPendingSlots = e.maxPendingWaiters
	e.stats.NodeLoad = e.load
	if ck := e.ck; ck != nil {
		e.stats.CkptPauseTime = time.Duration(ck.pauseNanos)
		e.stats.CkptPauseHist = ck.pauseHist
		// The writer is drained (RunRank shuts it down before stats), so
		// these are final; the lock is just the memory fence.
		ck.writer.mu.Lock()
		e.stats.CkptEpochs = ck.writer.epochs
		e.stats.CkptFailed = ck.writer.failed
		e.stats.CkptBytes = ck.writer.bytes
		e.stats.CkptWriteTime = time.Duration(ck.writer.writeNanos)
		e.stats.CkptWriteHist = ck.writer.writeHist
		ck.writer.mu.Unlock()
	}
}

// generate advances the generation cursor until the node range is
// exhausted or an error latches. A window that would take the rank's
// unfinished nodes past RunAheadNodes waits for catchUp.
func (e *engine) generate() {
	for e.cursor < e.size && e.err == nil {
		if live := int64(e.susp.live); live > 0 {
			if n, _ := e.window(); live+n > RunAheadNodes {
				e.catchUp(n)
				continue
			}
		}
		e.initiate()
		if live := int64(e.susp.live); live > e.stats.MaxSuspended {
			e.stats.MaxSuspended = live
		}
		if err := e.streamFrontier(); err != nil && e.err == nil {
			e.err = err
		}
		if e.sincePoll >= e.poll {
			e.sincePoll = 0
			if err := e.drain(false); err != nil && e.err == nil {
				e.err = err
			}
			if err := e.ckptStep(); err != nil && e.err == nil {
				e.err = err
			}
		}
	}
}

// catchUp defers a window of n nodes while the rank's unfinished nodes
// and the window's would number more than RunAheadNodes, and serves
// instead, as the post-generation loop does, until they would not or an
// error latches. A rank with no suspended node never waits here, which
// is what keeps the cap from deadlocking the run (DESIGN.md §12.1).
func (e *engine) catchUp(n int64) {
	e.stats.RunAheadStalls++
	for live := int64(e.susp.live); live > 0 && live+n > RunAheadNodes && e.err == nil; live = int64(e.susp.live) {
		if err := e.serve(); err != nil {
			e.err = err
		}
	}
}

// drain processes incoming frames, one at a time where they landed,
// until none is immediately available — after blocking for the first
// when block is set. Before blocking it flushes all send buffers (the
// Section 3.5.2 rule generalised: nothing may linger while we sleep).
func (e *engine) drain(block bool) error {
	var ms []msg.Message
	var err error
	if block {
		if err = e.cm.FlushAll(); err != nil {
			return err
		}
		t0 := time.Now()
		ms, err = e.cm.Wait()
		e.blocked += time.Since(t0)
	} else {
		ms, err = e.cm.Poll()
	}
	for ; err == nil && len(ms) > 0; ms, err = e.cm.Poll() {
		if err := e.handleBatch(ms); err != nil {
			return err
		}
		if e.err != nil {
			return e.err
		}
		// A stopped rank receives no more: the run is complete, and a
		// peer that took stop may already be closing its end of the
		// transport, which a further read could report as an error.
		if e.stopped {
			break
		}
	}
	if err != nil {
		return err
	}
	// Answers generated while processing these frames must not wait for
	// the next blocking point (paper rule: resolved messages are sent
	// out after processing every group).
	return e.cm.FlushAll()
}

// reqSlot is a gathered request: the local slot it asks for and that
// slot's F value when the batch was gathered.
type reqSlot struct{ s, v int64 }

// handleBatch routes a received batch in order. Its requests are served
// from a gather: every request's slot is computed, then all their F
// values are loaded in one tight loop, so the random misses overlap
// instead of each request stalling on its own — the window kernel's
// gather (batch.go) on the receive side. A gathered value >= 0 is final
// (slots are write-once); serveRequest re-reads a gathered -1, because
// an earlier message of the batch may have resolved the slot.
func (e *engine) handleBatch(ms []msg.Message) error {
	g := e.reqs[:0]
	for i := range ms {
		if ms[i].Kind == msg.KindRequest {
			g = append(g, reqSlot{s: e.part.Index(e.rank, ms[i].K)*e.x64 + int64(ms[i].L)})
		}
	}
	for i := range g {
		g[i].v = e.f.get(g[i].s)
	}
	e.reqs = g
	for i := range ms {
		if ms[i].Kind == msg.KindRequest {
			e.serveRequest(ms[i], g[0].s, g[0].v)
			g = g[1:]
			continue
		}
		if err := e.handle(ms[i]); err != nil {
			return err
		}
	}
	return nil
}

// handle routes one received message other than a request.
func (e *engine) handle(m msg.Message) error {
	switch m.Kind {
	case msg.KindResolved:
		e.resume(m.T, e.part.Index(e.rank, m.T), int(m.E), m.V)
	case msg.KindDone:
		if e.rank != 0 {
			return fmt.Errorf("core: rank %d received done message", e.rank)
		}
		e.doneRanks++
		return e.maybeBroadcastStop()
	case msg.KindStop:
		e.stopped = true
	default:
		return fmt.Errorf("core: unexpected message kind %v", m.Kind)
	}
	return nil
}

// maybeReportDone sends the rank's done report once all local slots are
// resolved. Safe to call repeatedly; reports once. Rank 0 short-circuits
// the self-send.
func (e *engine) maybeReportDone() error {
	if e.unresolved != 0 || e.doneFlag {
		return nil
	}
	e.doneFlag = true
	if e.rank == 0 {
		e.doneRanks++
		return e.maybeBroadcastStop()
	}
	return e.cm.SendNow(0, msg.Done(e.rank))
}

// maybeBroadcastStop (rank 0) broadcasts stop once every rank reported.
func (e *engine) maybeBroadcastStop() error {
	if e.doneRanks < e.p || e.stopped {
		return nil
	}
	for r := 1; r < e.p; r++ {
		if err := e.cm.SendNow(r, msg.Stop()); err != nil {
			return err
		}
	}
	e.stopped = true
	return nil
}
