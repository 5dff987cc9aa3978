// Package core implements the paper's contribution: the distributed-memory
// parallel preferential-attachment generator (Algorithms 3.1 and 3.2).
//
// Each processor rank owns a partition of the node set and computes the
// attachments F_t(e) for its nodes with the copy model, into its F table:
// one slot per (node, edge), holding F_t(e)+1 in 4 bytes so that zero is
// NILL — 8 bytes only when n exceeds 2³²−1 (ftab.go). Direct
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
// and suspension tables, the send buffers, the sink and the checkpoint
// capture. Attempt r of node t's edge e — duplicate retries
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
	"sync"
	"time"

	"pagen/internal/ckpt"
	"pagen/internal/coll"
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
	// of local nodes initiated between transport polls (and
	// checkpoint-protocol steps). Only this package's tests set it, to
	// cut a checkpoint mid-batch or drive the polling extremes.
	pollEvery int
	// Trace, when non-nil, receives the per-slot attachment decisions.
	// Slot ranges written by different ranks are disjoint, so a single
	// shared trace is written without locking.
	Trace *model.Trace
	// Sink, when non-nil, receives every edge as it is finalised
	// instead of the engine accumulating edges in memory — the paper's
	// Section 3.5 "generate networks on the fly and analyze without
	// performing disk I/O" mode. Each rank calls it from one goroutine —
	// the rank goroutine, at every worker count — so state indexed by the
	// rank argument needs no locking; state shared across ranks does,
	// because ranks run concurrently.
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
	// CollectNodeLoad enables per-node received-message-load counting
	// (the empirical M_k of Lemma 3.4) in RankStats.NodeLoad. It costs
	// one counter increment per copy query plus 8 bytes per local node,
	// so it is opt-in.
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
	// Checkpoint, when non-nil, enables cooperative checkpoint/restart
	// (see CheckpointOptions and DESIGN.md §9). It requires StreamDir,
	// which Run fills in under Checkpoint.Dir when it is empty.
	// Incompatible with Sink, Trace and CollectNodeLoad, whose side
	// effects are not captured by a snapshot.
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
// initiated between transport polls (and checkpoint-protocol steps); a
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
	LocalWaits int64
	// RequestsTo is the per-destination request count — this rank's row
	// of the request-traffic matrix (strictly lower-triangular under
	// consecutive partitioning, Section 4.6.2).
	RequestsTo []int64
	// MaxPendingSlots is the largest number of local slots that were
	// simultaneously waiting on resolutions — the empirical counterpart
	// of the Section 3.4 claim that waiting never idles a processor.
	MaxPendingSlots int64
	// WaitChain is the histogram of Q_{k,l} waiter-queue lengths
	// observed as each local slot resolved (0 = nobody was waiting).
	// Theorem 3.3's O(log n) dependency-chain bound keeps it shallow.
	WaitChain obs.Histogram
	// NodeLoad is the per-local-node received-message load — the
	// empirical M_k of Lemma 3.4, indexed by the partition's local node
	// index. Nil unless Options.CollectNodeLoad was set. With the hub
	// cache on it counts only queries that reached this rank over the
	// wire (or locally); elided queries appear in HubElided on the
	// requesting rank.
	NodeLoad []int64
	// HubElided counts copy queries answered without a request, by
	// global target node k < H: the replica hits.
	// Load the owner never saw — the Lemma 3.4 comparison needs
	// NodeLoad + HubElided (summed across ranks). Nil unless both
	// CollectNodeLoad and the hub cache were on.
	HubElided []int64
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
	// CkptEpochs counts committed checkpoint epochs; CkptFailed counts
	// abandoned ones (some rank's capture or background publish failed).
	// CkptBytes is the snapshot bytes this rank's background writer
	// published, CkptWriteTime the time it spent publishing them
	// (encode + CRC + write + fsync + rename + prune, off the pause
	// path), and CkptPauseTime the total generation pause across epochs
	// (quiescence wait + capture; the publish overlaps generation).
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

// NodeLoadSamples expands a rank's local NodeLoad counters into global
// (node id, load) samples using the partition that ran the rank.
// Clique nodes (k < x, never queried) are included with their zero
// loads so the samples cover the rank's whole node set.
func NodeLoadSamples(part partition.Scheme, rank int, load []int64) []obs.KLoad {
	if load == nil {
		return nil
	}
	out := make([]obs.KLoad, 0, len(load))
	i := 0
	part.ForEach(rank, func(u int64) {
		if i < len(load) {
			out = append(out, obs.KLoad{K: u, Load: load[i]})
		}
		i++
	})
	return out
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
	// seed, prob and sink are hoisted from opts so the generation loop
	// reads them without chasing the Options struct per node.
	seed uint64
	prob float64
	sink func(rank int, e graph.Edge)
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
	// windows. A slot takes 4 bytes unless n > math.MaxUint32 (ftab.go);
	// an in-memory rank keeps those 4 bytes in the tail of edges.
	f ftab
	// nodeLoad counts copy queries received per local node (indexed
	// like f, but per node not per slot); nil unless CollectNodeLoad.
	nodeLoad []int64

	// hub is the computed hub-prefix replica; nil when disabled (single
	// rank, p = 1, or Options.HubPrefix < 0). hubElided counts elided
	// queries by global node (CollectNodeLoad only).
	hub       *hubCache
	hubElided []int64

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
	// tail holds f's low plane (hostedFtab). emitted counts resolved
	// edges, bootstrap's included (emit).
	edges   []graph.Edge
	emitted int64
	// frontier is a streamed rank's lowest NILL slot; every slot below
	// it is in the shard (streamFrontier). cliqueSlots ends the slots of
	// the local clique nodes, which lead the local order.
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
	ck  *ckptRun
	seq *coll.Seq // the resume negotiation's collectives (restore.go)
	// ckTrig gates the per-node initiated counter: set only on rank 0
	// with a trigger interval, so other ranks pay nothing in the loop.
	ckTrig     bool
	resumeSnap *ckpt.Snapshot
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
	if opts.Checkpoint != nil && opts.Checkpoint.Resume {
		if err := e.negotiateResume(); err != nil {
			return fail(err)
		}
	}
	if e.stream != nil {
		// The resume negotiation decides the shard's fate: a resumed run
		// truncates it back to the snapshot's durable mark, a fresh run
		// (negotiated or not) discards whatever an earlier attempt left.
		if snap := e.resumeSnap; snap != nil {
			if err := e.stream.Recover(esink.Mark{
				Offset: snap.Sink.Offset, Blocks: snap.Sink.Blocks, Edges: snap.Sink.Edges,
			}); err != nil {
				return fail(err)
			}
		} else if err := e.stream.Reset(); err != nil {
			return fail(err)
		}
	}
	if err := e.run(); err != nil {
		return fail(err)
	}
	if e.ck != nil {
		// Drain the background writer before stats (and before the
		// stream closes — the writer may fsync it). An error surfacing
		// only now means the newest voted epoch's file never became
		// durable: uncount it. Resume negotiation would skip it anyway;
		// this keeps the reported counts honest.
		e.ck.writer.shutdown()
		if werr := e.ck.writer.takeErr(); werr != nil {
			e.ck.epochs--
			e.ck.failed++
		}
	}
	if e.sink == nil && e.stream == nil {
		if err := e.collectEdges(); err != nil {
			return nil, err
		}
	}
	if e.stream != nil {
		if err := e.streamFrontier(); err != nil {
			return fail(err)
		}
		if err := e.stream.Close(); err != nil {
			return nil, err
		}
	}
	e.finishStats()
	return &RankResult{Stats: e.stats, Edges: e.edges}, nil
}

// newEngine validates opts and builds the per-rank state machine.
func newEngine(tr transport.Transport, opts Options) (*engine, error) {
	if err := opts.Params.Validate(); err != nil {
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
		sink:  opts.Sink,
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
	// Hub-prefix replica: pointless on one rank (no wire requests) and
	// at p = 1 (no copy branch, so no requests at all). run fills it.
	if hp := opts.HubPrefix; hp >= 0 && e.p > 1 && e.prob < 1 {
		h := hp
		if h == 0 {
			h = partition.HubPrefixAutoSize(opts.Params.N, opts.Params.X, e.p)
		}
		if h > opts.Params.N {
			h = opts.Params.N
		}
		// A prefix inside the clique would never be consulted (copy
		// sources are drawn from [x, t)).
		if h > e.x64 {
			e.hub = newHubCache(h, e.x64, opts.Params.N)
		}
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
		keep := c.Keep
		if keep == 0 {
			keep = DefaultCheckpointKeep
		}
		if keep < 2 {
			keep = 2
		}
		e.ck = &ckptRun{
			dir:       c.Dir,
			every:     c.Every,
			keep:      keep,
			epochNext: 1,
			voted0:    make(map[int64]bool),
		}
		e.seq = coll.New(e.cm)
		e.ckTrig = rank == 0 && c.Every > 0
		e.ck.nextTrigger = c.Every
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
	if e.ck != nil {
		e.ck.writer = newCkptWriter(e.ck.dir, rank, e.ck.keep, e.stream)
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

func (e *engine) run() error {
	start := time.Now()
	defer func() {
		e.stats.WallTime = time.Since(start)
		e.stats.BusyTime = e.stats.WallTime - e.blocked
		if e.stats.BusyTime < 0 {
			e.stats.BusyTime = 0
		}
	}()

	e.bootstrap()
	if e.resumeSnap != nil {
		if err := e.restore(); err != nil {
			return err
		}
	}
	if e.hub != nil {
		e.hub.fill(e.opts.Params, e.seed)
	}
	// Data messages a faster peer generated while this rank was still
	// inside the resume-negotiation collectives were parked in ck.held;
	// deliver them now that the restored state they refer to exists.
	if e.ck != nil {
		if err := e.ckptFlushHeld(); err != nil {
			return err
		}
	}

	e.startHelpers()
	defer e.stopHelpers()

	for {
		done := e.generate()
		if e.err != nil {
			return e.err
		}
		if done {
			break
		}
		if err := e.ckptServe(); err != nil {
			return err
		}
	}

	// All local slots initiated. From here unresolved is monotone.
	if err := e.maybeReportDone(); err != nil {
		return err
	}
	for !e.finished() {
		if err := e.drain(true); err != nil {
			return err
		}
		if err := e.streamFrontier(); err != nil {
			return err
		}
		if err := e.ckptStep(); err != nil {
			return err
		}
		if err := e.maybeReportDone(); err != nil {
			return err
		}
	}
	return nil
}

// bootstrap builds the F table, emits clique edges for locally-owned
// clique nodes, fixes node x's attachments if x is local, and counts the
// slots left to resolve. An in-memory rank's table lives in the tail of
// its own output range (hostedFtab), which RunRank's rank allocates
// here; a streamed or sink run has no range, so its table stands alone.
func (e *engine) bootstrap() {
	if e.sink == nil && e.stream == nil && e.edges == nil {
		e.edges = make([]graph.Edge, rankEdges(e.part, e.rank, e.x))
	}
	e.f = hostedFtab(e.edges, e.size*e.x64, e.opts.Params.N)
	if e.opts.CollectNodeLoad {
		e.nodeLoad = make([]int64, e.size)
		if e.hub != nil {
			e.hubElided = make([]int64, e.hub.h)
		}
	}
	i := int64(0)
	e.part.ForEach(e.rank, func(t int64) {
		idx := i
		i++
		switch {
		case t < e.x64:
			// Clique node: emit its backward clique edges; it has no
			// attachment slots (mark them resolved so they never count).
			base := idx * e.x64
			for j := int64(0); j < t; j++ {
				e.emit(t, j)
			}
			for edge := 0; edge < e.x; edge++ {
				e.f.set(base+int64(edge), t) // self-marker; never queried
			}
			e.cliqueSlots = base + e.x64
		case t == e.x64:
			base := idx * e.x64
			for edge := 0; edge < e.x; edge++ {
				v, _ := e.opts.Params.BootstrapF(t, edge)
				e.f.set(base+int64(edge), v)
				e.emit(t, v)
				if e.trace != nil {
					e.trace.RecordBootstrap(t, edge)
				}
			}
		default:
			e.unresolved += e.x64
		}
	})
}

// streamFrontier advances a streamed rank's resolved frontier (its
// lowest NILL slot) and writes every slot it passes to the shard, in key
// order. A clique node t's slots all hold t (bootstrap's self-marker);
// its edges are (t, j) for j < t. Called between windows, before a
// cut's mark and before the shard closes; a no-op without a stream.
func (e *engine) streamFrontier() error {
	if e.stream == nil {
		return nil
	}
	s, end := e.frontier, e.f.len()
	for ; s < end; s++ {
		v := e.f.get(s)
		if v < 0 {
			break
		}
		if s < e.cliqueSlots {
			if j := s % e.x64; j < v {
				v = j
			} else {
				continue
			}
		}
		if err := e.stream.Emit(uint64(s), v); err != nil {
			e.frontier = s
			return err
		}
	}
	e.frontier = s
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
// The table's low plane is usually the last 4S bytes of that same list
// (S slots, E = S − d edges, d the clique deficit; hostedFtab), and this
// loop expands it in place. Every scheme's NodeAt is increasing in idx,
// so the clique nodes come first and a non-clique slot s lands in edge
// s − d, whose write ends at byte 16(s − d) + 16, while slot s + 1
// starts at byte 16E − 4S + 4(s + 1); the first is ≤ the second exactly
// when s ≤ S − 1, so no write reaches a slot not yet read (slot s itself
// is read before its edge is stored). The clique edges written first end
// at byte 16(cx − d) for c owned clique nodes, at or before the first
// non-clique slot's 16E − 4S + 4cx because cx ≤ S (DESIGN.md §8.5).
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
	case e.sink != nil:
		e.stats.Edges = e.emitted
	default:
		e.stats.Edges = int64(len(e.edges))
	}
	e.stats.Comm = e.cm.Counters()
	if ts, ok := e.tr.(interface{ Stats() transport.TCPStats }); ok {
		e.stats.TCP = ts.Stats()
	}
	// The engine owns its Comm and never sends again, so take the live
	// counts instead of copying them.
	e.stats.RequestsTo = e.cm.RequestsToView()
	e.stats.MaxPendingSlots = e.maxPendingWaiters
	e.stats.NodeLoad = e.nodeLoad
	e.stats.HubElided = e.hubElided
	if ck := e.ck; ck != nil {
		e.stats.CkptEpochs = ck.epochs
		e.stats.CkptFailed = ck.failed
		e.stats.CkptPauseTime = time.Duration(ck.pauseNanos)
		e.stats.CkptPauseHist = ck.pauseHist
		// The writer is drained (RunRank shuts it down before stats), so
		// these are final; the lock is just the memory fence.
		ck.writer.mu.Lock()
		e.stats.CkptBytes = ck.writer.bytes
		e.stats.CkptWriteTime = time.Duration(ck.writer.writeNanos)
		e.stats.CkptWriteHist = ck.writer.writeHist
		ck.writer.mu.Unlock()
	}
}

// generate advances the generation cursor until the node range is
// exhausted (returns true) or a checkpoint epoch pauses the run (returns
// false; ckptServe drives the epoch, then the cursor resumes exactly
// where it stopped).
func (e *engine) generate() bool {
	for e.cursor < e.size {
		if e.err != nil {
			return true
		}
		e.initiate()
		if err := e.streamFrontier(); err != nil && e.err == nil {
			e.err = err
		}
		if e.sincePoll >= e.poll {
			e.sincePoll = 0
			if err := e.drain(false); err != nil && e.err == nil {
				e.err = err
			}
			if e.ck != nil {
				if err := e.ckptStep(); err != nil && e.err == nil {
					e.err = err
				}
				if e.ck.paused {
					return false
				}
				// Yield at the poll point: with more ranks than cores a
				// compute-bound rank is otherwise preempted only on the
				// runtime's ~10ms tick, and every epoch's pause lasts
				// until the slowest rank notices the begin — the yield
				// turns that staggered pickup into a round-robin of poll
				// intervals. Free when nothing else is runnable.
				runtime.Gosched()
			}
		}
	}
	return true
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
		if e.ck != nil {
			e.ck.doneRecv++
		}
		return e.maybeBroadcastStop()
	case msg.KindStop:
		e.stopped = true
	case msg.KindCkpt:
		return e.ckptOnMsg(m)
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
// While a checkpoint epoch is active the broadcast is deferred — ranks
// mid-epoch must finish the cut — and ckptCut retries it after resuming.
// It is also deferred while any epoch's commit-vote tally is open: a
// completed tally may broadcast an abandon, which must precede stop on
// every channel (per-destination FIFO) so no rank sees rank 0's
// checkpoint traffic after it stops; ckptRecordVote retries after each
// tally. Relayed cut markers travel on peer channels and may still
// arrive after stop — every relay precedes its sender's vote, so it is
// already sent, and finished() waits for it.
func (e *engine) maybeBroadcastStop() error {
	if e.doneRanks < e.p || e.stopped {
		return nil
	}
	if e.ck != nil && (e.ck.paused || len(e.ck.votes) > 0) {
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

// finished reports whether the rank may leave its receive loop: stop has
// arrived, and so has every checkpoint cut marker owed to it (relays ride
// peer channels and can trail stop). Without the second wait, a marker
// sent to an already-stopped rank would linger on the transport and
// corrupt whatever runs over the same connections next (cmd/pa-tcp's
// post-run collectives reject non-collective traffic).
func (e *engine) finished() bool {
	return e.stopped && (e.ck == nil || e.ck.markersOwed == 0)
}
