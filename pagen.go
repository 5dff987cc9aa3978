// Package pagen generates massive scale-free networks with the
// preferential-attachment (Barabási–Albert) model, using the
// distributed-memory parallel algorithms of Alam, Khan & Marathe
// (SC'13): an exact parallelisation of the copy model with
// request/resolved message resolution of attachment dependencies, and
// the UCP / LCP / RRP node-partitioning schemes.
//
// Quick start:
//
//	res, err := pagen.Generate(pagen.Config{N: 1_000_000, X: 4, Ranks: 8})
//	if err != nil { ... }
//	fmt.Println(res.Graph.M(), "edges")
//
// The parallel engine runs its ranks as goroutines over an in-process
// message-passing runtime by default; see cmd/pa-tcp for genuine
// multi-process distributed-memory execution over TCP. A rank that
// writes its edges to disk — Config.StreamDir here, every pa-tcp rank
// there — writes one compressed, CRC-checked shard file of its own;
// ReadStreamDir merges a run's shards into the in-memory run's graph.
package pagen

import (
	"errors"
	"io"
	"math/bits"
	"sync/atomic"

	"pagen/internal/analysis"
	"pagen/internal/core"
	"pagen/internal/esink"
	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/obs"
	"pagen/internal/partition"
	"pagen/internal/runcfg"
	"pagen/internal/seq"
	"pagen/internal/xrand"
)

// Re-exported result and graph types. These alias the implementation
// types so the internal packages remain the single source of truth.
type (
	// Graph is an undirected graph stored as an edge list.
	Graph = graph.Graph
	// Edge is one undirected edge.
	Edge = graph.Edge
	// CSR is a compressed-sparse-row adjacency view of a Graph.
	CSR = graph.CSR
	// Result is the output of a parallel generation run: the merged
	// graph, per-rank statistics and (optionally) the decision trace.
	Result = core.Result
	// RankStats are one rank's load and traffic statistics.
	RankStats = core.RankStats
	// Trace records per-slot attachment decisions for chain analysis.
	Trace = model.Trace
	// DegreeReport summarises a network's degree distribution,
	// including the fitted power-law exponent.
	DegreeReport = analysis.DegreeReport
	// Params are the raw copy-model parameters.
	Params = model.Params
	// Partition assigns nodes to ranks (UCP, LCP, RRP or ExactCP).
	Partition = partition.Scheme
	// RunMetrics is the JSON-exportable metric set of one run (see
	// internal/obs for the metric definitions and paper counterparts).
	RunMetrics = obs.RunMetrics
)

// DefaultP is the copy probability at which the model is exactly
// Barabási–Albert.
const DefaultP = model.DefaultP

// errCheckpointStreaming rejects checkpoint configuration on
// GenerateStream: snapshots capture buffered engine state, and edges
// already handed to a sink cannot be rewound on resume.
var errCheckpointStreaming = errors.New("pagen: checkpointing is incompatible with streaming generation (use Generate)")

// Config describes a run: Generate's argument, and the same settings
// both CLIs' shared flags and a pa-serve job spec carry (its JSON tags
// name the spec's keys). Its fields are documented on runcfg.Config.
type Config = runcfg.Config

// Generate runs the parallel preferential-attachment generator and
// returns the merged graph with per-rank statistics.
func Generate(cfg Config) (*Result, error) {
	opts, err := runcfg.Options(cfg)
	if err != nil {
		return nil, err
	}
	return core.Run(opts, cfg.RecordTrace)
}

// GenerateSeq runs the sequential copy model — the T_s baseline of the
// paper's speedup measurements. A trace is returned when
// cfg.RecordTrace is set. Ranks/Scheme are ignored.
func GenerateSeq(cfg Config) (*Graph, *Trace, error) {
	pr, err := cfg.Params()
	if err != nil {
		return nil, nil, err
	}
	return seq.CopyModel(pr, cfg.Seed, seq.CopyModelOptions{RecordTrace: cfg.RecordTrace})
}

// GenerateBA runs the sequential Batagelj–Brandes algorithm (exact BA,
// ignores cfg.P). It is the classic efficient sequential baseline.
func GenerateBA(cfg Config) (*Graph, error) {
	pr, err := cfg.Params()
	if err != nil {
		return nil, err
	}
	return seq.BatageljBrandes(pr, xrand.New(cfg.Seed))
}

// Analyze computes the degree report of a generated graph. dmin is the
// power-law tail cutoff; 0 selects 2*X heuristically from the mean
// degree.
func Analyze(g *Graph, dmin int64) (DegreeReport, error) {
	if dmin <= 0 {
		dmin = int64(g.DegreeHistogram().Mean())
		if dmin < 1 {
			dmin = 1
		}
	}
	return analysis.AnalyzeDegrees(g, dmin)
}

// ChainLengths computes per-slot dependency-chain lengths from a trace
// (Section 3.4 of the paper; Theorem 3.3 bounds these by O(log n)).
func ChainLengths(tr *Trace) []int32 {
	return analysis.DependencyChainLengths(tr)
}

// NewPartition constructs a partitioning scheme by name for external
// inspection (sizes, owners, expected loads).
func NewPartition(scheme string, n int64, ranks int) (Partition, error) {
	kind, err := partition.ParseKind(scheme)
	if err != nil {
		return nil, err
	}
	return partition.New(kind, n, ranks)
}

// GenerateStream runs the parallel generator but streams every edge to
// sink instead of materialising the graph — the paper's "generate on
// the fly and analyze without disk I/O" mode. Each rank hands over its
// edges in its slot order, a node's once all of them are final: the
// sequence rank r delivers is rank r's range of Generate's edge list,
// edge for edge. Each rank calls sink from one goroutine, whatever
// Workers is, so a sink that dispatches on rank needs no locking; ranks
// run concurrently, so state shared across ranks does. The returned
// Result has a nil Graph; per-rank stats are still collected.
func GenerateStream(cfg Config, sink func(rank int, e Edge)) (*Result, error) {
	if cfg.Checkpointed() {
		return nil, errCheckpointStreaming
	}
	opts, err := runcfg.Options(cfg)
	if err != nil {
		return nil, err
	}
	opts.Sink = sink
	return core.Run(opts, cfg.RecordTrace)
}

// ReadStreamDir materialises the merged graph of a streamed run
// (Config.StreamDir, or pa-tcp -stream-dir) from its per-rank shard
// files. The edge order is identical to the Result.Graph an in-memory
// run produces. This loads the whole edge list — for graphs too large
// for that (the reason the run streamed in the first place), iterate
// the shards out of core instead: cmd/pa-analyze -stream-dir computes
// degree statistics and fingerprints in bounded memory.
func ReadStreamDir(dir string, ranks int) (*Graph, error) {
	return esink.ReadGraph(dir, ranks)
}

// Metrics assembles the exported observability record of a completed
// run: per-rank counters and wait-chain histograms, plus — when cfg set
// CollectNodeLoad — the binned received-message-load curve with
// the Lemma 3.4 prediction (1-p)(H_{n-1} - H_k) per slot alongside.
// Write it with its WriteFile or WriteJSON method (cmd/pagen's -metrics
// flag does).
func Metrics(res *Result, cfg Config) *RunMetrics {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil
	}
	m := runcfg.Metrics(cfg)
	m.ElapsedNanos = res.Elapsed.Nanoseconds()
	for _, st := range res.Ranks {
		m.PerRank = append(m.PerRank, st.Metrics())
	}
	if res.NodeLoad != nil {
		curve := obs.BinNodeLoad(res.NodeLoad, cfg.N, cfg.X, cfg.P)
		m.NodeLoad = &curve
	}
	return m
}

// ReadMetricsJSON parses a metrics record previously written with
// RunMetrics.WriteJSON (for example by pagen -metrics or pa-tcp
// -metrics).
func ReadMetricsJSON(r io.Reader) (*RunMetrics, error) {
	return obs.ReadJSON(r)
}

// EdgesPerSecond is a convenience for throughput reporting. It works for
// both materialised and streamed (GenerateStream) results.
func EdgesPerSecond(res *Result) float64 {
	if res.Elapsed <= 0 {
		return 0
	}
	var m int64
	if res.Graph != nil {
		m = res.Graph.M()
	} else {
		for _, st := range res.Ranks {
			m += st.Edges
		}
	}
	return float64(m) / res.Elapsed.Seconds()
}

// DegreesStreamed computes the degree sequence of a run without ever
// materialising the edge list: ranks stream edges into a shared counter
// array with atomic increments. Peak memory is 8n bytes instead of ~16m
// — the difference between fitting and not fitting a dense (large x)
// network in RAM, the constraint the paper's Section 4.3 hit at 6x10^9
// edges.
func DegreesStreamed(cfg Config) ([]int64, *Result, error) {
	pr, err := cfg.Params()
	if err != nil {
		return nil, nil, err
	}
	deg := make([]int64, pr.N)
	res, err := GenerateStream(cfg, func(rank int, e Edge) {
		atomic.AddInt64(&deg[e.U], 1)
		atomic.AddInt64(&deg[e.V], 1)
	})
	if err != nil {
		return nil, nil, err
	}
	return deg, res, nil
}

// MemoryEstimate returns the approximate peak bytes of heap the
// in-process parallel generator needs for cfg — the sizing question the
// paper's Section 4.3 raises (their sequential C++ implementation capped
// out at 6x10^9 edges for memory reasons). An in-memory run holds the
// one edge list every rank writes its own range of (16 bytes per edge,
// allocated exactly sized and never copied): each rank's attachment
// table (w = bits.Len64(N) bits per slot) lives in the unused tail of
// its range until the edges overwrite it. With StreamDir the edge term
// vanishes and the run holds the whole tables, ⌈S·w/8⌉ bytes for S
// slots, plus each rank's open block: a block
// header and ⌈StreamBlockEdges·w/8⌉ bytes of w-bit values,
// esink.BufferBytes, the buffer esink.Open allocates. A checkpointed run
// without StreamDir streams too and also holds the edge list it reads
// back. Every rank adds core.RankStateBytes — a bit per slot, the hub
// replica and the protocol state the run-ahead cap keeps to W·x
// outstanding queries a rank (W = core.RunAheadNodes) — plus a small
// fixed overhead, which also covers a checkpoint's few-hundred-byte
// snapshots;
// the optional decision trace adds 13 bytes per slot. A tier-1 test
// holds a run's cumulative allocation, not just its peak, under this
// figure at 1 and 2 ranks, in memory, streamed and checkpointed, under
// RRP and UCP.
func MemoryEstimate(cfg Config) int64 {
	pr, err := cfg.Params()
	if err != nil {
		return 0
	}
	ranks := int64(max(cfg.Ranks, 1))
	slots := (pr.N - int64(pr.X)) * int64(pr.X)
	var est int64
	if cfg.StreamDir != "" || cfg.CheckpointDir != "" {
		est += (slots*int64(bits.Len64(uint64(pr.N)))+7)/8 + ranks*esink.BufferBytes(pr.N, cfg.StreamBlockEdges) // the tables, open shard blocks
	}
	if cfg.StreamDir == "" {
		est += pr.M() * 16 // the edge list, in memory or read back
	}
	if cfg.RecordTrace {
		est += slots * 13
	}
	est += ranks * core.RankStateBytes(pr, int(ranks), cfg.HubPrefix)
	est += ranks << 17 // buffers, per-rank bookkeeping
	return est
}

// Version identifies the library release.
const Version = "1.0.0"
