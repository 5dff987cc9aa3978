package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pagen/internal/esink"
	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/obs"
	"pagen/internal/transport"
)

// Result is the output of an in-process parallel run.
type Result struct {
	// Graph is the output graph: ranks 0..p-1's edges in rank-major
	// order, each rank's in local-index order. Run allocates its edge
	// list once, exactly sized from the partition, and every rank writes
	// its own range of it — there is no per-rank copy and no merge. Nil
	// when Options.Sink streams the edges instead, or when
	// Options.StreamDir spills them to per-rank shard files. A
	// checkpointed run without a StreamDir reads it back from the shards
	// it streamed under Checkpoint.Dir.
	Graph *graph.Graph
	// Ranks holds per-rank statistics, indexed by rank.
	Ranks []RankStats
	// NodeLoad is the run's binned received-message load (Lemma 3.4's
	// M_k): the ranks' RankStats.NodeLoad summed bin by bin. Nil unless
	// Options.CollectNodeLoad was set.
	NodeLoad *obs.LoadBins
	// Trace is the decision trace when Options.Trace was requested via
	// Run's recordTrace flag (nil otherwise).
	Trace *model.Trace
	// Elapsed is the wall time of the parallel section (allocating the
	// edge list, rank launch to last rank finish), the T_p of the paper's
	// speedup measurements.
	Elapsed time.Duration
}

// Run executes the parallel algorithm with every rank as a goroutine over
// the in-process transport, each writing its edges into its own range of
// one edge list. The number of ranks is opts.Part.P(). If recordTrace is
// set, a shared decision trace is collected (rank slot ranges are
// disjoint, so the trace is written race-free).
func Run(opts Options, recordTrace bool) (*Result, error) {
	if err := checkParams(opts.Params); err != nil {
		return nil, err
	}
	if opts.Part == nil {
		return nil, fmt.Errorf("core: nil partition scheme")
	}
	// An unusable shard directory fails here, before any rank starts and
	// before any shard file exists.
	if opts.StreamDir != "" {
		if err := os.MkdirAll(opts.StreamDir, 0o755); err != nil {
			return nil, fmt.Errorf("core: stream dir: %w", err)
		}
	}
	// A checkpoint needs a shard to stand for F, so a checkpointed run
	// without a StreamDir streams under the checkpoint directory and
	// reads Result.Graph back from the shards, byte-identical to the
	// in-memory merge (DESIGN.md §12.2).
	merged := ""
	if c := opts.Checkpoint; c != nil && c.Dir != "" && opts.StreamDir == "" {
		merged = filepath.Join(c.Dir, "shards")
		opts.StreamDir = merged
	}
	p := opts.Part.P()
	// Endpoint picks one rank's endpoint regardless of the concrete
	// group type; both in-process groups expose it.
	var endpoint func(r int) transport.Transport
	var closeEndpoint func(r int)
	switch opts.Transport {
	case "", "shm":
		// Default: the shared-memory transport hands message batches
		// across co-located ranks by reference — no per-message codec.
		group, err := transport.NewShmGroup(p)
		if err != nil {
			return nil, err
		}
		endpoint = func(r int) transport.Transport { return group.Endpoint(r) }
		closeEndpoint = func(r int) { group.Endpoint(r).Close() }
	case "local":
		// Serialization ablation: same process, but every batch goes
		// through the byte codec exactly as it would on a wire.
		group, err := transport.NewLocalGroup(p)
		if err != nil {
			return nil, err
		}
		endpoint = func(r int) transport.Transport { return group.Endpoint(r) }
		closeEndpoint = func(r int) { group.Endpoint(r).Close() }
	default:
		return nil, fmt.Errorf("core: unknown transport %q (in-process runs accept \"shm\" or \"local\")", opts.Transport)
	}
	if recordTrace {
		opts.Trace = model.NewTrace(opts.Params)
	}

	results := make([]*RankResult, p)
	errs := make([]error, p)
	start := time.Now()
	// An in-memory run's ranks write straight into the graph: rank r's
	// range of the one edge list starts after ranks 0..r-1's edge counts,
	// which the partition fixes before any rank runs, and the tail of
	// that range holds the rank's F table until collectEdges expands it
	// in place. The list is the run's output, so allocating (and zeroing)
	// it counts in Elapsed.
	var edges []graph.Edge
	ranges := make([][]graph.Edge, p)
	if opts.Sink == nil && opts.StreamDir == "" {
		off := make([]int64, p+1)
		for r := 0; r < p; r++ {
			off[r+1] = off[r] + rankEdges(opts.Part, r, opts.Params.X)
		}
		edges = make([]graph.Edge, off[p])
		for r := range ranges {
			ranges[r] = edges[off[r]:off[r+1]:off[r+1]]
		}
	}
	// A failed rank's peers block on receives that will never be
	// satisfied; closing every endpoint turns those into ErrClosed so
	// the whole run unwinds instead of deadlocking on wg.Wait.
	var closeOnce sync.Once
	abort := func() {
		closeOnce.Do(func() {
			for r := 0; r < p; r++ {
				closeEndpoint(r)
			}
		})
	}
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = runRank(endpoint(r), opts, ranges[r])
			if errs[r] != nil {
				abort()
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Prefer a root-cause error over the ErrClosed cascade the abort
	// broadcast induces in the other ranks.
	for r, err := range errs {
		if err != nil && !errors.Is(err, transport.ErrClosed) {
			return nil, fmt.Errorf("core: rank %d: %w", r, err)
		}
	}
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: rank %d: %w", r, err)
		}
	}

	ranks := make([]RankStats, p)
	var emitted int64
	for r, rr := range results {
		ranks[r] = rr.Stats
		emitted += rr.Stats.Edges
	}
	res := &Result{
		Ranks:   ranks,
		Trace:   opts.Trace,
		Elapsed: elapsed,
	}
	if opts.CollectNodeLoad {
		res.NodeLoad = obs.NewLoadBins(opts.Params.N, opts.Params.X)
		for _, st := range ranks {
			res.NodeLoad.Add(st.NodeLoad)
		}
	}
	if emitted != opts.Params.M() {
		return nil, fmt.Errorf("core: generated %d edges, want %d", emitted, opts.Params.M())
	}
	if merged != "" {
		g, err := esink.ReadGraph(merged, p)
		if err != nil {
			return nil, fmt.Errorf("core: read back %s: %w", merged, err)
		}
		res.Graph = g
	}
	if edges != nil {
		res.Graph = &graph.Graph{N: opts.Params.N, Edges: edges}
	}
	return res, nil
}
