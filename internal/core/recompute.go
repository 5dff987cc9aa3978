package core

import (
	"fmt"
	"math/bits"
)

// ResolveMode selects how a rank resolves a copy source owned by a
// remote rank.
type ResolveMode int

const (
	// ResolveWire is the paper's protocol: a <request> message to the
	// owning rank, answered by a <resolved> message (Algorithm 3.2
	// lines 14-20).
	ResolveWire ResolveMode = iota
	// ResolveRecompute replays the owning node's attempts locally
	// instead of sending a request (the recomputation idea of
	// Sanders & Schulz, "Scalable Generation of Scale-free Graphs"):
	// every attachment is a pure function of (n, x, p, seed), so the
	// copy chain t -> k -> F_k(l) -> ... can be chased without
	// communication. Chains deeper than the configured cap fall back
	// to the wire protocol. The output graph is byte-identical to
	// ResolveWire at every rank and worker count.
	ResolveRecompute
)

// String returns the mode's flag spelling.
func (m ResolveMode) String() string {
	switch m {
	case ResolveWire:
		return "wire"
	case ResolveRecompute:
		return "recompute"
	default:
		return fmt.Sprintf("ResolveMode(%d)", int(m))
	}
}

// ParseResolveMode parses a -resolve flag value.
func ParseResolveMode(s string) (ResolveMode, error) {
	switch s {
	case "wire":
		return ResolveWire, nil
	case "recompute":
		return ResolveRecompute, nil
	default:
		return 0, fmt.Errorf("core: unknown resolve mode %q (want wire or recompute)", s)
	}
}

// DefaultRecomputeDepth returns the replay-chain cap of an n-node run:
// twice the Theorem 3.3 O(log n) chain-depth bound (with a small
// floor), so virtually every chain replays to termination while a
// pathological one still falls back to the wire protocol instead of
// recomputing an unbounded prefix of the graph.
func DefaultRecomputeDepth(n int64) int {
	d := 2 * bits.Len64(uint64(n))
	if d < 8 {
		d = 8
	}
	return d
}

// replayEntry memoizes one node's replayed attachment values: vals has
// fixed length x, of which the first done are committed. The rank's memo
// table (engine.memo) maps node ids to entries: copy chains started by
// different nodes overlap heavily on the low-id prefix (preferential
// attachment concentrates copy sources there), and the memo is what
// makes each chain suffix replay once per rank rather than once per
// query.
type replayEntry struct {
	vals []int64
	done int
}

// memoEntry returns node k's memo entry, creating it on first use.
func (e *engine) memoEntry(k int64) *replayEntry {
	ent := e.memo[k]
	if ent == nil {
		ent = &replayEntry{vals: make([]int64, e.x)}
		e.memo[k] = ent
	}
	return ent
}

// replayCtx tracks one top-level replay invocation: the current chain
// depth (nodes being replayed on the stack), the maximum depth reached,
// and the number of attachment values committed to memo entries.
type replayCtx struct {
	depth int
	max   int
	edges int64
}

// replayF resolves F_k(l) by local recomputation. The chain terminates
// without replaying at the bootstrap rule (node x), a locally resolved
// slot, a hub-replica hit, or a memo hit; otherwise the node's attempts
// are replayed forward. ok is false when the chain exceeded the depth
// cap; committed memo state is kept, so a later retry resumes where
// this one stopped.
func (e *engine) replayF(k int64, l int, ctx *replayCtx) (v int64, ok bool) {
	// Bootstrap: node x attaches to every clique node, F_x(l) = l.
	// Copy sources are always drawn from [x, t), so k >= x here.
	if k == e.x64 {
		return int64(l), true
	}
	if owner, kidx := e.locate(k); owner == e.rank {
		if v = e.f.get(kidx*e.x64 + int64(l)); v >= 0 {
			return v, true
		}
		// Not resolved here yet; replay it like a remote node. The memo
		// entry is a pure cache — e.f is only ever written by
		// resolveSlot.
	} else if hub := e.hub; hub != nil && k < hub.h {
		if v = hub.f.get(k*e.x64 + int64(l)); v >= 0 {
			return v, true
		}
	}
	ent := e.memoEntry(k)
	if ent.done > l {
		return ent.vals[l], true
	}
	return e.replayExtend(ent, k, l, ctx)
}

// replayExtend replays node k's attempts forward until edge l commits.
// The recursion follows the chain, which is strictly decreasing in node
// id (copy sources are drawn from [x, k)), so it never re-enters the
// entry it is extending. An attempt is a pure function of its index, so
// a depth-cap abort leaves nothing to undo: the next try re-issues the
// uncommitted edge's attempts from its first.
func (e *engine) replayExtend(ent *replayEntry, k int64, l int, ctx *replayCtx) (int64, bool) {
	if ctx.depth >= e.depthCap {
		return 0, false
	}
	ctx.depth++
	if ctx.depth > ctx.max {
		ctx.max = ctx.depth
	}
	defer func() { ctx.depth-- }()

	d := e.opts.Params.NewDrawer(k)
	for edge := ent.done; edge <= l; edge++ {
		for r := 0; ; r++ {
			a := d.Attempt(&e.rng, e.seed, edge, r)
			v := a.K
			if !a.Direct {
				var ok bool
				if v, ok = e.replayF(a.K, a.L, ctx); !ok {
					return 0, false
				}
			}
			// Duplicate-avoidance retry (Algorithm 3.2 lines 7/22).
			if contains(ent.vals[:edge], v) {
				continue
			}
			ent.vals[edge] = v
			ent.done = edge + 1
			ctx.edges++
			break
		}
	}
	return ent.vals[l], true
}

// replayRemote is query's entry point: resolve F_k(l) by
// recomputation, recording the chain-depth and replayed-edge metrics.
// On failure (depth cap) the caller falls back to the wire protocol.
func (e *engine) replayRemote(k int64, l int) (int64, bool) {
	var ctx replayCtx
	v, ok := e.replayF(k, l, &ctx)
	e.stats.ReplayedEdges += ctx.edges
	if !ok {
		e.stats.RecomputeFallback++
		return 0, false
	}
	e.stats.RecomputeResolved++
	e.stats.ReplayDepth.Observe(int64(ctx.max))
	return v, true
}
