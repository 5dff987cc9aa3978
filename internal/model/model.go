// Package model defines the preferential-attachment copy-model semantics
// shared by the sequential baselines (internal/seq) and the parallel
// engine (internal/core): parameter validation, the bootstrap rules the
// paper leaves implicit, and the derived edge counts.
//
// Bootstrap rules (see DESIGN.md "Substitutions"):
//
//   - Nodes are labelled 0..n-1. The initial network is a clique on
//     0..x-1; clique node t contributes edges (t, j) for j < t, so each
//     clique edge is emitted exactly once, by its higher endpoint.
//   - Node x, for which the paper's draw range [x, t-1] is empty,
//     connects to every clique node: F_x(e) = e.
//   - Node t > x draws k uniformly from [x, t-1] per Algorithm 3.2; with
//     probability p it attaches to k directly, otherwise it copies
//     F_k(l) for a uniform l in [0, x-1].
//
// Under these rules every outgoing attachment F_t(e) satisfies
// F_t(e) < t (no self-loops, acyclic attachment), and the graph has
// exactly x(x-1)/2 + (n-x)*x edges.
package model

import (
	"errors"
	"fmt"
	"math/bits"

	"pagen/internal/xrand"
)

// DefaultP is the copy probability at which the copy model coincides with
// the Barabási–Albert model (Section 3.1 of the paper).
const DefaultP = 0.5

// Params are the copy-model parameters.
type Params struct {
	// N is the number of nodes, labelled 0..N-1.
	N int64
	// X is the number of edges each non-clique node contributes
	// (the paper's x; BA's m parameter).
	X int
	// P is the probability of a direct attachment (Eqn 1); 1-P is the
	// probability of copying (Eqn 2). P = 0.5 gives exact BA.
	P float64
}

// Validate checks the parameters. N must leave at least one generating
// node after the clique (N > X), X >= 1, and P in [0, 1]. P = 0 is
// rejected for X > 1: a pure-copy process can deadlock node x+1, whose
// only direct candidate is excluded (and the paper's analysis assumes
// p > 0 for chain termination).
func (pr Params) Validate() error {
	if pr.X < 1 {
		return fmt.Errorf("model: x = %d, want >= 1", pr.X)
	}
	if pr.N <= int64(pr.X) {
		return fmt.Errorf("model: n = %d must exceed x = %d", pr.N, pr.X)
	}
	// Written so that NaN, for which every comparison is false, fails.
	if !(pr.P >= 0 && pr.P <= 1) {
		return fmt.Errorf("model: p = %v outside [0,1]", pr.P)
	}
	if pr.P == 0 && pr.X > 1 {
		return errors.New("model: p = 0 with x > 1 can livelock duplicate retries")
	}
	if pr.P == 1 && pr.X > 1 {
		// Node x+1 must place x distinct edges but its only direct
		// candidate is node x itself; without the copy branch the
		// duplicate-avoidance retry of Algorithm 3.2 never terminates.
		return errors.New("model: p = 1 with x > 1 cannot place distinct edges for node x+1")
	}
	return nil
}

// M returns the total number of edges the model produces:
// the clique's x(x-1)/2 plus x per node from x to n-1.
func (pr Params) M() int64 {
	x := int64(pr.X)
	return x*(x-1)/2 + (pr.N-x)*x
}

// CliqueEdgeCount returns the number of clique edges node t contributes
// (t edges, to each smaller-labelled clique node) if t is a clique node,
// else 0.
func (pr Params) CliqueEdgeCount(t int64) int64 {
	if t < int64(pr.X) {
		return t
	}
	return 0
}

// IsClique reports whether t is one of the initial clique nodes.
func (pr Params) IsClique(t int64) bool { return t < int64(pr.X) }

// BootstrapF returns F_t(e) for the nodes whose attachments are fixed by
// the bootstrap rather than drawn: node x attaches to every clique node
// (F_x(e) = e). ok is false for any other node.
func (pr Params) BootstrapF(t int64, e int) (v int64, ok bool) {
	if t == int64(pr.X) {
		return int64(e), true
	}
	return 0, false
}

// KRange returns the half-open interval [lo, hi) from which node t draws
// its uniform candidate k (Algorithm 3.2 line 4: [x, t-1] inclusive).
// It panics if t has no draw range (clique nodes and node x).
func (pr Params) KRange(t int64) (lo, hi int64) {
	if t <= int64(pr.X) {
		panic(fmt.Sprintf("model: node %d has no draw range (x = %d)", t, pr.X))
	}
	return int64(pr.X), t
}

// Attempt is one attachment attempt of Algorithm 3.2: the drawn
// candidate k, whether the attachment is direct (line 6), and — for the
// copy branch (line 11) — the copied slot index l.
type Attempt struct {
	K      int64
	L      int
	Direct bool
}

// Drawer draws node t's attachment attempts, hoisting the draw-range
// arithmetic out of the retry loop. The sequential copy model, the
// parallel engine's kernel and its recompute resolver all draw through
// it, so they can never disagree about an attempt.
type Drawer struct {
	lo   int64 // x, the draw range's start and the copy range's end
	span uint64
	cut  uint64 // ⌈p·2⁵³⌉: a draw u is direct when u>>11 < cut, which is Float64() < p
	id   uint64 // t·x, the counter block of edge 0
}

// NewDrawer returns the drawer for node t. Like KRange it panics if t
// has no draw range (clique nodes and node x).
func (pr Params) NewDrawer(t int64) Drawer {
	x := int64(pr.X)
	if t <= x {
		panic(errNoDrawRange) // a constant, so that NewDrawer inlines
	}
	// p·2⁵³ is exact, and the 53-bit integer u>>11 lies below it
	// exactly when it lies below its ceiling.
	y := pr.P * 0x1p53
	cut := uint64(y)
	if float64(cut) < y {
		cut++
	}
	return Drawer{lo: x, span: uint64(t - x), cut: cut, id: uint64(t * x)}
}

var errNoDrawRange = errors.New("model: NewDrawer for a node without a draw range")

// Next draws one attachment attempt from rng: k, then the direct test,
// then l for copies.
func (d *Drawer) Next(rng *xrand.Rand) Attempt {
	k := d.lo + int64(rng.Uint64n(d.span))
	if rng.Uint64()>>11 < d.cut { // rng.Float64() < p
		return Attempt{K: k, Direct: true}
	}
	return Attempt{K: k, L: int(rng.Uint64n(uint64(d.lo)))}
}

// retryKey spreads a retry count over the seed's bits (an odd constant,
// so distinct counts give distinct keys).
const retryKey = 0xd1b54a32d192ed03

// Attempt draws attempt r (0 first, then one per duplicate retry) of the
// node's edge e under seed: counter block t·x + e of a keyed stream — the
// seed for first attempts, a mix of (seed, r) for retries. An attempt is
// therefore a pure function of (seed, t, e, r), drawable in any order:
// no attempt's bits depend on how many draws came before it.
func (d *Drawer) Attempt(rng *xrand.Rand, seed uint64, e, r int) Attempt {
	if r > 0 {
		seed ^= uint64(r) * retryKey
		seed = xrand.SplitMix64(&seed)
	}
	rng.SeedAt(seed, d.id+uint64(e))
	return d.Next(rng)
}

// Skip returns the drawer of node t + dt, for dt >= 0: a caller walking
// a rank's nodes, which lie dt apart, steps its drawer along.
func (d Drawer) Skip(dt int64) Drawer {
	d.span += uint64(dt)
	d.id += uint64(dt) * uint64(d.lo)
	return d
}

// Block is the counter block attempt 0 of the node's edge e reads:
// Attempt(rng, seed, e, 0) draws from xrand.Pair(seed, d.Block(e)) on.
func (d Drawer) Block(e int) uint64 { return d.id + uint64(e) }

// First is the first-attempt kernel: from a and b, the first two draws
// of the edge's block (xrand.Pair(seed, d.Block(e))), it returns
// exactly Attempt(rng, seed, e, 0)'s K and Direct — the candidate is a
// scaled by Lemire's multiply, the direct test b — with ok set. ok is
// false, and k and direct meaningless, when Lemire's method may reject
// a (the product's low word below the span: about span/2⁶⁴ of all
// draws); the caller then draws the attempt through Attempt. Both
// halves inline, so a loop over a block's records draws without a call.
func (d Drawer) First(a, b uint64) (k int64, direct, ok bool) {
	hi, lo := bits.Mul64(a, d.span)
	return d.lo + int64(hi), b>>11 < d.cut, lo >= d.span
}
