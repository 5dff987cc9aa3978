// Package partition implements the node-partitioning schemes of the paper
// (Section 3.5, Appendix A): uniform consecutive (UCP), linear consecutive
// (LCP — the paper's arithmetic-progression approximation to the exact
// nonlinear balance equation, Eqn 10), round-robin (RRP), and the exact
// numerical solution of Eqn 10 (ExactCP) used to validate LCP (Figure 3).
//
// A Scheme answers the three questions Appendix A poses for every scheme:
// the size of each partition, the set of nodes in each partition, and —
// Criterion A of Section 3.5 — the owner of a given node in O(1) (O(log P)
// for ExactCP, which is why the paper replaces it with LCP).
package partition

import (
	"fmt"
	"math"
	"math/bits"

	"pagen/internal/stats"
)

// Scheme assigns each node in [0, n) to one of P partitions.
type Scheme interface {
	// Name returns the scheme's short name (UCP, LCP, RRP, ExactCP).
	Name() string
	// P returns the number of partitions.
	P() int
	// N returns the number of nodes.
	N() int64
	// Owner returns the partition owning node u. It panics if u is
	// outside [0, N()).
	Owner(u int64) int
	// Size returns the number of nodes in partition rank.
	Size(rank int) int64
	// ForEach calls fn for every node of partition rank in increasing
	// node order.
	ForEach(rank int, fn func(u int64))
	// Index returns the position of node u within partition rank's
	// ForEach order. It panics if u is not owned by rank. The parallel
	// engine uses it to map nodes to local attachment-slot storage.
	Index(rank int, u int64) int64
	// NodeAt is the inverse of Index: the node at position idx of
	// partition rank's ForEach order. It panics if idx is outside
	// [0, Size(rank)). The engine's resumable generation loops iterate
	// with a cursor through NodeAt instead of ForEach so a checkpoint
	// can pause and restart them at any position.
	NodeAt(rank int, idx int64) int64
}

// Consecutive is implemented by schemes whose partitions are contiguous
// node ranges.
type Consecutive interface {
	Scheme
	// Range returns the half-open node interval [lo, hi) of partition rank.
	Range(rank int) (lo, hi int64)
}

// DefaultB is the default value of the constant b = 1 + c in the paper's
// load expression (Section 3.5.1): one unit of message-processing cost
// plus c = 1 unit of fixed per-node cost.
const DefaultB = 2.0

// Kind names a partitioning scheme for construction from flags/config.
type Kind int

const (
	// KindUCP is uniform consecutive partitioning.
	KindUCP Kind = iota
	// KindLCP is linear consecutive partitioning (the paper's
	// arithmetic-progression approximation of Eqn 10).
	KindLCP
	// KindRRP is round-robin partitioning.
	KindRRP
	// KindExactCP is the exact numerical solution of Eqn 10; it violates
	// the paper's Criterion A (no constant-time owner lookup) and exists
	// for Figure 3 and as the LCP calibration source.
	KindExactCP
)

// String returns the scheme's short name.
func (k Kind) String() string {
	switch k {
	case KindUCP:
		return "UCP"
	case KindLCP:
		return "LCP"
	case KindRRP:
		return "RRP"
	case KindExactCP:
		return "ExactCP"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses a scheme name (case-sensitive short form).
func ParseKind(s string) (Kind, error) {
	switch s {
	case "UCP", "ucp":
		return KindUCP, nil
	case "LCP", "lcp":
		return KindLCP, nil
	case "RRP", "rrp":
		return KindRRP, nil
	case "ExactCP", "exactcp", "exact":
		return KindExactCP, nil
	default:
		return 0, fmt.Errorf("partition: unknown scheme %q (want UCP, LCP, RRP or ExactCP)", s)
	}
}

// New constructs a scheme of the given kind for n nodes and p partitions.
// LCP and ExactCP use the default load constant b = DefaultB.
func New(kind Kind, n int64, p int) (Scheme, error) {
	if n < 1 {
		return nil, fmt.Errorf("partition: n = %d, want >= 1", n)
	}
	if p < 1 {
		return nil, fmt.Errorf("partition: p = %d, want >= 1", p)
	}
	switch kind {
	case KindUCP:
		return NewUCP(n, p), nil
	case KindLCP:
		return NewLCP(n, p, DefaultB), nil
	case KindRRP:
		return NewRRP(n, p), nil
	case KindExactCP:
		return NewExactCP(n, p, DefaultB), nil
	default:
		return nil, fmt.Errorf("partition: unknown kind %v", kind)
	}
}

func checkNode(n int64, u int64) {
	if u < 0 || u >= n {
		panic(fmt.Sprintf("partition: node %d outside [0,%d)", u, n))
	}
}

func checkRank(p int, rank int) {
	if rank < 0 || rank >= p {
		panic(fmt.Sprintf("partition: rank %d outside [0,%d)", rank, p))
	}
}

// ---------------------------------------------------------------------------
// UCP — Appendix A.1

// UCP is uniform consecutive partitioning: B = ceil(n/P) nodes per
// partition, partition i holding [iB, (i+1)B) clamped to n.
type UCP struct {
	n int64
	p int
	b int64 // block size ceil(n/p)
}

// NewUCP returns a uniform consecutive partitioning of n nodes into p parts.
func NewUCP(n int64, p int) *UCP {
	return &UCP{n: n, p: p, b: (n + int64(p) - 1) / int64(p)}
}

// Name implements Scheme.
func (u *UCP) Name() string { return "UCP" }

// P implements Scheme.
func (u *UCP) P() int { return u.p }

// N implements Scheme.
func (u *UCP) N() int64 { return u.n }

// Owner implements Scheme: rank = floor(u / B).
func (u *UCP) Owner(node int64) int {
	checkNode(u.n, node)
	return int(node / u.b)
}

// Range implements Consecutive.
func (u *UCP) Range(rank int) (lo, hi int64) {
	checkRank(u.p, rank)
	lo = int64(rank) * u.b
	hi = lo + u.b
	if lo > u.n {
		lo = u.n
	}
	if hi > u.n {
		hi = u.n
	}
	return lo, hi
}

// Size implements Scheme.
func (u *UCP) Size(rank int) int64 {
	lo, hi := u.Range(rank)
	return hi - lo
}

// ForEach implements Scheme.
func (u *UCP) ForEach(rank int, fn func(int64)) {
	lo, hi := u.Range(rank)
	for t := lo; t < hi; t++ {
		fn(t)
	}
}

// Index implements Scheme.
func (u *UCP) Index(rank int, node int64) int64 { return consecutiveIndex(u, rank, node) }

// NodeAt implements Scheme.
func (u *UCP) NodeAt(rank int, idx int64) int64 { return consecutiveNodeAt(u, rank, idx) }

// ---------------------------------------------------------------------------
// RRP — Appendix A.3

// RRP is round-robin partitioning: node u belongs to partition u mod P.
type RRP struct {
	n int64
	p int
	// shift is log2(P) when P is a power of two, else -1: owner and
	// index are then a mask and a shift instead of a 64-bit division,
	// which every remote copy query pays.
	shift int
}

// NewRRP returns a round-robin partitioning of n nodes into p parts.
func NewRRP(n int64, p int) *RRP {
	shift := -1
	if p > 0 && p&(p-1) == 0 {
		shift = bits.TrailingZeros(uint(p))
	}
	return &RRP{n: n, p: p, shift: shift}
}

// Name implements Scheme.
func (r *RRP) Name() string { return "RRP" }

// P implements Scheme.
func (r *RRP) P() int { return r.p }

// N implements Scheme.
func (r *RRP) N() int64 { return r.n }

// Owner implements Scheme: rank = u mod P.
func (r *RRP) Owner(node int64) int {
	checkNode(r.n, node)
	if r.shift >= 0 {
		return int(node & int64(r.p-1))
	}
	return int(node % int64(r.p))
}

// Size implements Scheme: ceil((n - rank) / P).
func (r *RRP) Size(rank int) int64 {
	checkRank(r.p, rank)
	if int64(rank) >= r.n {
		return 0
	}
	return (r.n - int64(rank) + int64(r.p) - 1) / int64(r.p)
}

// ForEach implements Scheme: nodes rank, rank+P, rank+2P, ...
func (r *RRP) ForEach(rank int, fn func(int64)) {
	checkRank(r.p, rank)
	for t := int64(rank); t < r.n; t += int64(r.p) {
		fn(t)
	}
}

// Index implements Scheme: node rank + j*P has index j. One division
// gives both j and the owner check.
func (r *RRP) Index(rank int, node int64) int64 {
	checkNode(r.n, node)
	var q int64
	if r.shift >= 0 {
		q = node >> r.shift
	} else {
		q = node / int64(r.p)
	}
	if node-q*int64(r.p) != int64(rank) {
		panic(fmt.Sprintf("partition: node %d not owned by rank %d", node, rank))
	}
	return q
}

// NodeAt implements Scheme: index j maps to node rank + j*P.
func (r *RRP) NodeAt(rank int, idx int64) int64 {
	checkRank(r.p, rank)
	node := int64(rank) + idx*int64(r.p)
	if idx < 0 || node >= r.n {
		panic(fmt.Sprintf("partition: index %d outside rank %d's [0,%d)", idx, rank, r.Size(rank)))
	}
	return node
}

// ---------------------------------------------------------------------------
// Exact consecutive partitioning — numerical solution of Eqn 10

// loadPrefix returns W(e) = sum_{k=0}^{e-1} w(k) where node k's expected
// load is w(k) = (H_{n-1} - H_k) + b: the Lemma 3.4 expected incoming
// request messages plus the constant per-node cost. This is the load
// function of Section 3.5.1 whose equalisation is Eqn 10.
func loadPrefix(n int64, b float64, e int64) float64 {
	if e <= 0 {
		return 0
	}
	hn1 := stats.Harmonic(n - 1)
	// sum_{k=0}^{e-1} H_k = sum_{k=1}^{e-1} H_k = e*H_{e-1} - (e-1).
	sumH := float64(e)*stats.Harmonic(e-1) - float64(e-1)
	return float64(e)*(hn1+b) - sumH
}

// ExactCP is consecutive partitioning with cut points solving Eqn 10
// numerically: each partition receives an equal share of the total
// expected load. Owner lookup is a binary search over the P cut points,
// which is exactly the Criterion-A violation that motivates LCP.
type ExactCP struct {
	n    int64
	p    int
	b    float64
	cuts []int64 // len p+1; cuts[0]=0, cuts[p]=n; partition i = [cuts[i], cuts[i+1])
}

// NewExactCP numerically solves Eqn 10 for n nodes, p partitions and load
// constant b, by binary-searching each cut point on the monotone load
// prefix function.
func NewExactCP(n int64, p int, b float64) *ExactCP {
	e := &ExactCP{n: n, p: p, b: b, cuts: make([]int64, p+1)}
	total := loadPrefix(n, b, n)
	e.cuts[0] = 0
	e.cuts[p] = n
	for i := 1; i < p; i++ {
		target := total * float64(i) / float64(p)
		// Smallest cut with W(cut) >= target, at least the previous cut.
		lo, hi := e.cuts[i-1], n
		for lo < hi {
			mid := (lo + hi) / 2
			if loadPrefix(n, b, mid) >= target {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		e.cuts[i] = lo
	}
	return e
}

// Name implements Scheme.
func (e *ExactCP) Name() string { return "ExactCP" }

// P implements Scheme.
func (e *ExactCP) P() int { return e.p }

// N implements Scheme.
func (e *ExactCP) N() int64 { return e.n }

// Cuts returns a copy of the P+1 cut points (cuts[i] is the first node of
// partition i; cuts[P] = n).
func (e *ExactCP) Cuts() []int64 {
	return append([]int64(nil), e.cuts...)
}

// Owner implements Scheme via binary search over the cut points.
func (e *ExactCP) Owner(node int64) int {
	checkNode(e.n, node)
	lo, hi := 0, e.p-1
	for lo < hi {
		mid := (lo + hi) / 2
		if e.cuts[mid+1] > node {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Range implements Consecutive.
func (e *ExactCP) Range(rank int) (lo, hi int64) {
	checkRank(e.p, rank)
	return e.cuts[rank], e.cuts[rank+1]
}

// Size implements Scheme.
func (e *ExactCP) Size(rank int) int64 {
	lo, hi := e.Range(rank)
	return hi - lo
}

// ForEach implements Scheme.
func (e *ExactCP) ForEach(rank int, fn func(int64)) {
	lo, hi := e.Range(rank)
	for t := lo; t < hi; t++ {
		fn(t)
	}
}

// Index implements Scheme.
func (e *ExactCP) Index(rank int, node int64) int64 { return consecutiveIndex(e, rank, node) }

// NodeAt implements Scheme.
func (e *ExactCP) NodeAt(rank int, idx int64) int64 { return consecutiveNodeAt(e, rank, idx) }

// ---------------------------------------------------------------------------
// LCP — Appendix A.2

// LCP is linear consecutive partitioning: partition sizes follow the
// arithmetic progression a, a+d, a+2d, ..., the paper's linear
// approximation of the exact Eqn-10 solution. The slope d is calibrated
// from two points of the exact solution (the sizes of the first and last
// exact partitions), and a = n/P - (P-1)d/2 so the sizes sum to n
// (Eqn 12). Owner lookup is the closed-form quadratic of Appendix A.2.
type LCP struct {
	n int64
	p int
	a float64
	d float64
	// bounds[i] is the first node of partition i (bounds[p] = n),
	// obtained by rounding the progression's prefix sums; kept so that
	// Size/Range/Owner agree exactly on integers.
	bounds []int64
}

// NewLCP builds the paper's LCP scheme for n nodes, p partitions and load
// constant b.
func NewLCP(n int64, p int, b float64) *LCP {
	l := &LCP{n: n, p: p}
	if p == 1 {
		l.a, l.d = float64(n), 0
		l.bounds = []int64{0, n}
		return l
	}
	// Calibrate from the exact solution as the paper prescribes:
	// the first partition's size n_1 and the last's n - n_{P-1}.
	exact := NewExactCP(n, p, b)
	n1 := float64(exact.cuts[1])
	last := float64(n - exact.cuts[p-1])
	l.d = (last - n1) / float64(p-1)
	l.a = float64(n)/float64(p) - float64(p-1)*l.d/2
	if l.a < 0 {
		// Degenerate when p is large relative to n: fall back to a flat
		// progression so every size stays non-negative.
		l.a = float64(n) / float64(p)
		l.d = 0
	}
	l.bounds = make([]int64, p+1)
	for i := 1; i < p; i++ {
		// Prefix sum of the progression: i*a + d*i*(i-1)/2.
		f := float64(i)*l.a + l.d*float64(i)*float64(i-1)/2
		bd := int64(math.Round(f))
		if bd < l.bounds[i-1] {
			bd = l.bounds[i-1]
		}
		if bd > n {
			bd = n
		}
		l.bounds[i] = bd
	}
	l.bounds[p] = n
	return l
}

// Name implements Scheme.
func (l *LCP) Name() string { return "LCP" }

// P implements Scheme.
func (l *LCP) P() int { return l.p }

// N implements Scheme.
func (l *LCP) N() int64 { return l.n }

// Params returns the progression parameters (a, d) of Appendix A.2.
func (l *LCP) Params() (a, d float64) { return l.a, l.d }

// Owner implements Scheme. It first evaluates the closed-form quadratic of
// Appendix A.2 — i = floor((-(2a-d) + sqrt((2a-d)^2 + 8du)) / 2d) — then
// corrects by at most a couple of steps for the integer rounding of the
// actual boundaries, keeping the lookup O(1).
func (l *LCP) Owner(node int64) int {
	checkNode(l.n, node)
	var i int
	if l.d == 0 {
		if l.a > 0 {
			i = int(float64(node) / l.a)
		}
	} else {
		u := float64(node)
		twoAmD := 2*l.a - l.d
		disc := twoAmD*twoAmD + 8*l.d*u
		if disc < 0 {
			disc = 0
		}
		i = int(math.Floor((-twoAmD + math.Sqrt(disc)) / (2 * l.d)))
	}
	if i < 0 {
		i = 0
	}
	if i > l.p-1 {
		i = l.p - 1
	}
	// Correct for integer rounding of the boundaries.
	for i > 0 && node < l.bounds[i] {
		i--
	}
	for i < l.p-1 && node >= l.bounds[i+1] {
		i++
	}
	return i
}

// Range implements Consecutive.
func (l *LCP) Range(rank int) (lo, hi int64) {
	checkRank(l.p, rank)
	return l.bounds[rank], l.bounds[rank+1]
}

// Size implements Scheme.
func (l *LCP) Size(rank int) int64 {
	lo, hi := l.Range(rank)
	return hi - lo
}

// ForEach implements Scheme.
func (l *LCP) ForEach(rank int, fn func(int64)) {
	lo, hi := l.Range(rank)
	for t := lo; t < hi; t++ {
		fn(t)
	}
}

// Index implements Scheme.
func (l *LCP) Index(rank int, node int64) int64 { return consecutiveIndex(l, rank, node) }

// NodeAt implements Scheme.
func (l *LCP) NodeAt(rank int, idx int64) int64 { return consecutiveNodeAt(l, rank, idx) }

// consecutiveIndex implements Index for contiguous-range schemes.
func consecutiveIndex(c Consecutive, rank int, node int64) int64 {
	checkNode(c.N(), node)
	lo, hi := c.Range(rank)
	if node < lo || node >= hi {
		panic(fmt.Sprintf("partition: node %d not owned by rank %d", node, rank))
	}
	return node - lo
}

// consecutiveNodeAt implements NodeAt for contiguous-range schemes.
func consecutiveNodeAt(c Consecutive, rank int, idx int64) int64 {
	lo, hi := c.Range(rank)
	if idx < 0 || lo+idx >= hi {
		panic(fmt.Sprintf("partition: index %d outside rank %d's [0,%d)", idx, rank, hi-lo))
	}
	return lo + idx
}

// ---------------------------------------------------------------------------

// ExpectedIncomingLoad returns Lemma 3.4's expected number of request
// messages received for node k in an n-node, probability-p run:
// E[M_k] = (1-p)(H_{n-1} - H_k).
func ExpectedIncomingLoad(n, k int64, p float64) float64 {
	return (1 - p) * stats.HarmonicDiff(k, n-1)
}

// HubPrefixAutoFrac is the fraction of the total expected request mass
// the auto-sized hub prefix covers (HubPrefixSize's frac when callers
// use the default sizing). Every rank computes the whole prefix itself
// before its first window, so a replica slot costs each rank its fill
// — x attempts, duplicates retried — while the request mass it elides
// grows only harmonically in H: the first nodes are by far the cheapest
// round trips to remove. At 0.1 the fill takes milliseconds at n = 10⁶;
// EXPERIMENTS.md has the 0.1 / 0.3 / 0.5 comparison. Callers who value
// message count over setup time can fix a larger H explicitly; output
// is identical at every setting.
const HubPrefixAutoFrac = 0.1

// HubPrefixMaxSlots caps the auto-sized hub-prefix replica at H·x
// attachment slots (4 bytes each while n < 2³²), so auto-sizing at very
// large n cannot quietly allocate, or fill, an unbounded per-rank
// replica.
const HubPrefixMaxSlots = 1 << 24

// hubPrefixRefRanks is the rank count HubPrefixAutoFrac was tuned at.
const hubPrefixRefRanks = 4

// HubPrefixAutoSize returns the default hub-prefix length for a run of
// the given rank count. The covered mass fraction shrinks inversely
// with ranks past the tuning point: every rank fills the same whole
// prefix while its own share of the nodes shrinks as 1/p, so shrinking
// the prefix with p keeps the fill a fixed share of a rank's work.
func HubPrefixAutoSize(n int64, x, ranks int) int64 {
	frac := HubPrefixAutoFrac
	if ranks > hubPrefixRefRanks {
		frac = frac * hubPrefixRefRanks / float64(ranks)
	}
	return HubPrefixSize(n, x, frac)
}

// hubMass returns the expected request mass of the length-h prefix,
// Σ_{k=0}^{h-1} (H_{n-1} - H_k) = h·(H_{n-1} - H_{h-1}) + h - 1, using
// the same prefix-sum identity as loadPrefix. The (1-p) factor of Lemma
// 3.4 scales numerator and denominator alike, so mass fractions are
// independent of p. The total mass (h = n) telescopes to n - 1.
func hubMass(n, h int64) float64 {
	if h <= 0 {
		return 0
	}
	return float64(h)*stats.HarmonicDiff(h-1, n-1) + float64(h) - 1
}

// HubPrefixSize returns the auto-sized hub-prefix length: the smallest H
// such that nodes [0, H) account for at least frac of the total expected
// request mass Σ_k E[M_k] (Lemma 3.4) — the share of cross-rank lookups
// a replicated prefix of that length can elide. The result is clamped to
// [0, n] and capped so the replica holds at most HubPrefixMaxSlots
// attachment slots (H·x).
func HubPrefixSize(n int64, x int, frac float64) int64 {
	if n <= 1 || x < 1 || frac <= 0 {
		return 0
	}
	h := n
	if frac < 1 {
		target := frac * float64(n-1) // total mass Σ_{k=0}^{n-1}(H_{n-1}-H_k) = n-1
		lo, hi := int64(1), n
		for lo < hi {
			mid := (lo + hi) / 2
			if hubMass(n, mid) >= target {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		h = lo
	}
	if maxH := int64(HubPrefixMaxSlots) / int64(x); h > maxH {
		h = maxH
	}
	return h
}

// ExpectedPartitionLoad returns the total expected per-partition load under
// scheme s with per-node constant b (nodes + expected incoming messages at
// p = 1/2, the paper's Section 3.5.1 load measure), one value per rank.
func ExpectedPartitionLoad(s Scheme, b float64) []float64 {
	n := s.N()
	out := make([]float64, s.P())
	if c, ok := s.(Consecutive); ok {
		for i := 0; i < s.P(); i++ {
			lo, hi := c.Range(i)
			out[i] = loadPrefix(n, b, hi) - loadPrefix(n, b, lo)
		}
		return out
	}
	hn1 := stats.Harmonic(n - 1)
	for i := 0; i < s.P(); i++ {
		sum := 0.0
		s.ForEach(i, func(k int64) {
			sum += hn1 - stats.Harmonic(k) + b
		})
		out[i] = sum
	}
	return out
}
