package model

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"pagen/internal/xrand"
)

func TestValidate(t *testing.T) {
	good := []Params{
		{N: 2, X: 1, P: 0.5},
		{N: 100, X: 4, P: 0.5},
		{N: 10, X: 1, P: 0}, // pure copy is fine at x = 1
		{N: 10, X: 1, P: 1}, // pure direct is fine at x = 1
		{N: 10, X: 3, P: 0.99},
		{N: 10, X: 9, P: 0.3},
	}
	for _, pr := range good {
		if err := pr.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", pr, err)
		}
	}
	bad := []Params{
		{N: 1, X: 1, P: 0.5},   // n must exceed x
		{N: 4, X: 4, P: 0.5},   // n == x
		{N: 10, X: 0, P: 0.5},  // x >= 1
		{N: 10, X: -2, P: 0.5}, // x >= 1
		{N: 10, X: 2, P: -0.1}, // p range
		{N: 10, X: 2, P: 1.1},  // p range
		{N: 10, X: 2, P: 0},    // p = 0 with x > 1
		{N: 10, X: 2, P: 1},    // p = 1 with x > 1 (node x+1 livelocks)
		{N: 10, X: 1, P: math.NaN()},
		{N: 10, X: 2, P: math.Inf(1)},
		{N: 10, X: 2, P: math.Inf(-1)},
	}
	for _, pr := range bad {
		if err := pr.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", pr)
		}
	}
}

func TestEdgeCount(t *testing.T) {
	cases := []struct {
		pr   Params
		want int64
	}{
		{Params{N: 2, X: 1}, 1},      // single edge 1->0
		{Params{N: 10, X: 1}, 9},     // tree
		{Params{N: 10, X: 4}, 30},    // 6 clique + 6*4
		{Params{N: 100, X: 10}, 945}, // 45 + 90*10
	}
	for _, c := range cases {
		if got := c.pr.M(); got != c.want {
			t.Errorf("M(%+v) = %d, want %d", c.pr, got, c.want)
		}
	}
}

func TestCliqueHelpers(t *testing.T) {
	pr := Params{N: 10, X: 4, P: 0.5}
	var cliqueEdges int64
	for t64 := int64(0); t64 < pr.N; t64++ {
		if t64 < 4 != pr.IsClique(t64) {
			t.Errorf("IsClique(%d) wrong", t64)
		}
		cliqueEdges += pr.CliqueEdgeCount(t64)
	}
	if cliqueEdges != 6 {
		t.Errorf("clique edges = %d, want 6", cliqueEdges)
	}
}

func TestBootstrapF(t *testing.T) {
	pr := Params{N: 10, X: 4, P: 0.5}
	for e := 0; e < 4; e++ {
		v, ok := pr.BootstrapF(4, e)
		if !ok || v != int64(e) {
			t.Errorf("BootstrapF(4,%d) = %d,%v", e, v, ok)
		}
	}
	if _, ok := pr.BootstrapF(5, 0); ok {
		t.Error("node 5 reported bootstrap")
	}
	if _, ok := pr.BootstrapF(3, 0); ok {
		t.Error("clique node reported bootstrap")
	}
}

func TestKRange(t *testing.T) {
	pr := Params{N: 10, X: 4, P: 0.5}
	lo, hi := pr.KRange(7)
	if lo != 4 || hi != 7 {
		t.Errorf("KRange(7) = [%d,%d)", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Error("KRange(4) did not panic")
		}
	}()
	pr.KRange(4)
}

func TestKRangeX1(t *testing.T) {
	pr := Params{N: 10, X: 1, P: 0.5}
	lo, hi := pr.KRange(2)
	if lo != 1 || hi != 2 {
		t.Errorf("KRange(2) = [%d,%d), want [1,2)", lo, hi)
	}
}

func TestTraceRecordAndIdx(t *testing.T) {
	pr := Params{N: 6, X: 2, P: 0.5}
	tr := NewTrace(pr)
	if tr.Slots() != 8 {
		t.Fatalf("Slots = %d, want 8", tr.Slots())
	}
	tr.RecordBootstrap(2, 0)
	tr.RecordBootstrap(2, 1)
	tr.RecordDirect(3, 0, 2)
	tr.RecordCopy(3, 1, 2, 1)

	i := tr.Idx(3, 1)
	if !tr.Copied[i] || tr.K[i] != 2 || tr.L[i] != 1 {
		t.Fatalf("copy slot wrong: k=%d l=%d copied=%v", tr.K[i], tr.L[i], tr.Copied[i])
	}
	i = tr.Idx(3, 0)
	if tr.Copied[i] || tr.K[i] != 2 || tr.L[i] != -1 {
		t.Fatalf("direct slot wrong: k=%d l=%d copied=%v", tr.K[i], tr.L[i], tr.Copied[i])
	}
	i = tr.Idx(2, 0)
	if tr.K[i] != -1 || tr.Copied[i] {
		t.Fatal("bootstrap slot wrong")
	}
}

func TestTraceIdxPanics(t *testing.T) {
	tr := NewTrace(Params{N: 6, X: 2, P: 0.5})
	for _, c := range []struct {
		t int64
		e int
	}{{1, 0}, {6, 0}, {3, -1}, {3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Idx(%d,%d) did not panic", c.t, c.e)
				}
			}()
			tr.Idx(c.t, c.e)
		}()
	}
}

// Property: slot indices are a bijection onto [0, slots).
func TestTraceIdxBijectionProperty(t *testing.T) {
	f := func(nRaw, xRaw uint8) bool {
		x := int(xRaw%8) + 1
		n := int64(x) + int64(nRaw%50) + 1
		pr := Params{N: n, X: x, P: 0.5}
		tr := NewTrace(pr)
		seen := make([]bool, tr.Slots())
		for tt := int64(x); tt < n; tt++ {
			for e := 0; e < x; e++ {
				i := tr.Idx(tt, e)
				if i < 0 || i >= len(seen) || seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFirstMatchesAttempt holds the first-attempt kernel to Attempt on a
// million (seed, t, e) triples: wherever First reports ok its K and
// Direct are attempt 0's exactly, at every p from 0 to 1, and it reports
// !ok for every draw Lemire's method rejects. Half the triples sit at
// n near 2⁵⁷ with spans just above 2⁵⁶, where about one first draw in
// 256 is rejected, so that the test sees thousands of rejections.
func TestFirstMatchesAttempt(t *testing.T) {
	rng := xrand.New(1)
	var rejected, flagged int
	check := func(pr Params, seed uint64, node int64, e int) {
		d := pr.NewDrawer(node)
		k, direct, ok := d.First(xrand.Pair(seed, d.Block(e)))
		a0, _ := xrand.Pair(seed, d.Block(e))
		span := uint64(node) - uint64(pr.X)
		if _, lo := bits.Mul64(a0, span); lo < -span%span {
			rejected++
			if ok {
				t.Fatalf("n %d, t %d, e %d, seed %#x: Lemire rejects the first draw, but First reports ok", pr.N, node, e, seed)
			}
		}
		if !ok {
			flagged++
			return
		}
		var r xrand.Rand
		if a := d.Attempt(&r, seed, e, 0); a.K != k || a.Direct != direct {
			t.Fatalf("n %d, x %d, p %v, t %d, e %d, seed %#x: First = (%d, %v), Attempt(…, 0) = (%d, %v)", pr.N, pr.X, pr.P, node, e, seed, k, direct, a.K, a.Direct)
		}
	}
	for i := 0; i < 500_000; i++ {
		x := 1 + rng.Int64n(8)
		n := x + 2 + rng.Int64n(int64(1)<<uint(2+rng.Int64n(55)))
		p := []float64{0, 1, 0.5, 0.5, rng.Float64()}[rng.Int64n(5)]
		node := x + 1 + rng.Int64n(n-x-1)
		check(Params{N: n, X: int(x), P: p}, rng.Uint64(), node, int(rng.Int64n(x)))
	}
	const n = 1<<57 - 1
	for i := 0; i < 500_000; i++ {
		x := 1 + rng.Int64n(8)
		node := x + 1<<56 + 1 + rng.Int64n(1<<20)
		check(Params{N: n, X: int(x), P: 0.5}, rng.Uint64(), node, int(rng.Int64n(x)))
	}
	if rejected < 1000 {
		t.Fatalf("%d rejected first draws in a million triples; the test should force thousands", rejected)
	}
	t.Logf("%d draws First left to Attempt, %d of them rejected by Lemire's method", flagged, rejected)
}
