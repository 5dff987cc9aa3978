package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

// Known-answer vector for splitmix64 with seed 0 (from the reference
// implementation by Sebastiano Vigna).
func TestSplitMix64KnownVector(t *testing.T) {
	state := uint64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	for i, w := range want {
		if got := SplitMix64(&state); got != w {
			t.Fatalf("splitmix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

// A generator seeded with 0 is the reference splitmix64 sequence.
func TestRandKnownVector(t *testing.T) {
	r := New(0)
	for i, w := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := r.Uint64(); got != w {
			t.Fatalf("output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("sequence diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestNewStreamIndependence(t *testing.T) {
	// Streams with different ids from the same seed must differ, and the
	// same (seed, id) pair must reproduce.
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	c := NewStream(7, 0)
	diverged := false
	for i := 0; i < 100; i++ {
		av, bv, cv := a.Uint64(), b.Uint64(), c.Uint64()
		if av != cv {
			t.Fatalf("same (seed,id) diverged at %d", i)
		}
		if av != bv {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("streams 0 and 1 produced identical sequences")
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 2000; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestInt64nPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int64{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Int64n(%d) did not panic", n)
				}
			}()
			New(1).Int64n(n)
		}()
	}
}

// Uint64n must be unbiased: for a small modulus, bucket frequencies should
// pass a chi-square test at a generous threshold.
func TestUint64nUniformChiSquare(t *testing.T) {
	r := New(1234)
	const n = 10
	const trials = 200000
	var counts [n]int
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	expected := float64(trials) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 degrees of freedom; critical value at alpha=0.001 is 27.88.
	if chi2 > 27.88 {
		t.Fatalf("chi-square = %f exceeds 27.88; counts = %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(77)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %f, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(55)
	const trials = 100000
	for _, p := range []float64{0.0, 0.25, 0.5, 0.9, 1.0} {
		hits := 0
		for i := 0; i < trials; i++ {
			if r.Bool(p) {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("Bool(%f) frequency = %f", p, got)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(13)
	s := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	seen := make([]bool, len(s))
	for _, v := range s {
		if seen[v] {
			t.Fatalf("shuffle produced duplicate: %v", s)
		}
		seen[v] = true
	}
}

// Fisher-Yates via Shuffle must be uniform over permutations of 3 elements.
func TestShuffleUniformity(t *testing.T) {
	r := New(17)
	counts := make(map[[3]int]int)
	const trials = 60000
	for i := 0; i < trials; i++ {
		s := [3]int{0, 1, 2}
		r.Shuffle(3, func(a, b int) { s[a], s[b] = s[b], s[a] })
		counts[s]++
	}
	if len(counts) != 6 {
		t.Fatalf("expected 6 permutations, got %d", len(counts))
	}
	expected := float64(trials) / 6
	for p, c := range counts {
		if math.Abs(float64(c)-expected) > expected*0.1 {
			t.Fatalf("permutation %v count %d deviates from %f", p, c, expected)
		}
	}
}

func TestSeedResetsState(t *testing.T) {
	r := New(21)
	first := make([]uint64, 32)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(21)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after re-seed, output %d = %d, want %d", i, got, first[i])
		}
	}
}

// Property: Uint64n(n) < n for arbitrary non-zero n.
func TestUint64nPropertyInRange(t *testing.T) {
	r := New(31)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkUint64n(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64n(1000003)
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}

// Pair is the first two draws of a block, and Rebase moves a key along
// its stream by whole blocks: both agree with a generator SeedAt puts
// at the block.
func TestPairAndRebase(t *testing.T) {
	src := New(9)
	for i := 0; i < 10000; i++ {
		key, block, b := src.Uint64(), src.Uint64(), src.Uint64()%1000
		var r Rand
		r.SeedAt(key, block+b)
		a, c := Pair(key, block+b)
		if u, v := r.Uint64(), r.Uint64(); a != u || c != v {
			t.Fatalf("Pair(%#x, %d) = %#x, %#x; the generator draws %#x, %#x", key, block+b, a, c, u, v)
		}
		if a2, c2 := Pair(Rebase(key, block), b); a2 != a || c2 != c {
			t.Fatalf("Pair(Rebase(%#x, %d), %d) = %#x, %#x; want %#x, %#x", key, block, b, a2, c2, a, c)
		}
	}
}
