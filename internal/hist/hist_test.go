package hist

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var h Int
	h.Add(5)
	if h.Count(5) != 1 || h.Total() != 1 {
		t.Fatalf("zero value broken: count=%d total=%d", h.Count(5), h.Total())
	}
}

func TestAddAndCounts(t *testing.T) {
	h := NewInt()
	for _, v := range []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5} {
		h.Add(v)
	}
	if h.Total() != 11 {
		t.Fatalf("Total = %d", h.Total())
	}
	if h.Count(5) != 3 || h.Count(1) != 2 || h.Count(7) != 0 {
		t.Fatal("counts wrong")
	}
	want := []int64{1, 2, 3, 4, 5, 6, 9}
	got := h.Values()
	if len(got) != len(want) {
		t.Fatalf("Values = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values = %v", got)
		}
	}
}

func TestMinMaxMean(t *testing.T) {
	h := NewInt()
	if _, ok := h.Min(); ok {
		t.Error("empty Min reported ok")
	}
	if _, ok := h.Max(); ok {
		t.Error("empty Max reported ok")
	}
	if h.Mean() != 0 {
		t.Error("empty Mean != 0")
	}
	h.AddN(2, 3)
	h.AddN(10, 1)
	min, _ := h.Min()
	max, _ := h.Max()
	if min != 2 || max != 10 {
		t.Fatalf("min/max = %d/%d", min, max)
	}
	if got := h.Mean(); math.Abs(got-4) > 1e-12 {
		t.Fatalf("Mean = %v, want 4", got)
	}
}

func TestPMFSumsToOne(t *testing.T) {
	h := NewInt()
	for i := int64(0); i < 100; i++ {
		h.AddN(i%7, i+1)
	}
	_, probs := h.PMF()
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("PMF sums to %v", sum)
	}
}

func TestCCDF(t *testing.T) {
	h := NewInt()
	h.AddN(1, 5)
	h.AddN(2, 3)
	h.AddN(4, 2)
	values, ccdf := h.CCDF()
	wantV := []int64{1, 2, 4}
	wantC := []float64{1.0, 0.5, 0.2}
	for i := range wantV {
		if values[i] != wantV[i] || math.Abs(ccdf[i]-wantC[i]) > 1e-12 {
			t.Fatalf("CCDF = %v %v", values, ccdf)
		}
	}
}

func TestCCDFMonotoneProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		h := NewInt()
		for _, v := range raw {
			h.Add(int64(v))
		}
		if h.Total() == 0 {
			return true
		}
		_, ccdf := h.CCDF()
		for i := 1; i < len(ccdf); i++ {
			if ccdf[i] > ccdf[i-1] {
				return false
			}
		}
		return len(ccdf) == 0 || ccdf[0] == 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplesRoundTrip(t *testing.T) {
	h := NewInt()
	in := []int64{5, 3, 3, 8, 8, 8}
	for _, v := range in {
		h.Add(v)
	}
	got := h.Samples()
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	if len(got) != len(in) {
		t.Fatalf("Samples = %v", got)
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("Samples = %v, want %v", got, in)
		}
	}
}

func TestMerge(t *testing.T) {
	a := NewInt()
	b := NewInt()
	a.AddN(1, 2)
	a.AddN(3, 1)
	b.AddN(1, 1)
	b.AddN(7, 4)
	a.Merge(b)
	if a.Count(1) != 3 || a.Count(3) != 1 || a.Count(7) != 4 || a.Total() != 8 {
		t.Fatalf("merge wrong: %v", a.counts)
	}
	// b unchanged.
	if b.Total() != 5 {
		t.Fatal("merge mutated source")
	}
}

func TestLogBinsCoverAllPositiveSamples(t *testing.T) {
	h := NewInt()
	total := int64(0)
	for v := int64(1); v <= 1000; v++ {
		h.AddN(v, v%5+1)
		total += v%5 + 1
	}
	h.AddN(0, 99) // non-positive values excluded from log bins
	bins := h.LogBins(2.0)
	var binned int64
	for i, b := range bins {
		if b.Lo >= b.Hi {
			t.Fatalf("bin %d empty range [%d,%d)", i, b.Lo, b.Hi)
		}
		if i > 0 && b.Lo < bins[i-1].Hi {
			t.Fatalf("bins overlap: %v", bins)
		}
		if b.Density <= 0 || b.Count <= 0 {
			t.Fatalf("empty bin retained: %+v", b)
		}
		binned += b.Count
	}
	if binned != total {
		t.Fatalf("binned %d of %d samples", binned, total)
	}
}

func TestLogBinsSingleValue(t *testing.T) {
	h := NewInt()
	h.AddN(17, 5)
	bins := h.LogBins(2.0)
	if len(bins) != 1 || bins[0].Count != 5 {
		t.Fatalf("bins = %+v", bins)
	}
	if bins[0].Lo > 17 || bins[0].Hi <= 17 {
		t.Fatalf("value outside its bin: %+v", bins[0])
	}
}

func TestLogBinsEmptyAndNonPositive(t *testing.T) {
	h := NewInt()
	if bins := h.LogBins(2); bins != nil {
		t.Fatalf("empty histogram bins = %v", bins)
	}
	h.AddN(0, 3)
	h.AddN(-2, 1)
	if bins := h.LogBins(2); bins != nil {
		t.Fatalf("non-positive-only bins = %v", bins)
	}
}

func TestLogBinsPanicsOnBadBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LogBins(1.0) did not panic")
		}
	}()
	NewInt().LogBins(1.0)
}

func TestLogBinsGeometricGrowth(t *testing.T) {
	h := NewInt()
	for v := int64(1); v <= 10000; v++ {
		h.Add(v)
	}
	bins := h.LogBins(2.0)
	// Widths should roughly double.
	for i := 2; i < len(bins); i++ {
		w0 := bins[i-1].Hi - bins[i-1].Lo
		w1 := bins[i].Hi - bins[i].Lo
		if w1 < w0 {
			t.Fatalf("bin widths not growing: %d then %d", w0, w1)
		}
	}
}
