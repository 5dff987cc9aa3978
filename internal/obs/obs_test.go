package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"pagen/internal/stats"
)

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 1, 3, 7, 100, -5} {
		h.Observe(v)
	}
	if h.Count != 7 {
		t.Fatalf("Count = %d, want 7", h.Count)
	}
	if h.Sum != 112 { // -5 clamps to 0
		t.Fatalf("Sum = %d, want 112", h.Sum)
	}
	if h.Max != 100 {
		t.Fatalf("Max = %d, want 100", h.Max)
	}
	// Bucket 0 holds zeros (including the clamped -5), bucket 1 holds
	// {1,1}, bucket 2 holds {3}, bucket 3 holds {7}, bucket 7 holds {100}.
	want := map[int]int64{0: 2, 1: 2, 2: 1, 3: 1, 7: 1}
	for i, c := range h.Buckets {
		if c != want[i] {
			t.Errorf("Buckets[%d] = %d, want %d", i, c, want[i])
		}
	}
	if got := h.Mean(); math.Abs(got-16.0) > 1e-9 {
		t.Errorf("Mean = %v, want 16", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile should be 0")
	}
	// 90 zeros and 10 values of 5: the 0.5 quantile is 0, the 0.99
	// quantile lands in the bucket holding 5 (upper edge 7, clamped to
	// Max = 5).
	for i := 0; i < 90; i++ {
		h.Observe(0)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("Quantile(0.5) = %d, want 0", got)
	}
	if got := h.Quantile(0.99); got != 5 {
		t.Errorf("Quantile(0.99) = %d, want 5 (bucket edge clamped to Max)", got)
	}
	if got := h.Quantile(1); got != 5 {
		t.Errorf("Quantile(1) = %d, want 5", got)
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 4, 8, 16, 1 << 40} {
		h.Observe(v)
	}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("round trip changed histogram:\n got %+v\nwant %+v", back, h)
	}
	// The wire form trims trailing empty buckets: with max observation
	// 2^40 only 42 buckets are emitted, not 64.
	var wire struct {
		Buckets []int64 `json:"buckets"`
	}
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Buckets) != 42 {
		t.Errorf("wire buckets = %d, want 42 (trimmed)", len(wire.Buckets))
	}
}

func TestExpectedLoad(t *testing.T) {
	const n = 1000
	const p = 0.5
	// Closed form against a direct harmonic evaluation.
	for _, k := range []int64{1, 10, 500} {
		want := (1 - p) * (stats.Harmonic(n-1) - stats.Harmonic(k))
		if got := ExpectedLoad(n, k, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("ExpectedLoad(%d, %d, %v) = %v, want %v", n, k, p, got, want)
		}
	}
	// Strictly decreasing in k: later nodes receive fewer copy queries.
	prev := math.Inf(1)
	for k := int64(1); k < n-1; k += 100 {
		cur := ExpectedLoad(n, k, p)
		if cur >= prev {
			t.Fatalf("ExpectedLoad not decreasing at k=%d: %v >= %v", k, cur, prev)
		}
		prev = cur
	}
	// Boundary cases.
	if ExpectedLoad(n, n-1, p) != 0 {
		t.Error("ExpectedLoad(n, n-1) should be 0")
	}
	if ExpectedLoad(n, -1, p) != 0 {
		t.Error("ExpectedLoad(n, -1) should be 0")
	}
}

func TestBinNodeLoad(t *testing.T) {
	const (
		n = 10000
		x = 4
		p = 0.5
	)
	// Synthetic loads that follow the Lemma 3.4 expectation exactly
	// (rounded), counted by bin search the way the engine counts them:
	// the curve must decrease and track the Expected column, which must
	// be the per-node closed form averaged over the bin.
	b := NewLoadBins(n, x)
	perNode := make([]float64, len(b.Wire))
	for k := int64(x); k < n; k++ {
		i := b.Bin(k)
		if k < b.Edges[i] || k >= b.Edges[i+1] {
			t.Fatalf("Bin(%d) = %d, whose range is [%d,%d)", k, i, b.Edges[i], b.Edges[i+1])
		}
		b.Nodes[i]++
		b.Wire[i] += int64(math.Round(float64(x) * ExpectedLoad(n, k, p)))
		perNode[i] += float64(x) * ExpectedLoad(n, k, p)
	}
	sum := NewLoadBins(n, x)
	sum.Add(b)
	sum.Add(b)
	curve := BinNodeLoad(b, n, x, p)
	if curve.N != n || curve.X != x || curve.P != p {
		t.Fatalf("curve params = (%d,%d,%v)", curve.N, curve.X, curve.P)
	}
	if len(curve.Bins) < 10 {
		t.Fatalf("only %d bins; want a resolved geometric curve", len(curve.Bins))
	}
	var nodes int64
	for i, bin := range curve.Bins {
		if bin.KLo >= bin.KHi || bin.Nodes != bin.KHi-bin.KLo {
			t.Fatalf("bin %d: [%d,%d) holds %d nodes", i, bin.KLo, bin.KHi, bin.Nodes)
		}
		if i > 0 && bin.KLo != curve.Bins[i-1].KHi {
			t.Fatalf("bin %d: gap/overlap at %d (prev ends %d)", i, bin.KLo, curve.Bins[i-1].KHi)
		}
		if bin.KLo < x {
			t.Fatalf("bin %d starts at %d, below x=%d (clique nodes must be skipped)", i, bin.KLo, x)
		}
		if sum.Wire[i] != 2*b.Wire[i] || sum.Nodes[i] != 2*b.Nodes[i] {
			t.Fatalf("bin %d: Add twice gives %d nodes, %d queries", i, sum.Nodes[i], sum.Wire[i])
		}
		nodes += bin.Nodes
		if want := perNode[i] / float64(bin.Nodes); math.Abs(bin.Expected-want) > 1e-12*want {
			t.Errorf("bin [%d,%d): closed-form expected %v, per-node mean %v", bin.KLo, bin.KHi, bin.Expected, want)
		}
		// Measured and predicted columns agree (loads were generated
		// from the prediction; rounding allows 0.5 absolute slack).
		if math.Abs(bin.MeanLoad-bin.Expected) > 0.5 {
			t.Errorf("bin [%d,%d): mean %v vs expected %v", bin.KLo, bin.KHi, bin.MeanLoad, bin.Expected)
		}
	}
	if nodes != n-x {
		t.Fatalf("binned %d nodes, want %d (all non-clique nodes)", nodes, n-x)
	}
	// The expected column decreases across bins.
	for i := 1; i < len(curve.Bins); i++ {
		if curve.Bins[i].Expected >= curve.Bins[i-1].Expected {
			t.Fatalf("Expected not decreasing at bin %d", i)
		}
	}
}

// Bin finds the same bin as a scan of the edges for every node of small
// runs, and around every edge of a large one.
func TestLoadBinsBin(t *testing.T) {
	scan := func(b *LoadBins, k int64) int {
		i := 0
		for k >= b.Edges[i+1] {
			i++
		}
		return i
	}
	for _, n := range []int64{2, 3, 10, 1000, 12345, 1 << 40, 1<<57 - 1} {
		for _, x := range []int{1, 2, 3, 4, 7, 20, 1000} {
			b := NewLoadBins(n, x)
			ks := []int64{}
			if n <= 1<<20 {
				for k := b.Edges[0]; k < n; k++ {
					ks = append(ks, k)
				}
			} else {
				for _, e := range b.Edges {
					ks = append(ks, e-1, e, e+1)
				}
			}
			for _, k := range ks {
				if k < b.Edges[0] || k >= n {
					continue
				}
				if got, want := b.Bin(k), scan(b, k); got != want {
					t.Fatalf("n=%d x=%d: Bin(%d) = %d, the edges put it in %d", n, x, k, got, want)
				}
			}
		}
	}
}

func TestRunMetricsJSONRoundTrip(t *testing.T) {
	var wc Histogram
	wc.Observe(0)
	wc.Observe(3)
	m := &RunMetrics{
		N: 1000, X: 4, P: 0.5, Ranks: 2, Scheme: "RRP", Seed: 7,
		ElapsedNanos: 12345,
		PerRank: []RankMetrics{
			{Rank: 0, Nodes: 500, Edges: 1992, RequestsSent: 10, WaitChain: wc},
			{Rank: 1, Nodes: 500, Edges: 1992, RequestsRecv: 10},
		},
		NodeLoad: &NodeLoadCurve{N: 1000, X: 4, P: 0.5, Bins: []NodeLoadBin{
			{KLo: 4, KHi: 10, Nodes: 6, Messages: 60, MeanLoad: 10, Expected: 10.5},
		}},
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != m.N || back.Ranks != m.Ranks || back.Seed != m.Seed {
		t.Fatalf("round trip changed run params: %+v", back)
	}
	if len(back.PerRank) != 2 || back.PerRank[0].WaitChain != wc {
		t.Fatalf("round trip changed per-rank metrics: %+v", back.PerRank)
	}
	if back.NodeLoad == nil || len(back.NodeLoad.Bins) != 1 {
		t.Fatalf("round trip changed node-load curve: %+v", back.NodeLoad)
	}
	if back.NodeLoad.Bins[0] != m.NodeLoad.Bins[0] {
		t.Fatalf("round trip changed bin: %+v", back.NodeLoad.Bins[0])
	}
}
