package bench

import (
	"math"
	"strings"
	"testing"

	"pagen/internal/model"
	"pagen/internal/partition"
)

var kinds3 = []partition.Kind{partition.KindUCP, partition.KindLCP, partition.KindRRP}

func TestFig3Shape(t *testing.T) {
	rows := Fig3(100000, 16, partition.DefaultB)
	if len(rows) != 16 {
		t.Fatalf("%d rows", len(rows))
	}
	var exactTotal, linTotal int64
	for i, r := range rows {
		if r.Rank != i {
			t.Fatalf("rank order broken: %+v", r)
		}
		exactTotal += r.ExactSz
		linTotal += r.LinearSz
		// Figure 3's message: the linear approximation tracks the exact
		// solution closely at every rank.
		if math.Abs(float64(r.ExactLo-r.LinearLo)) > 0.05*100000 {
			t.Errorf("rank %d: exact %d vs linear %d diverge", i, r.ExactLo, r.LinearLo)
		}
	}
	if exactTotal != 100000 || linTotal != 100000 {
		t.Fatalf("totals %d / %d", exactTotal, linTotal)
	}
	// Both series increase with rank (the figure's visual signature).
	if rows[0].ExactSz >= rows[15].ExactSz || rows[0].LinearSz >= rows[15].LinearSz {
		t.Error("sizes do not increase with rank")
	}
	var sb strings.Builder
	if err := WriteFig3(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(sb.String()), "\n")) != 17 {
		t.Fatal("TSV row count wrong")
	}
}

func TestFig4PowerLaw(t *testing.T) {
	pr := model.Params{N: 30000, X: 4, P: 0.5}
	res, err := Fig4(pr, partition.KindRRP, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: gamma measured 2.7 at n=1e9; at 3e4 nodes the finite-size
	// estimate lands in the high-2s/low-3s.
	if res.Report.Gamma < 2.3 || res.Report.Gamma > 3.7 {
		t.Fatalf("gamma = %v", res.Report.Gamma)
	}
	if res.Report.Components != 1 {
		t.Fatalf("components = %d", res.Report.Components)
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed missing")
	}
}

func TestStrongScalingOrdering(t *testing.T) {
	pr := model.Params{N: 30000, X: 6, P: 0.5}
	rows, err := StrongScaling(pr, kinds3, []int{8, 32}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	get := func(scheme string, p int) ScalingRow {
		for _, r := range rows {
			if r.Scheme == scheme && r.P == p {
				return r
			}
		}
		t.Fatalf("row %s/%d missing", scheme, p)
		return ScalingRow{}
	}
	// Figure 5's signature: LCP and RRP clearly beat UCP once P is large
	// enough for UCP's imbalance to dominate its locality advantage
	// (at very small P the three schemes track each other, as in the
	// paper's figure).
	ucp := get("UCP", 32).ModelSpeedup
	if lcp := get("LCP", 32).ModelSpeedup; lcp <= ucp*1.2 {
		t.Errorf("P=32: LCP %v not clearly above UCP %v", lcp, ucp)
	}
	if rrp := get("RRP", 32).ModelSpeedup; rrp <= ucp*1.2 {
		t.Errorf("P=32: RRP %v not clearly above UCP %v", rrp, ucp)
	}
	// Speedups grow with P for every scheme.
	for _, scheme := range []string{"UCP", "LCP", "RRP"} {
		if get(scheme, 32).ModelSpeedup <= get(scheme, 8).ModelSpeedup {
			t.Errorf("%s speedup not increasing with P", scheme)
		}
	}
	// UCP's imbalance grows with P; RRP's stays near 1.
	if get("UCP", 32).Imbalance <= get("UCP", 8).Imbalance {
		t.Error("UCP imbalance did not grow with P")
	}
	if get("RRP", 32).Imbalance > 1.1 {
		t.Errorf("RRP imbalance %v at P=32", get("RRP", 32).Imbalance)
	}
	var sb strings.Builder
	if err := WriteScaling(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "model_speedup") {
		t.Fatal("header missing")
	}
}

func TestWeakScalingRowSizes(t *testing.T) {
	rows, err := WeakScaling(20000, 4, 0.5, []partition.Kind{partition.KindRRP}, []int{2, 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// Problem size grows proportionally with P.
	if rows[1].N < rows[0].N*18/10 {
		t.Fatalf("weak scaling sizes: %d then %d", rows[0].N, rows[1].N)
	}
	// Per-rank work constant => imbalance near 1 for RRP.
	for _, r := range rows {
		if r.Imbalance > 1.2 {
			t.Errorf("P=%d imbalance %v", r.P, r.Imbalance)
		}
	}
}

func TestFig7Distributions(t *testing.T) {
	pr := model.Params{N: 20000, X: 5, P: 0.5}
	rows, err := Fig7(pr, kinds3, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 24 {
		t.Fatalf("%d rows", len(rows))
	}
	byScheme := map[string][]Fig7Row{}
	for _, r := range rows {
		byScheme[r.Scheme] = append(byScheme[r.Scheme], r)
	}
	// Figure 7(c): incoming requests decrease with rank under UCP.
	ucp := byScheme["UCP"]
	if ucp[0].Incoming <= ucp[7].Incoming {
		t.Errorf("UCP incoming not decreasing: %d .. %d", ucp[0].Incoming, ucp[7].Incoming)
	}
	// Figure 7(b): UCP rank 0 sends no requests.
	if ucp[0].Outgoing != 0 {
		t.Errorf("UCP rank 0 outgoing = %d", ucp[0].Outgoing)
	}
	// Figure 7(d): RRP total load spread is far tighter than UCP's.
	spread := func(rows []Fig7Row) float64 {
		min, max := rows[0].Total, rows[0].Total
		for _, r := range rows {
			if r.Total < min {
				min = r.Total
			}
			if r.Total > max {
				max = r.Total
			}
		}
		return float64(max-min) / float64(max)
	}
	if sRRP, sUCP := spread(byScheme["RRP"]), spread(ucp); sRRP >= sUCP/2 {
		t.Errorf("RRP spread %v not clearly tighter than UCP %v", sRRP, sUCP)
	}
	var sb strings.Builder
	if err := WriteFig7(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(sb.String()), "\n")) != 25 {
		t.Fatal("TSV rows wrong")
	}
}

func TestXSweep(t *testing.T) {
	rows, err := XSweep(10000, []int{4, 10}, 0.5, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		wantM := int64(r.X*(r.X-1)/2) + (r.N-int64(r.X))*int64(r.X)
		if r.Edges != wantM {
			t.Fatalf("x=%d: edges %d, want %d", r.X, r.Edges, wantM)
		}
		if r.MsgsPerEdge <= 0 || r.MsgsPerEdge > 2 {
			t.Fatalf("x=%d: msgs/edge %v implausible", r.X, r.MsgsPerEdge)
		}
	}
	// Larger x means more duplicate collisions per edge.
	if rows[1].RetriesPerEdge <= rows[0].RetriesPerEdge {
		t.Errorf("retries/edge did not grow with x: %v -> %v",
			rows[0].RetriesPerEdge, rows[1].RetriesPerEdge)
	}
	var sb strings.Builder
	if err := WriteXSweep(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(sb.String()), "\n")) != 3 {
		t.Fatal("TSV rows wrong")
	}
	if _, err := XSweep(5, []int{10}, 0.5, 2, 1); err == nil {
		t.Fatal("invalid n/x accepted")
	}
}

func TestHeadlineThroughput(t *testing.T) {
	pr := model.Params{N: 50000, X: 5, P: 0.5}
	res, err := Headline(pr, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != pr.M() {
		t.Fatalf("edges = %d", res.Edges)
	}
	if res.EdgesPerSec <= 0 {
		t.Fatalf("throughput = %v", res.EdgesPerSec)
	}
}

func TestChainsExperiment(t *testing.T) {
	res, err := Chains(model.Params{N: 50000, X: 1, P: 0.5}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean > res.LogN {
		t.Errorf("mean %v above ln n %v", res.Mean, res.LogN)
	}
	if float64(res.Max) > res.FiveLogN {
		t.Errorf("max %d above 5 ln n %v", res.Max, res.FiveLogN)
	}
}

func TestAccuracyExactBeatsUnsynchronised(t *testing.T) {
	res, err := Accuracy(model.Params{N: 20000, X: 4, P: 0.5}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || res.Rows[0].SyncInterval != 0 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	// The comparison's message: the exact algorithm lands on the
	// sequential reference, the baseline synchronising once (interval n)
	// does not.
	exact, loosest := res.Rows[0], res.Rows[len(res.Rows)-1]
	if exact.GammaError > 0.15 {
		t.Errorf("exact gamma %v vs reference %v", exact.Gamma, res.RefGamma)
	}
	if loosest.GammaError <= exact.GammaError {
		t.Errorf("approx at interval n (error %v) not worse than exact (%v)", loosest.GammaError, exact.GammaError)
	}
	var sb strings.Builder
	if err := WriteAccuracy(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "exact (this paper)\t-\t") {
		t.Fatalf("exact row malformed:\n%s", sb.String())
	}
}
