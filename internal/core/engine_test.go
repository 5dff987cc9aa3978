package core

import (
	"math"
	"testing"
	"testing/quick"

	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/seq"
	"pagen/internal/stats"
)

func mustScheme(t testing.TB, kind partition.Kind, n int64, p int) partition.Scheme {
	t.Helper()
	s, err := partition.New(kind, n, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runFor(t testing.TB, pr model.Params, kind partition.Kind, p int, seed uint64) *Result {
	t.Helper()
	res, err := Run(Options{
		Params: pr,
		Part:   mustScheme(t, kind, pr.N, p),
		Seed:   seed,
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var allKinds = []partition.Kind{partition.KindUCP, partition.KindLCP, partition.KindRRP, partition.KindExactCP}

// The load-bearing correctness test: for every scheme and several rank
// counts, the parallel output must have the exact edge count, no
// self-loops, no parallel edges, backward-pointing edges, and one
// connected component.
func TestParallelStructuralInvariants(t *testing.T) {
	cases := []struct {
		pr model.Params
		p  int
	}{
		{model.Params{N: 2, X: 1, P: 0.5}, 1},
		{model.Params{N: 50, X: 1, P: 0.5}, 4},
		{model.Params{N: 500, X: 1, P: 0.5}, 7},
		{model.Params{N: 500, X: 4, P: 0.5}, 1},
		{model.Params{N: 500, X: 4, P: 0.5}, 5},
		{model.Params{N: 2000, X: 8, P: 0.5}, 16},
		{model.Params{N: 300, X: 2, P: 0.9}, 3},
		{model.Params{N: 300, X: 2, P: 0.1}, 3},
		{model.Params{N: 12, X: 10, P: 0.5}, 4}, // nearly all clique
	}
	for _, c := range cases {
		for _, kind := range allKinds {
			res := runFor(t, c.pr, kind, c.p, 99)
			g := res.Graph
			if g.M() != c.pr.M() {
				t.Fatalf("%v p=%d %+v: m = %d, want %d", kind, c.p, c.pr, g.M(), c.pr.M())
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%v p=%d %+v: %v", kind, c.p, c.pr, err)
			}
			for _, e := range g.Edges {
				if e.U <= e.V {
					t.Fatalf("%v p=%d: non-backward edge (%d,%d)", kind, c.p, e.U, e.V)
				}
			}
			if comp := g.ToCSR().ConnectedComponents(); comp != 1 {
				t.Fatalf("%v p=%d %+v: %d components", kind, c.p, c.pr, comp)
			}
		}
	}
}

// Single-rank parallel execution must match the sequential copy model
// exactly (same seed stream, same draws, no messages).
func TestSingleRankMatchesSequential(t *testing.T) {
	pr := model.Params{N: 3000, X: 3, P: 0.5}
	res := runFor(t, pr, partition.KindUCP, 1, 7)

	gSeq, _, err := seq.CopyModel(pr, 7, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.M() != gSeq.M() {
		t.Fatalf("edge counts differ: %d vs %d", res.Graph.M(), gSeq.M())
	}
	// Compare as edge sets: emission order differs (parallel emits
	// clique edges at bootstrap).
	set := make(map[graph.Edge]bool, gSeq.M())
	for _, e := range gSeq.Edges {
		set[e.Canonical()] = true
	}
	for _, e := range res.Graph.Edges {
		if !set[e.Canonical()] {
			t.Fatalf("edge %v not in sequential output", e)
		}
	}
	st := res.Ranks[0]
	if st.Comm.RequestsSent != 0 || st.Comm.ResolvedSent != 0 {
		t.Fatalf("single rank sent messages: %+v", st.Comm)
	}
}

// x = 1 runs are fully deterministic (no duplicate retries), so the
// attachment of every node must be identical no matter how many ranks or
// which scheme computed it.
func TestX1DeterministicAcrossRankCounts(t *testing.T) {
	pr := model.Params{N: 2000, X: 1, P: 0.5}
	want := attachments(t, runFor(t, pr, partition.KindUCP, 1, 13))
	for _, kind := range allKinds {
		for _, p := range []int{2, 5, 16} {
			got := attachments(t, runFor(t, pr, kind, p, 13))
			for u := range want {
				if got[u] != want[u] {
					t.Fatalf("%v p=%d: F_%d = %d, want %d", kind, p, u, got[u], want[u])
				}
			}
		}
	}
}

// attachments extracts F_t for x = 1 graphs (the non-clique endpoint map).
func attachments(t *testing.T, res *Result) map[int64]int64 {
	t.Helper()
	f := make(map[int64]int64, res.Graph.M())
	for _, e := range res.Graph.Edges {
		if _, dup := f[e.U]; dup {
			t.Fatalf("node %d has two attachments", e.U)
		}
		f[e.U] = e.V
	}
	return f
}

// The same seed must give the same x=1 graph on repeated runs with the
// same configuration.
func TestRepeatabilitySameConfig(t *testing.T) {
	pr := model.Params{N: 3000, X: 1, P: 0.5}
	a := attachments(t, runFor(t, pr, partition.KindRRP, 4, 21))
	b := attachments(t, runFor(t, pr, partition.KindRRP, 4, 21))
	for u, v := range a {
		if b[u] != v {
			t.Fatalf("run differs at node %d", u)
		}
	}
}

// Degree distribution from a multi-rank run must match the sequential
// copy model's distribution (same model, independent randomness).
func TestParallelMatchesSequentialDistribution(t *testing.T) {
	pr := model.Params{N: 20000, X: 4, P: 0.5}
	res := runFor(t, pr, partition.KindRRP, 8, 31)
	gSeq, _, err := seq.CopyModel(pr, 32, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hp := res.Graph.DegreeHistogram()
	hs := gSeq.DegreeHistogram()
	for d := int64(4); d <= 12; d++ {
		pp := float64(hp.Count(d)) / float64(pr.N)
		ps := float64(hs.Count(d)) / float64(pr.N)
		if math.Abs(pp-ps) > 0.015 {
			t.Errorf("P(deg=%d): parallel %.4f vs sequential %.4f", d, pp, ps)
		}
	}
}

// Power-law output: the parallel generator's degree distribution must be
// heavy-tailed with a BA-range exponent (the paper's Figure 4 check).
func TestParallelPowerLaw(t *testing.T) {
	pr := model.Params{N: 30000, X: 4, P: 0.5}
	res := runFor(t, pr, partition.KindLCP, 8, 41)
	fit, err := stats.PowerLawMLE(res.Graph.Degrees(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Gamma < 2.3 || fit.Gamma > 3.6 {
		t.Fatalf("gamma = %v", fit.Gamma)
	}
}

// Message counters must be conserved: total sent == total received, and
// every request gets exactly one resolved answer... minus the requests
// answered locally. Cross-rank message conservation is exact.
func TestMessageConservation(t *testing.T) {
	pr := model.Params{N: 10000, X: 4, P: 0.5}
	for _, kind := range allKinds {
		res := runFor(t, pr, kind, 8, 51)
		var reqS, reqR, resS, resR int64
		for _, st := range res.Ranks {
			reqS += st.Comm.RequestsSent
			reqR += st.Comm.RequestsRecv
			resS += st.Comm.ResolvedSent
			resR += st.Comm.ResolvedRecv
		}
		if reqS != reqR {
			t.Fatalf("%v: requests sent %d != received %d", kind, reqS, reqR)
		}
		if resS != resR {
			t.Fatalf("%v: resolved sent %d != received %d", kind, resS, resR)
		}
		if reqS == 0 {
			t.Fatalf("%v: multi-rank run sent no requests", kind)
		}
	}
}

// With consecutive partitioning, requests only flow to lower ranks
// (Section 4.6.2: "processor i sends outgoing request messages to
// processors 0 to i-1"); rank 0 sends none.
func TestConsecutiveRequestDirection(t *testing.T) {
	pr := model.Params{N: 10000, X: 4, P: 0.5}
	res := runFor(t, pr, partition.KindUCP, 8, 61)
	if res.Ranks[0].Comm.RequestsSent != 0 {
		t.Fatalf("rank 0 sent %d requests", res.Ranks[0].Comm.RequestsSent)
	}
	// Low ranks receive more requests than high ranks (Lemma 3.4).
	if res.Ranks[0].Comm.RequestsRecv <= res.Ranks[7].Comm.RequestsRecv {
		t.Fatalf("rank 0 received %d requests, rank 7 received %d — expected decreasing",
			res.Ranks[0].Comm.RequestsRecv, res.Ranks[7].Comm.RequestsRecv)
	}
	// The full request matrix must be strictly lower-triangular: rank i
	// requests only from ranks j < i (k < t and consecutive partitions).
	for i, st := range res.Ranks {
		for j, cnt := range st.RequestsTo {
			if j >= i && cnt != 0 {
				t.Fatalf("rank %d sent %d requests to rank %d (not lower-triangular)", i, cnt, j)
			}
		}
	}
}

// Under RRP every rank requests from every other rank (no triangular
// structure): the matrix is dense off the diagonal.
func TestRRPRequestMatrixDense(t *testing.T) {
	pr := model.Params{N: 10000, X: 4, P: 0.5}
	res := runFor(t, pr, partition.KindRRP, 4, 63)
	for i, st := range res.Ranks {
		for j, cnt := range st.RequestsTo {
			if j == i {
				if cnt != 0 {
					t.Fatalf("rank %d 'sent' %d requests to itself", i, cnt)
				}
				continue
			}
			if cnt == 0 {
				t.Fatalf("rank %d sent no requests to rank %d under RRP", i, j)
			}
		}
	}
}

// Buffering reduces transport frames without changing logical traffic.
func TestBufferingAblation(t *testing.T) {
	pr := model.Params{N: 8000, X: 4, P: 0.5}
	part := mustScheme(t, partition.KindRRP, pr.N, 8)
	run := func(cap int) (logical, frames int64) {
		res, err := Run(Options{Params: pr, Part: part, Seed: 71, bufferCap: cap}, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range res.Ranks {
			logical += st.Comm.MessagesSent()
			frames += st.Comm.FramesSent
		}
		return logical, frames
	}
	logU, framesU := run(1)   // unbuffered
	logB, framesB := run(256) // buffered
	if framesU != logU {
		t.Fatalf("unbuffered frames %d != logical %d", framesU, logU)
	}
	if framesB >= framesU/4 {
		t.Fatalf("buffering saved too little: %d frames vs %d unbuffered", framesB, framesU)
	}
	// Logical message counts are statistically similar (same model; the
	// exact count varies with retry interleaving).
	ratio := float64(logB) / float64(logU)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("logical traffic changed with buffering: %d vs %d", logB, logU)
	}
}

// Trace collection in parallel mode: slots are all recorded and copy
// fractions are sane.
func TestParallelTrace(t *testing.T) {
	pr := model.Params{N: 5000, X: 2, P: 0.5}
	res, err := Run(Options{
		Params: pr,
		Part:   mustScheme(t, partition.KindRRP, pr.N, 4),
		Seed:   81,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("trace missing")
	}
	copied := 0
	for i := 0; i < res.Trace.Slots(); i++ {
		if res.Trace.Copied[i] {
			copied++
			if res.Trace.K[i] < 2 {
				t.Fatalf("slot %d copies from clique node %d", i, res.Trace.K[i])
			}
		}
	}
	frac := float64(copied) / float64(res.Trace.Slots())
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("copied fraction %v", frac)
	}
}

// Stats sanity: nodes add up, loads are positive, busy <= wall.
func TestRankStats(t *testing.T) {
	pr := model.Params{N: 6000, X: 3, P: 0.5}
	res := runFor(t, pr, partition.KindLCP, 6, 91)
	var nodes int64
	for r, st := range res.Ranks {
		if st.Rank != r {
			t.Fatalf("rank field = %d at index %d", st.Rank, r)
		}
		nodes += st.Nodes
		if st.TotalLoad() < st.Nodes {
			t.Fatalf("rank %d: total load %d below node count", r, st.TotalLoad())
		}
		if st.BusyTime < 0 || st.BusyTime > st.WallTime {
			t.Fatalf("rank %d: busy %v wall %v", r, st.BusyTime, st.WallTime)
		}
	}
	if nodes != pr.N {
		t.Fatalf("nodes sum to %d", nodes)
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
}

// Error paths of Run/RunRank.
func TestRunErrors(t *testing.T) {
	pr := model.Params{N: 100, X: 2, P: 0.5}
	if _, err := Run(Options{Params: pr}, false); err == nil {
		t.Error("nil partition accepted")
	}
	if _, err := Run(Options{Params: model.Params{N: 0, X: 2, P: 0.5},
		Part: mustScheme(t, partition.KindUCP, 100, 2)}, false); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := Run(Options{Params: pr,
		Part: mustScheme(t, partition.KindUCP, 99, 2)}, false); err == nil {
		t.Error("partition/params size mismatch accepted")
	}
}

// Many ranks relative to nodes: partitions with zero generating nodes
// must still participate in termination correctly.
func TestManyRanksFewNodes(t *testing.T) {
	pr := model.Params{N: 40, X: 3, P: 0.5}
	for _, kind := range allKinds {
		res := runFor(t, pr, kind, 16, 101)
		if res.Graph.M() != pr.M() {
			t.Fatalf("%v: m = %d", kind, res.Graph.M())
		}
		if err := res.Graph.Validate(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

// Stress: a larger run on every scheme exercising deep dependency chains
// and heavy cross-rank traffic, to shake out termination races. Run with
// -race in CI for full effect.
func TestStressAllSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	pr := model.Params{N: 60000, X: 6, P: 0.5}
	for _, kind := range allKinds {
		res := runFor(t, pr, kind, 32, 111)
		if err := res.Graph.Validate(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if comp := res.Graph.ToCSR().ConnectedComponents(); comp != 1 {
			t.Fatalf("%v: %d components", kind, comp)
		}
	}
}

// Property: random small configurations across all schemes must always
// produce structurally valid, complete graphs.
func TestEngineRandomConfigsProperty(t *testing.T) {
	f := func(nRaw uint16, xRaw, pRaw, ranksRaw, kindRaw uint8) bool {
		x := int(xRaw%6) + 1
		n := int64(x) + 2 + int64(nRaw%800)
		p := 0.05 + float64(pRaw%90)/100 // [0.05, 0.95)
		ranks := int(ranksRaw%12) + 1
		kind := allKinds[int(kindRaw)%len(allKinds)]
		pr := model.Params{N: n, X: x, P: p}
		if pr.Validate() != nil {
			return true // skip invalid corner draws
		}
		part, err := partition.New(kind, n, ranks)
		if err != nil {
			return false
		}
		res, err := Run(Options{Params: pr, Part: part, Seed: uint64(nRaw) + 1}, false)
		if err != nil {
			t.Logf("%v n=%d x=%d p=%v ranks=%d: %v", kind, n, x, p, ranks, err)
			return false
		}
		if res.Graph.M() != pr.M() {
			return false
		}
		return res.Graph.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Seeded delayed and reordered delivery must not change correctness:
// the protocol tolerates any per-channel-FIFO interleaving (DESIGN.md
// §8.1), so the graph is still complete and the model's.
func TestEngineSurvivesChaosDelay(t *testing.T) {
	c := simConfig{N: 6_000, X: 3, P: 0.5, Seed: 11, Scheme: partition.KindRRP, Ranks: 4, Workers: 1, Deliver: 0.1}
	for _, sched := range []uint64{100, 101, 102} {
		c.Sched = sched
		checkSims(t, c)
	}
}

func BenchmarkParallelRRP8(b *testing.B) {
	pr := model.Params{N: 100000, X: 4, P: 0.5}
	part := mustScheme(b, partition.KindRRP, pr.N, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Options{Params: pr, Part: part, Seed: uint64(i)}, false); err != nil {
			b.Fatal(err)
		}
	}
}
