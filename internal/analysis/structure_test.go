package analysis

import (
	"math"
	"testing"

	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/seq"
	"pagen/internal/xrand"
)

func completeGraph(n int64) *graph.Graph {
	g := graph.New(n)
	for v := int64(1); v < n; v++ {
		for u := int64(0); u < v; u++ {
			g.AddEdge(v, u)
		}
	}
	return g
}

func star(n int64) *graph.Graph {
	g := graph.New(n)
	for v := int64(1); v < n; v++ {
		g.AddEdge(v, 0)
	}
	return g
}

func TestClusteringClique(t *testing.T) {
	c := completeGraph(6).ToCSR()
	if got := GlobalClustering(c); math.Abs(got-1) > 1e-12 {
		t.Fatalf("clique transitivity = %v", got)
	}
	if got := AverageLocalClustering(c); math.Abs(got-1) > 1e-12 {
		t.Fatalf("clique avg local = %v", got)
	}
}

func TestClusteringStar(t *testing.T) {
	c := star(10).ToCSR()
	if got := GlobalClustering(c); got != 0 {
		t.Fatalf("star transitivity = %v", got)
	}
	if got := AverageLocalClustering(c); got != 0 {
		t.Fatalf("star avg local = %v", got)
	}
}

func TestClusteringTriangleWithTail(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 attached to 0.
	g := graph.New(4)
	g.AddEdge(1, 0)
	g.AddEdge(2, 0)
	g.AddEdge(2, 1)
	g.AddEdge(3, 0)
	c := g.ToCSR()
	// Triples: node0 has deg 3 -> 3 triples; nodes 1,2 deg 2 -> 1 each;
	// node3 0. Total 5. Triangle corners: 3. Transitivity = 3/5.
	if got := GlobalClustering(c); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("transitivity = %v, want 0.6", got)
	}
	// Local: node0: 1 link among 3 neighbours -> 1/3; nodes 1,2: 1/1;
	// node3: 0. Average = (1/3 + 1 + 1 + 0)/4.
	want := (1.0/3 + 2) / 4
	if got := AverageLocalClustering(c); math.Abs(got-want) > 1e-12 {
		t.Fatalf("avg local = %v, want %v", got, want)
	}
}

func TestClusteringEmptyGraph(t *testing.T) {
	c := graph.New(5).ToCSR()
	if GlobalClustering(c) != 0 || AverageLocalClustering(c) != 0 {
		t.Fatal("empty graph clustering nonzero")
	}
}

// ringLattice joins every node to its k nearest neighbours on each side
// of a ring of n nodes (degree 2k): Watts–Strogatz at beta = 0.
func ringLattice(n int64, k int) *graph.Graph {
	g := graph.New(n)
	for v := int64(0); v < n; v++ {
		for j := int64(1); j <= int64(k); j++ {
			u := (v + j) % n
			g.AddEdge(max64(u, v), min64(u, v))
		}
	}
	return g
}

// gnp is G(n, p) by one coin flip per node pair.
func gnp(n int64, p float64, rng *xrand.Rand) *graph.Graph {
	g := graph.New(n)
	for v := int64(1); v < n; v++ {
		for u := int64(0); u < v; u++ {
			if rng.Bool(p) {
				g.AddEdge(v, u)
			}
		}
	}
	return g
}

// Local clustering of a ring lattice is the closed form
// 3(k-1) / (2(2k-1)).
func TestRingLatticeClustering(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5} {
		want := 3.0 * float64(k-1) / (2 * float64(2*k-1))
		if got := AverageLocalClustering(ringLattice(300, k).ToCSR()); math.Abs(got-want) > 1e-9 {
			t.Errorf("k=%d: lattice clustering = %v, want %v", k, got, want)
		}
	}
}

// The small-world signature: a ring lattice clusters far more than
// both an equal-size G(n, p) graph and a PA graph of the same mean
// degree.
func TestClusteringContrastAcrossModels(t *testing.T) {
	n := int64(3000)
	lat := ringLattice(n, 3)
	er := gnp(n, 6.0/float64(n-1), xrand.New(3)) // same mean degree 6
	pa, _, err := seq.CopyModel(model.Params{N: n, X: 3, P: 0.5}, 4, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cLat := AverageLocalClustering(lat.ToCSR())
	cER := AverageLocalClustering(er.ToCSR())
	cPA := AverageLocalClustering(pa.ToCSR())
	if cLat < 5*cER {
		t.Errorf("lattice clustering %v not >> G(n, p) %v", cLat, cER)
	}
	if cLat < 3*cPA {
		t.Errorf("lattice clustering %v not >> PA %v", cLat, cPA)
	}
}

func TestAssortativityRegularPositiveCases(t *testing.T) {
	// A cycle is perfectly degree-regular: correlation undefined (den 0).
	g := graph.New(5)
	for v := int64(0); v < 5; v++ {
		g.AddEdge((v+1)%5, v)
	}
	fixed := graph.New(5)
	for _, e := range g.Edges {
		fixed.AddEdge(max64(e.U, e.V), min64(e.U, e.V))
	}
	if r := DegreeAssortativity(fixed); !math.IsNaN(r) {
		t.Fatalf("regular graph r = %v, want NaN", r)
	}
	// Star: every edge joins deg n-1 with deg 1 — perfectly
	// disassortative, r = -1.
	if r := DegreeAssortativity(star(10)); math.Abs(r+1) > 1e-12 {
		t.Fatalf("star r = %v, want -1", r)
	}
	// Empty graph.
	if r := DegreeAssortativity(graph.New(3)); !math.IsNaN(r) {
		t.Fatalf("empty r = %v", r)
	}
}

func TestPANetworksWeaklyDisassortative(t *testing.T) {
	pa, _, err := seq.CopyModel(model.Params{N: 30000, X: 4, P: 0.5}, 5, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := DegreeAssortativity(pa)
	if r > 0.02 || r < -0.3 {
		t.Fatalf("PA assortativity = %v, want weakly negative", r)
	}
}

func TestAverageShortestPathSample(t *testing.T) {
	// Path graph 0-1-2-3-4: from source 0, distances 1..4, mean 2.5.
	g := graph.New(5)
	for v := int64(1); v < 5; v++ {
		g.AddEdge(v, v-1)
	}
	got := AverageShortestPathSample(g.ToCSR(), 1, func(n int64) int64 { return 0 })
	if math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("avg path = %v, want 2.5", got)
	}
	// Empty graph -> NaN.
	if v := AverageShortestPathSample(graph.New(0).ToCSR(), 1, func(n int64) int64 { return 0 }); !math.IsNaN(v) {
		t.Fatalf("empty = %v", v)
	}
	// Isolated nodes -> NaN (no reachable pairs).
	if v := AverageShortestPathSample(graph.New(3).ToCSR(), 2, func(n int64) int64 { return 1 }); !math.IsNaN(v) {
		t.Fatalf("isolated = %v", v)
	}
}

// PA networks are small worlds in the path-length sense: average
// distance grows ~log n.
func TestPAShortPaths(t *testing.T) {
	pa, _, err := seq.CopyModel(model.Params{N: 20000, X: 4, P: 0.5}, 6, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	avg := AverageShortestPathSample(pa.ToCSR(), 8, rng.Int64n)
	if avg > 2*math.Log(20000) {
		t.Fatalf("avg path %v too long for a scale-free graph", avg)
	}
	if avg < 1 {
		t.Fatalf("avg path %v nonsensical", avg)
	}
}

func TestKCoresHandComputed(t *testing.T) {
	// Triangle 0-1-2 with pendant 3 on 0 and isolated 4:
	// cores: 0,1,2 -> 2; 3 -> 1; 4 -> 0.
	g := graph.New(5)
	g.AddEdge(1, 0)
	g.AddEdge(2, 0)
	g.AddEdge(2, 1)
	g.AddEdge(3, 0)
	core := KCores(g.ToCSR())
	want := []int64{2, 2, 2, 1, 0}
	for i, w := range want {
		if core[i] != w {
			t.Fatalf("cores = %v, want %v", core, want)
		}
	}
	if MaxCore(g.ToCSR()) != 2 {
		t.Fatal("MaxCore wrong")
	}
}

func TestKCoresClique(t *testing.T) {
	core := KCores(completeGraph(7).ToCSR())
	for u, k := range core {
		if k != 6 {
			t.Fatalf("node %d core %d, want 6", u, k)
		}
	}
}

func TestKCoresEmpty(t *testing.T) {
	if got := KCores(graph.New(0).ToCSR()); len(got) != 0 {
		t.Fatalf("cores = %v", got)
	}
	core := KCores(graph.New(4).ToCSR())
	for _, k := range core {
		if k != 0 {
			t.Fatalf("isolated core = %v", core)
		}
	}
}

// A PA graph with parameter x has degeneracy exactly x: every node
// beyond the clique attaches with x edges to earlier nodes, so the
// x-core is the whole graph minus nothing... more precisely peeling by
// label order removes each node at degree x.
func TestKCoresPAGraphDegeneracy(t *testing.T) {
	x := 4
	g, _, err := seq.CopyModel(model.Params{N: 5000, X: x, P: 0.5}, 8, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := MaxCore(g.ToCSR()); got != int64(x) {
		t.Fatalf("PA degeneracy = %d, want %d", got, x)
	}
}

// Property: core numbers are bounded by degree and the k-core subgraph
// induced by {v : core[v] >= k} has min degree >= k for k = MaxCore.
func TestKCoresTopCoreWellFormed(t *testing.T) {
	g, _, err := seq.CopyModel(model.Params{N: 3000, X: 3, P: 0.5}, 9, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	csr := g.ToCSR()
	core := KCores(csr)
	kmax := MaxCore(csr)
	inTop := make(map[int64]bool)
	for u, k := range core {
		if k > csr.Degree(int64(u)) {
			t.Fatalf("core[%d] = %d exceeds degree %d", u, k, csr.Degree(int64(u)))
		}
		if k >= kmax {
			inTop[int64(u)] = true
		}
	}
	for u := range inTop {
		cnt := 0
		for _, v := range csr.Neighbors(u) {
			if inTop[v] {
				cnt++
			}
		}
		if int64(cnt) < kmax {
			t.Fatalf("node %d has only %d top-core neighbours, want >= %d", u, cnt, kmax)
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
