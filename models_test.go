package pagen

import (
	"math"
	"testing"
)

func TestGenerateApproxFacade(t *testing.T) {
	g, err := GenerateApprox(ApproxConfig{N: 5000, X: 3, Ranks: 4, SyncInterval: 256, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() != 3+(5000-3)*3 {
		t.Fatalf("m = %d", g.M())
	}
}

// The structure the intro ascribes to PA: heavy-tailed, short-pathed
// and weakly disassortative.
func TestPAStructure(t *testing.T) {
	const n = 5000
	pa, err := Generate(Config{N: n, X: 3, Ranks: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	// Heavy tail: hubs far above the mean degree 2m/n ≈ 2x.
	maxDeg, _ := pa.Graph.DegreeHistogram().Max()
	mean := 2 * float64(pa.Graph.M()) / n
	if float64(maxDeg) < 10*mean {
		t.Errorf("PA max degree %d not >= 10 × mean degree %.2f", maxDeg, mean)
	}
	// Short paths.
	if apl := AveragePathLength(pa.Graph, 4, 11); apl > 2*math.Log(n) {
		t.Errorf("PA average path length %v too long", apl)
	}
	// Weakly disassortative.
	if r := DegreeAssortativity(pa.Graph); r > 0.05 {
		t.Errorf("PA assortativity %v unexpectedly positive", r)
	}
}

// Accuracy comparison between the exact parallel algorithm and the
// approximate baseline: with a loose sync interval, the approximation's
// exponent drifts from the exact algorithm's; the exact algorithm and
// the sequential reference agree.
func TestExactBeatsApproxAccuracy(t *testing.T) {
	const n = 20000
	exact, err := Generate(Config{N: n, X: 4, Ranks: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	repExact, err := Analyze(exact.Graph, 8)
	if err != nil {
		t.Fatal(err)
	}
	seqG, _, err := GenerateSeq(Config{N: n, X: 4, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	repSeq, err := Analyze(seqG, 8)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := GenerateApprox(ApproxConfig{N: n, X: 4, Ranks: 8, SyncInterval: n, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	repLoose, err := Analyze(loose, 8)
	if err != nil {
		t.Fatal(err)
	}
	exactDev := math.Abs(repExact.Gamma - repSeq.Gamma)
	looseDev := math.Abs(repLoose.Gamma - repSeq.Gamma)
	if exactDev > 0.15 {
		t.Errorf("exact parallel gamma %v deviates %v from sequential %v",
			repExact.Gamma, exactDev, repSeq.Gamma)
	}
	if looseDev <= exactDev {
		t.Errorf("approximation (dev %v) not worse than exact (dev %v)", looseDev, exactDev)
	}
}

func TestDegeneracyOfPAGraph(t *testing.T) {
	res, err := Generate(Config{N: 4000, X: 5, Ranks: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if d := Degeneracy(res.Graph); d != 5 {
		t.Fatalf("degeneracy = %d, want 5", d)
	}
	cores := CoreNumbers(res.Graph)
	if len(cores) != 4000 {
		t.Fatalf("core numbers for %d nodes", len(cores))
	}
}
