package pagen

import (
	"pagen/internal/analysis"
	"pagen/internal/approx"
	"pagen/internal/model"
	"pagen/internal/xrand"
)

// This file exposes what surrounds the core PA algorithm: the
// approximate distributed PA baseline of Yoo & Henderson the paper
// improves on (GenerateApprox), and the standard network-structure
// metrics.

// ApproxConfig configures GenerateApprox.
type ApproxConfig struct {
	// N, X as in Config.
	N int64
	X int
	// Ranks is the number of parallel workers.
	Ranks int
	// SyncInterval is the block size between degree-table
	// synchronisations — the accuracy control parameter of the
	// approximate algorithm (0 = default).
	SyncInterval int64
	// Seed seeds the per-worker random streams.
	Seed uint64
}

// GenerateApprox runs the Yoo–Henderson-style approximate distributed
// preferential-attachment baseline: parallel within synchronised blocks,
// sampling from degree tables that are stale by up to SyncInterval
// nodes. Its degree distribution only approximates PA, with error
// growing in SyncInterval — the inaccuracy the exact algorithm
// (Generate) eliminates.
func GenerateApprox(cfg ApproxConfig) (*Graph, error) {
	pr := model.Params{N: cfg.N, X: cfg.X, P: DefaultP}
	return approx.Generate(pr, approx.Options{
		SyncInterval: cfg.SyncInterval,
		Ranks:        cfg.Ranks,
		Seed:         cfg.Seed,
	})
}

// GlobalClustering returns the graph's transitivity
// (3 × triangles / connected triples).
func GlobalClustering(g *Graph) float64 {
	return analysis.GlobalClustering(g.ToCSR())
}

// AverageLocalClustering returns the mean Watts–Strogatz local
// clustering coefficient.
func AverageLocalClustering(g *Graph) float64 {
	return analysis.AverageLocalClustering(g.ToCSR())
}

// DegreeAssortativity returns Newman's degree-assortativity coefficient.
func DegreeAssortativity(g *Graph) float64 {
	return analysis.DegreeAssortativity(g)
}

// AveragePathLength estimates the mean shortest-path length by BFS from
// a random sample of sources.
func AveragePathLength(g *Graph, sources int, seed uint64) float64 {
	rng := xrand.New(seed)
	return analysis.AverageShortestPathSample(g.ToCSR(), sources, rng.Int64n)
}

// CoreNumbers returns the k-core number of every node (Batagelj–
// Zaveršnik peeling).
func CoreNumbers(g *Graph) []int64 {
	return analysis.KCores(g.ToCSR())
}

// Degeneracy returns the graph's largest core number; for a PA graph
// with parameter x it equals x.
func Degeneracy(g *Graph) int64 {
	return analysis.MaxCore(g.ToCSR())
}
