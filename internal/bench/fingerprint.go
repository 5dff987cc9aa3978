package bench

import (
	"pagen/internal/core"
	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/partition"
)

// FingerprintAt hashes the output graph of an RRP run at p = 0.5 and an
// explicit worker count with graph.Fingerprint — the regression check
// behind "output is byte-identical across worker counts". The hash is
// order-sensitive at every rank count: Run's edge list is the ranks'
// ranges in rank order, each in local-index order, so it does not
// depend on the message schedule either.
func FingerprintAt(n int64, x int, ranks, workers int, seed uint64) (uint64, error) {
	pr := model.Params{N: n, X: x, P: 0.5}
	if err := pr.Validate(); err != nil {
		return 0, err
	}
	part, err := partition.New(partition.KindRRP, n, ranks)
	if err != nil {
		return 0, err
	}
	res, err := core.Run(core.Options{Params: pr, Part: part, Seed: seed, Workers: workers}, false)
	if err != nil {
		return 0, err
	}
	return graph.Fingerprint(graph.IterEdges(res.Graph))
}
