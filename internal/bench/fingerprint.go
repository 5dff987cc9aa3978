package bench

import (
	"hash/fnv"

	"pagen/internal/core"
	"pagen/internal/model"
	"pagen/internal/partition"
)

// Fingerprint hashes the output graph of a run at one worker per rank —
// the exactness regression check behind "single-rank output is
// byte-identical across hot-path optimisations". See FingerprintAt for
// the hash construction.
func Fingerprint(n int64, x int, ranks int, seed uint64) (uint64, error) {
	return FingerprintAt(n, x, ranks, 1, seed)
}

// FingerprintAt hashes the output graph of an RRP run at p = 0.5 and an
// explicit worker count — the regression check behind "output is
// byte-identical across worker counts". For ranks == 1 the hash is
// order-sensitive (FNV-1a over the edge stream, which single-rank runs
// emit in node order at any worker count); for ranks > 1 it is an
// order-insensitive XOR of per-edge hashes, since multi-rank merge
// order is set by rank, not by time.
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
	if ranks == 1 {
		h := fnv.New64a()
		var buf [16]byte
		for _, e := range res.Graph.Edges {
			putEdge(&buf, e.U, e.V)
			h.Write(buf[:])
		}
		return h.Sum64(), nil
	}
	var acc uint64
	var buf [16]byte
	for _, e := range res.Graph.Edges {
		h := fnv.New64a()
		putEdge(&buf, e.U, e.V)
		h.Write(buf[:])
		acc ^= h.Sum64()
	}
	return acc, nil
}

func putEdge(buf *[16]byte, u, v int64) {
	for i := 0; i < 8; i++ {
		buf[i] = byte(u >> (8 * i))
		buf[8+i] = byte(v >> (8 * i))
	}
}
