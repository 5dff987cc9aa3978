package core

import (
	"testing"

	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/transport"
)

// reopenAndInitiate re-opens the slots of the batchNodes nodes at local
// indices [lo, lo+batchNodes) and starts them again through the batch
// entry point, so the draw, gather and commit phases run exactly as at
// generation time.
func reopenAndInitiate(e *engine, lo int64) {
	for s := lo * e.x64; s < (lo+batchNodes)*e.x64; s++ {
		e.f[s] = -1
	}
	e.cursor = lo
	e.initiate()
}

// reportPerNode converts the per-iteration (one batch) time into the
// per-node figure the ledger rows are read in.
func reportPerNode(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchNodes), "ns/node")
}

// BenchmarkHotPathEngine measures the steady-state generation loop: one
// batch of batchNodes nodes' x attachment placements (initiate →
// drawGather → commit → resolveSlot → emit) against a warm one-worker
// engine with a no-op sink. This is the zero-allocation claim of the hot
// path — after bootstrap, expect 0 allocs/op: the per-node RNG stream
// and the stripe scratch live on the lane, the waiter table recycles its
// arena, and the sink bypasses the edge store.
func BenchmarkHotPathEngine(b *testing.B) {
	const (
		n = int64(1 << 16)
		x = 4
	)
	pr := model.Params{N: n, X: x, P: 0.5}
	part, err := partition.New(partition.KindRRP, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := transport.NewLocalGroup(1)
	if err != nil {
		b.Fatal(err)
	}
	e, err := newEngine(g.Endpoint(0), Options{
		Params:  pr,
		Part:    part,
		Seed:    1,
		Workers: 1,
		Sink:    func(int, graph.Edge) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	e.bootstrap()

	// First pass generates the graph; later passes re-open settled
	// nodes. Every earlier node stays resolved, so copy sources answer
	// immediately, as in a settled single-rank run (one rank: local
	// index = node id).
	lo := int64(x + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lo+batchNodes > n {
			lo = x + 1
		}
		reopenAndInitiate(e, lo)
		if e.err != nil {
			b.Fatal(e.err)
		}
		lo += batchNodes
	}
	reportPerNode(b)
}
