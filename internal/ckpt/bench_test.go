package ckpt

import (
	"math/rand"
	"testing"
)

// epochSnapshot builds a snapshot shaped like one rank's epoch of a
// two-rank run at n = 10⁶, x = 4: susp suspended nodes, waiters queued
// waiter records two per slot, remote coalescing-chain records in chains
// of two and the sink mark. (240, 1000, 200) encodes to about the 17 KB
// per epoch such a run writes.
func epochSnapshot(susp, waiters, remote int) *Snapshot {
	const nodes, x = 500_000, 4
	rng := rand.New(rand.NewSource(7))
	s := &Snapshot{
		Meta: Meta{N: 2 * nodes, X: x, P: 0.5, Seed: 42, Ranks: 2, Rank: 1,
			Scheme: "RRP"},
		Epoch: 5,
		Stats: Stats{Retries: 1234, QueuedWaits: 56789, LocalWaits: 4321},
		Sink:  SinkMark{Offset: 7_400_000, Blocks: 31, Edges: 1_990_000},
	}
	for i := 0; i < susp; i++ {
		idx, edge := rng.Int63n(nodes), rng.Intn(x-1)
		s.Susp = append(s.Susp, SuspRecord{Idx: idx, Edge: edge, Retry: rng.Intn(2)})
		s.Ahead = append(s.Ahead, AheadRecord{Slot: idx*x + int64(edge) + 1, V: rng.Int63n(2 * nodes)})
	}
	for i := 0; i < waiters; i++ {
		s.Waiters = append(s.Waiters, WaiterRecord{
			Slot: int64(i/2) * 1601 % (nodes * x), T: rng.Int63n(2 * nodes), E: uint16(rng.Intn(x)),
		})
	}
	for i := 0; i < remote; i++ {
		s.Remote = append(s.Remote, WaiterRecord{
			Slot: int64(i/2)*977 + 1, T: rng.Int63n(2 * nodes), E: uint16(rng.Intn(x)),
		})
	}
	return s
}

// BenchmarkEncode measures the background writer's encode step for one
// epoch with the pooled Encoder. After the first call grows the scratch
// buffer, steady state is zero allocations per epoch.
func BenchmarkEncode(b *testing.B) {
	s := epochSnapshot(240, 1000, 200)
	var enc Encoder
	b.SetBytes(int64(len(enc.Encode(s)))) // warms the scratch buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(enc.Encode(s)) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// TestEncoderSteadyStateAllocs pins the pooling contract the capture
// pause relies on: once the scratch buffer has grown to the snapshot's
// size, Encode allocates nothing.
func TestEncoderSteadyStateAllocs(t *testing.T) {
	s := epochSnapshot(240, 1000, 200)
	var enc Encoder
	enc.Encode(s)
	if avg := testing.AllocsPerRun(5, func() { enc.Encode(s) }); avg > 0 {
		t.Errorf("steady-state Encode allocates %.1f objects per epoch, want 0", avg)
	}
}
