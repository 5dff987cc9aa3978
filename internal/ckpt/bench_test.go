package ckpt

import "testing"

// epochSnapshot builds a snapshot shaped like one rank's epoch of a
// two-rank run at n = 10⁶, x = 4: its identity, counters and sink mark.
func epochSnapshot() *Snapshot {
	return &Snapshot{
		Meta: Meta{N: 1_000_000, X: 4, P: 0.5, Seed: 42, Ranks: 2, Rank: 1,
			Scheme: "RRP"},
		Epoch: 5,
		Stats: Stats{Retries: 1234, QueuedWaits: 56789, LocalWaits: 4321},
		Sink:  SinkMark{Offset: 7_400_000, Blocks: 31, Edges: 1_990_000},
	}
}

// BenchmarkEncode measures the background writer's encode step for one
// epoch: one allocation of tens of bytes.
func BenchmarkEncode(b *testing.B) {
	s := epochSnapshot()
	b.SetBytes(int64(len(Encode(s))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(Encode(s)) == 0 {
			b.Fatal("empty encoding")
		}
	}
}
