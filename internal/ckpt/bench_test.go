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
// epoch with the pooled Encoder. After the first call grows the scratch
// buffer, steady state is zero allocations per epoch.
func BenchmarkEncode(b *testing.B) {
	s := epochSnapshot()
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

// TestEncoderSteadyStateAllocs pins the pooling contract the background
// writer relies on: once the scratch buffer has grown, Encode allocates
// nothing.
func TestEncoderSteadyStateAllocs(t *testing.T) {
	s := epochSnapshot()
	var enc Encoder
	enc.Encode(s)
	if avg := testing.AllocsPerRun(5, func() { enc.Encode(s) }); avg > 0 {
		t.Errorf("steady-state Encode allocates %.1f objects per epoch, want 0", avg)
	}
}
