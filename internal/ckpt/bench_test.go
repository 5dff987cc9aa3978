package ckpt

import (
	"math/rand"
	"testing"

	"pagen/internal/msg"
)

// epochSnapshot builds a snapshot shaped like one rank's epoch of a
// two-rank run at n = 10⁶, x = 4: susp suspended nodes, waiters queued
// waiter records two per slot, remote coalescing-chain records in chains
// of two, one buffered outbound frame per peer and the sink mark.
// (240, 1000, 200) encodes to about the 18 KB per epoch such a run
// writes.
func epochSnapshot(susp, waiters, remote int) *Snapshot {
	const nodes, x = 500_000, 4
	rng := rand.New(rand.NewSource(7))
	ws := WorkerState{Lo: 0, Hi: nodes}
	for i := 0; i < susp; i++ {
		ws.Susp = append(ws.Susp, SuspRecord{
			Idx:  rng.Int63n(nodes),
			Edge: rng.Intn(x),
			RNG:  [4]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()},
		})
	}
	for i := 0; i < waiters; i++ {
		ws.Waiters = append(ws.Waiters, WaiterRecord{
			Slot: int64(i/2) * 1601 % (nodes * x), T: rng.Int63n(2 * nodes), E: uint16(rng.Intn(x)),
		})
	}
	for i := 0; i < remote; i++ {
		ws.Remote = append(ws.Remote, WaiterRecord{
			Slot: int64(i/2)*977 + 1, T: rng.Int63n(2 * nodes), E: uint16(rng.Intn(x)),
		})
	}
	var ms []msg.Message
	for i := 0; i < 64; i++ {
		t := 2*nodes - rng.Int63n(nodes)
		ms = append(ms, msg.Request(t, rng.Intn(x), rng.Int63n(t), rng.Intn(x)), msg.Resolved(t, rng.Intn(x), rng.Int63n(t)))
	}
	return &Snapshot{
		Meta: Meta{N: 2 * nodes, X: x, P: 0.5, Seed: 42, Ranks: 2, Rank: 1,
			Scheme: "RRP"},
		Epoch:    5,
		NextTag:  17,
		Workers:  []WorkerState{ws},
		Outbound: []OutboundBatch{{To: 0, Frame: msg.AppendEncodeBatchV3(nil, ms)}},
		Stats:    Stats{Retries: 1234, QueuedWaits: 56789, LocalWaits: 4321},
		Sink:     SinkMark{Offset: 7_400_000, Blocks: 31, Edges: 1_990_000},
	}
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
