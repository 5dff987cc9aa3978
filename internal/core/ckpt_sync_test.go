package core

import (
	"os"
	"testing"

	"pagen/internal/ckpt"
	"pagen/internal/esink"
)

// TestCheckpointShardSyncFailureFailsEpoch pins the background writer's
// contract for the shard fsync it runs off the rank goroutine: a failed
// esink Sync fails exactly the epoch whose snapshot names the mark — no
// snapshot file appears and the writer counts one failed epoch and no
// published one — and, under -race, the failure shares nothing with the
// rank goroutine, which keeps emitting meanwhile. The injected failure
// is a closed descriptor: Abort closes the shard under the checkpoint
// writer, so every fsync returns os.ErrClosed.
func TestCheckpointShardSyncFailureFailsEpoch(t *testing.T) {
	dir, ckDir := t.TempDir(), t.TempDir()
	stream, err := esink.Open(dir, esink.Meta{N: 1 << 20, X: 1, P: 0.5, Ranks: 1, Scheme: "UCP"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Reset(); err != nil {
		t.Fatal(err)
	}
	stream.Abort()

	bw := newCkptWriter(ckDir, 0, 2, stream)
	bw.ch <- ckpt.Snapshot{Epoch: 1}
	// The rank goroutine's side while publish runs. Its own writes fail
	// too once a block flushes (the descriptor is closed), which latches
	// the esink writer's error here, on the goroutine that owns it.
	for k := uint64(0); k < 10000; k++ {
		_ = stream.Emit(k, 1)
	}
	bw.shutdown()

	if bw.failed != 1 || bw.epochs != 0 || bw.bytes != 0 {
		t.Fatalf("a failed shard fsync left %d failed and %d published epochs (%d bytes), want exactly one failed", bw.failed, bw.epochs, bw.bytes)
	}
	if _, err := os.Stat(ckpt.Path(ckDir, 0, 1)); !os.IsNotExist(err) {
		t.Fatalf("a snapshot naming a mark that never became durable was published (stat: %v)", err)
	}
}
