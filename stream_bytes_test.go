package pagen

import (
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"pagen/internal/esink"
	"pagen/internal/graph"
)

// TestStreamDirBytesPinned pins the bytes of the bounded-memory path. A
// one-rank streamed run is schedule-free, so its shard file and the
// PAGB download merged from it are pure functions of the config; the
// hashes below were recorded before the shard writer, the block cursor
// and the PAGB encoder were rebuilt, and any change to them is a format
// change, not an optimisation.
func TestStreamDirBytesPinned(t *testing.T) {
	const (
		wantShard    = "e4ae53e014242bb44dd58f402e93a28b9935042c369ecd4bf8344f7d4e381798"
		wantDownload = "57f7b522c92ce962e470cd03378dfb7f016deed92a5bcd59c8b742ca89ca8fbe"
	)
	dir := t.TempDir()
	cfg := Config{N: 30000, X: 4, Ranks: 1, Workers: 1, Seed: 77, StreamDir: dir, StreamBlockEdges: 5000}
	if _, err := Generate(cfg); err != nil {
		t.Fatal(err)
	}
	shard, err := os.ReadFile(esink.ShardPath(dir, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(shard)); got != wantShard {
		t.Errorf("shard SHA-256 = %s, want %s", got, wantShard)
	}

	d, err := esink.OpenDir(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	h := sha256.New()
	if err := graph.WriteBinaryStream(h, d.Meta().N, d.Edges(), d.Iter(0)); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantDownload {
		t.Errorf("download SHA-256 = %s, want %s", got, wantDownload)
	}
}
