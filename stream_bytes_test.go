package pagen

import (
	"crypto/sha256"
	"encoding/binary"
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
// change, not an optimisation. wantBlocks, the shard after its header,
// was recorded with the version 1 writer: version 2 changed only the
// header's version byte and CRC.
func TestStreamDirBytesPinned(t *testing.T) {
	const (
		wantShard    = "9a512d16d4caa05ae7d96a32062a7bd5dc8ce5969cc3454c5164506289fd5901"
		wantBlocks   = "0ebff832ed4b1d58f82f0a318dfcbd3372417a552ea99a68b7097e420a3ab25a"
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
	if got := fmt.Sprintf("%x", sha256.Sum256(shard[shardHeaderLen(t, shard):])); got != wantBlocks {
		t.Errorf("shard blocks SHA-256 = %s, want %s", got, wantBlocks)
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

// TestStreamDirTwoRankPinned pins the PAGB download of a two-rank
// streamed run (recorded when each rank still wrote its edges as they
// resolved, stragglers and all) and checks that every shard's blocks
// ascend: block i+1's first key lies above block i's last key, because
// a rank writes its shard from F in key order.
func TestStreamDirTwoRankPinned(t *testing.T) {
	const wantDownload = "04d943e28789d197082290d3b68fc266f683a643b691b688acfb97d5dd1509a0"
	dir := t.TempDir()
	cfg := Config{N: 30000, X: 4, Ranks: 2, Workers: 1, Seed: 77, StreamDir: dir, StreamBlockEdges: 5000}
	if _, err := Generate(cfg); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < cfg.Ranks; r++ {
		shard, err := os.ReadFile(esink.ShardPath(dir, r, cfg.Ranks))
		if err != nil {
			t.Fatal(err)
		}
		blocks := blockKeyRanges(t, shard)
		if len(blocks) < 2 {
			t.Fatalf("rank %d: %d blocks, want several", r, len(blocks))
		}
		for i := 1; i < len(blocks); i++ {
			if blocks[i][0] <= blocks[i-1][1] {
				t.Errorf("rank %d: block %d starts at key %d, not above block %d's last key %d", r, i, blocks[i][0], i-1, blocks[i-1][1])
			}
		}
	}

	d, err := esink.OpenDir(dir, cfg.Ranks)
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

// shardHeaderLen walks a shard header as docs/SHARD_FORMAT.md lays it
// out — magic, version, n, x, p, seed, rank, ranks, scheme, CRC — and
// returns its length.
func shardHeaderLen(t *testing.T, b []byte) int {
	t.Helper()
	off := len(esink.Magic)
	uv := func() uint64 {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			t.Fatalf("bad uvarint at shard offset %d", off)
		}
		off += n
		return v
	}
	uv()             // version
	uv()             // n
	uv()             // x
	off += 8         // p
	off += 8         // seed
	uv()             // rank
	uv()             // ranks
	off += int(uv()) // scheme
	return off + 4   // CRC
}

// blockKeyRanges decodes a complete shard's blocks independently of the
// reader and returns each block's first and last slot key.
func blockKeyRanges(t *testing.T, b []byte) [][2]uint64 {
	t.Helper()
	off := shardHeaderLen(t, b)
	uv := func() uint64 {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			t.Fatalf("bad uvarint at shard offset %d", off)
		}
		off += n
		return v
	}
	var ranges [][2]uint64
	for b[off] == 'B' {
		off++
		uv() // sequence
		count := uv()
		end := off + int(uv()) // payload length
		var first, key uint64
		for i := uint64(0); i < count; i++ {
			key += uv()
			uv() // value
			if i == 0 {
				first = key
			}
		}
		if off != end {
			t.Fatalf("block %d: payload ends at %d, header says %d", len(ranges), off, end)
		}
		ranges = append(ranges, [2]uint64{first, key})
		off += 4 // CRC
	}
	if b[off] != 'E' {
		t.Fatalf("shard offset %d: marker %q, want the end-of-stream record", off, b[off])
	}
	return ranges
}
