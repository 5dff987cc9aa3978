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
// PAGB download merged from it are pure functions of the config; any
// change to them is a format or model change, not an optimisation. The
// hashes were re-recorded when attachment attempts became counter-based
// draws, which changed the graph every seed generates, and the shard's
// two again when shard format 3 (fixed-width values, no stored keys)
// replaced format 2, and when format 4 (no value the seed recomputes)
// replaced format 3; the download's did not move.
func TestStreamDirBytesPinned(t *testing.T) {
	const (
		wantShard    = "2a3f21259e19fcf298b45127c45eb7fd4cca2ab32f695ad5fed377f6cede018d"
		wantBlocks   = "ec15b555e7eee95083dd3ecae281be825f0068fb20db99b76285aa8afc87e70f"
		wantDownload = "f5f3364ee728d2b9b53545e6ce3a627222f343c185935c909a961145a088244e"
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
// streamed run (re-recorded with the counter-based draws, like the
// one-rank hashes above) and checks that every shard's blocks
// ascend: block i+1's first key lies above block i's last key, because
// a rank writes its shard from F in key order.
func TestStreamDirTwoRankPinned(t *testing.T) {
	const wantDownload = "c6418a7244b8f347ca1d92c597443ea4110f8a5e3b057cc4a9308d048850cbc7"
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

// TestStreamedShardBytesPerEdge: a streamed run's shards store the
// values of the copy-first records only, (1 − p)·w/8 bytes an edge —
// w = 18 bits at n = 2·10⁵ — plus the bootstrap rows, the exceptions,
// block headers, CRCs and the file's header and end record, under two
// hundredths of a byte an edge: no record stores its key, and no record
// stores a value the seed recomputes.
func TestStreamedShardBytesPerEdge(t *testing.T) {
	cfg := Config{N: 200_000, X: 4, Ranks: 2, Workers: 1, Seed: 3, StreamDir: t.TempDir()}
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, p := float64(esink.ValueBits(cfg.N)), DefaultP
	for _, st := range res.Ranks {
		per := float64(st.SinkBytes) / float64(st.Edges)
		t.Logf("rank %d: %.4f shard bytes an edge", st.Rank, per)
		if want := (1-p)*w/8 + 0.02; st.Edges == 0 || per > want {
			t.Errorf("rank %d: %d shard bytes for %d edges, %.4f an edge; want at most (1 − p)·w/8 + 0.02 = %.4f", st.Rank, st.SinkBytes, st.Edges, per, want)
		}
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

// blockKeyRanges walks a complete shard's blocks independently of the
// reader and returns each block's first and last slot key: a block holds
// slots first…first+count−1, its explicit values w = ValueBits(n) bits
// each and then its exceptions, each an offset of ValueBits(count) bits
// and a value of w.
func blockKeyRanges(t *testing.T, b []byte) [][2]uint64 {
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
	uv()
	w := esink.ValueBits(int64(uv()))
	off = shardHeaderLen(t, b)
	var ranges [][2]uint64
	for b[off] == 'B' {
		off++
		uv() // sequence
		first, count, explicit, exceptions := uv(), uv(), uv(), uv()
		ob := uint64(esink.ValueBits(int64(count)))
		off += int((explicit*uint64(w)+7)/8) + int((exceptions*(ob+uint64(w))+7)/8) + 4 // payload, CRC
		ranges = append(ranges, [2]uint64{first, first + count - 1})
	}
	if b[off] != 'E' {
		t.Fatalf("shard offset %d: marker %q, want the end-of-stream record", off, b[off])
	}
	return ranges
}
