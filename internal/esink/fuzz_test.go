package esink

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// shardBytes writes recs through a real writer and returns the file.
func shardBytes(f *testing.F, meta Meta, blockEdges int, recs []rec) []byte {
	f.Helper()
	dir := f.TempDir()
	w, err := Open(dir, meta, blockEdges)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		f.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Emit(r.key, r.v); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(ShardPath(dir, meta.Rank, meta.Ranks))
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzOpenReader feeds arbitrary bytes to the shard reader, strict and
// tolerant. Whatever the file holds, opening and draining it must not
// panic, must not accept a p that is NaN, must not yield more records
// than its block headers declare, and must not allocate from a length
// field the file size does not back. A shard the strict reader drains
// cleanly must be byte for byte the writer's encoding of the records it
// yielded, at its own block sizes, so no byte of it goes unchecked. And
// every shard opened is downloaded twice, through the block lanes and
// through Iter: both must write the same bytes or fail with the same
// error.
// The seeds are real v2 writer output — ascending keys with gaps, as a
// rank's slots leave F — and CRC-clean crafted shards, among them two
// blocks whose key ranges overlap inside one lane's chunk and in two;
// testdata/fuzz/FuzzOpenReader keeps the crafted ones (craftShard over a
// hostile Meta or block header, named for what they did) that crashed
// the reader before it validated what the checksums cannot vouch for,
// or that it accepted with bytes its records do not account for.
func FuzzOpenReader(f *testing.F) {
	meta := Meta{N: 1000, X: 3, P: 0.5, Seed: 1, Rank: 1, Ranks: 2, Scheme: "RRP"}
	var recs, long []rec
	for k := uint64(0); k < 300; k++ {
		if k%7 != 3 { // a gap, like a clique node's missing slots
			recs = append(recs, rec{key: k + k/50, v: int64(k) << (k % 40)})
		}
	}
	for k := uint64(0); k < 1400; k++ { // more than a minWindow of payload
		long = append(long, rec{key: k, v: 1 << 20})
	}
	whole := shardBytes(f, meta, 16, recs)
	f.Add(shardBytes(f, meta, 16, nil))                                        // empty shard
	f.Add(shardBytes(f, meta, 1<<16, recs))                                    // one block
	f.Add(whole)                                                               // many blocks
	f.Add(shardBytes(f, meta, 1000, long))                                     // blocks in two lanes' chunks
	f.Add(shardBytes(f, meta, 2, []rec{{1, 1 << 56}, {2, 9}, {4, 1<<63 - 1}})) // values wider than a word
	f.Add(whole[:len(whole)-30])                                               // torn tail: no EOS, half a block
	f.Add(append(whole[:len(whole):len(whole)], "BBBB"...))                    // bytes after EOS

	one := binary.AppendUvarint(binary.AppendUvarint(nil, 7), 9) // one record: key 7, v 9
	f.Add(craftShard(meta, craftBlock(0, 3, one)))               // fewer records than declared
	f.Add(craftShard(meta, craftBlock(0, 1, one))[:60])          // cut inside the block
	nan := meta
	nan.P = math.NaN()
	f.Add(craftShard(nan, craftBlock(0, 1, one))) // CRC-clean header, p = NaN
	// Keys 5, 9 then 7, 11: the second block starts inside the first.
	f.Add(craftShard(meta, refBlock(0, []rec{{5, 1}, {9, 2}}), refBlock(1, []rec{{7, 3}, {11, 4}})))
	// The same across two chunks: the writer's seam check refuses it.
	f.Add(craftShard(meta, refBlock(0, long), refBlock(1, []rec{{700, 3}})))

	path := filepath.Join(f.TempDir(), "shard") // one a process: executions do not overlap
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, tolerate := range []bool{false, true} {
			r, err := openReader(path, tolerate)
			if err != nil {
				continue
			}
			if m := r.Meta(); math.IsNaN(m.P) {
				t.Fatalf("tolerate=%v: accepted a header with p = NaN", tolerate)
			}
			got, err := slots(r.Iter(1))
			if int64(len(got)) > r.Edges() {
				t.Fatalf("tolerate=%v: yielded %d records, block headers declare %d", tolerate, len(got), r.Edges())
			}
			if err == nil && !tolerate && !bytes.Equal(reencode(r, got), data) {
				t.Fatalf("drained %d records from a shard that is not their encoding", len(got))
			}
			if err := sameDownload(downloads(r)); err != nil {
				t.Fatalf("tolerate=%v: %v", tolerate, err)
			}
			r.Close()
		}
		runtime.ReadMemStats(&after)
		// Scan buffer, read windows, the encoder's ring and partition
		// tables are bounded by constants and the file's own size.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20+64*uint64(len(data)) {
			t.Fatalf("reading a %d-byte file allocated %d bytes", len(data), grew)
		}
	})
}

// slots drains it through NextSlot.
func slots(it *Iter) ([]rec, error) {
	var out []rec
	for {
		key, v, ok := it.NextSlot()
		if !ok {
			return out, it.Err()
		}
		out = append(out, rec{key, v})
	}
}

// reencode is the shard the writer makes of recs, cut at r's block
// sizes: every block and the end-of-stream record the reference way.
func reencode(r *Reader, recs []rec) []byte {
	var blocks [][]byte
	for i, b := range r.sc.blocks {
		blocks = append(blocks, refBlock(int64(i), recs[:b.count]))
		recs = recs[b.count:]
	}
	return craftShard(r.Meta(), blocks...)
}
