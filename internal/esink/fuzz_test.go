package esink

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pagen/internal/partition"
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

// FuzzOpenReader feeds arbitrary bytes to the shard scan and reader.
// The strict open must accept exactly the files whose scan meets no
// damage — a clean chain ended by its end-of-stream record — under a run
// identity checkMeta takes, so never a p that is NaN. Whatever the file
// holds, reading it must not panic, must not yield more records than its
// block headers declare, and must not allocate from a length field the
// file size does not back. A shard the strict reader drains cleanly must
// be byte for byte the reference encoding of the records it yielded, at
// its own block sizes, so no bit of it goes unchecked. The clean prefix
// the scan keeps — what Recover hands back — decodes under the same
// rules. And the strict shard and the kept prefix are each downloaded
// twice, through the block lanes and through Iter: both must write the
// same bytes or fail with the same error.
// The seeds are real v4 writer output — the records seq.CopyModel makes
// of a rank's slots, with the gaps a clique node's missing slots leave,
// and one shard of arbitrary values, heavy with exceptions — and
// CRC-clean crafted shards: blocks whose key ranges overlap inside one
// lane's chunk and in two, a count past the rank's slots, a payload
// shorter or longer than its counts imply, a set padding bit, a value
// past n, every non-canonical v4 block hostileShards makes, and a
// version 3 file; testdata/fuzz/FuzzOpenReader keeps the crafted ones
// (craftShard over a hostile Meta or block header, named for what they
// did) that crashed the reader before it validated what the checksums
// cannot vouch for, or that it accepted with bits its records do not
// account for.
func FuzzOpenReader(f *testing.F) {
	meta := Meta{N: 1000, X: 3, P: 0.5, Seed: 1, Rank: 1, Ranks: 2, Scheme: "RRP"}
	w := ValueBits(meta.N)
	recs := modelRecs(f, meta)
	var gappy, arbitrary, long []rec
	for i, r := range recs {
		if i%7 != 3 { // more gaps
			gappy = append(gappy, r)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, r := range recs[:700] {
		arbitrary = append(arbitrary, rec{key: r.key, v: rng.Int63n(meta.N)})
	}
	flat := flatMeta(1 << 12) // every value stored, in 12 bits
	fw := ValueBits(flat.N)
	for k := uint64(0); k < 3000; k++ { // more than a minWindow of payload
		long = append(long, rec{key: k, v: flat.N - 1})
	}
	whole := shardBytes(f, meta, 16, gappy)
	f.Add(shardBytes(f, meta, 16, nil))                     // empty shard
	f.Add(shardBytes(f, meta, 1<<16, recs))                 // one block of model records
	f.Add(whole)                                            // many blocks, ended by gaps and counts
	f.Add(shardBytes(f, meta, 1<<16, arbitrary))            // exceptions that close blocks early
	f.Add(shardBytes(f, flat, 1000, long))                  // blocks in two lanes' chunks
	f.Add(whole[:len(whole)-30])                            // torn tail: no EOS, part of a block
	f.Add(append(whole[:len(whole):len(whole)], "BBBB"...)) // bytes after EOS

	one := refPayload(fw, 9) // one record: v 9

	f.Add(craftShard(flat, craftBlock(0, 7, 3, 3, 0, one)))            // a payload shorter than its counts imply
	f.Add(craftShard(flat, craftBlock(0, 7, 1, 1, 0, append(one, 0)))) // a payload longer than its counts imply
	f.Add(craftShard(flat, craftBlock(0, 7, 1, 1, 0, one))[:60])       // cut inside the block
	nan := flat
	nan.P = math.NaN()
	f.Add(craftShard(nan, craftBlock(0, 7, 1, 1, 0, one))) // CRC-clean header, p = NaN
	// Keys 5…9 then 7, 8: the second block starts inside the first.
	f.Add(craftShard(flat, refBlock(flat, 0, long[5:10]), refBlock(flat, 1, long[7:9])))
	// The same across two chunks: the second lane's first block is refused.
	f.Add(craftShard(flat, refBlock(flat, 0, long), refBlock(flat, 1, []rec{{700, 3}})))
	// The rank holds 500 nodes' 1500 slots: slots 1499 and 1500.
	f.Add(craftShard(meta, craftBlock(0, 1499, 2, 2, 0, refPayload(w, 1, 2))))
	f.Add(craftShard(flat, craftBlock(0, 7, 1, 1, 0, []byte{9, 1 << 7})))      // a set padding bit
	f.Add(craftShard(flat, craftBlock(0, 7, 1, 1, 0, refPayload(fw, flat.N)))) // a value past n
	for _, h := range hostileShards(f) {
		f.Add(h.data)
	}

	path := filepath.Join(f.TempDir(), "shard") // one a process: executions do not overlap
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc, scanErr := scanShard(f)
		var part partition.Scheme
		if scanErr == nil {
			part, scanErr = checkMeta(sc.meta)
		}
		damage := scanErr
		if damage == nil {
			damage = sc.damage
		}
		r, err := OpenReader(path)
		if (err == nil) != (damage == nil) {
			t.Fatalf("strict open: %v; the scan: %v", err, damage)
		}
		if err == nil {
			if m := r.Meta(); math.IsNaN(m.P) {
				t.Fatal("accepted a header with p = NaN")
			}
			got, err := slots(r.Iter(1))
			if int64(len(got)) > r.Edges() {
				t.Fatalf("yielded %d records, block headers declare %d", len(got), r.Edges())
			}
			if err == nil && !bytes.Equal(reencode(r, got), data) {
				t.Fatalf("drained %d records from a shard that is not their encoding", len(got))
			}
			if err := sameDownload(downloads(r)); err != nil {
				t.Fatal(err)
			}
			r.Close()
		}
		if scanErr == nil {
			kept := &Reader{f: f, sc: sc, part: part}
			if got, _ := slots(kept.Iter(1)); int64(len(got)) > sc.edges {
				t.Fatalf("the kept prefix yielded %d records, its block headers declare %d", len(got), sc.edges)
			}
			if err := sameDownload(downloads(kept)); err != nil {
				t.Fatalf("the kept prefix: %v", err)
			}
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
		blocks = append(blocks, refBlock(r.Meta(), int64(i), recs[:b.count]))
		recs = recs[b.count:]
	}
	return craftShard(r.Meta(), blocks...)
}
