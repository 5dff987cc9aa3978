package esink

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"pagen/internal/graph"
)

// rec is one edge record: the slot key and the attachment value. U is
// not stored; the reader derives it from the key via the partition.
type rec struct {
	key uint64
	v   int64
}

// refPayload is the reference payload encoder the writer is held to:
// sort every record of the block by key, then encode — the payload of
// docs/SHARD_FORMAT.md written down the slow, obvious way.
func refPayload(recs []rec) []byte {
	recs = append([]rec(nil), recs...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })
	var payload []byte
	prev := uint64(0)
	for i, r := range recs {
		if i == 0 {
			payload = binary.AppendUvarint(payload, r.key)
		} else {
			payload = binary.AppendUvarint(payload, r.key-prev)
		}
		prev = r.key
		payload = binary.AppendUvarint(payload, uint64(r.v))
	}
	return payload
}

// craftBlock frames payload as block seq claiming count records, CRC
// valid whatever the fields say.
func craftBlock(seq, count uint64, payload []byte) []byte {
	b := []byte{blockMarker}
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, count)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// refBlock is the reference block: the reference payload, framed.
func refBlock(seq int64, recs []rec) []byte {
	return craftBlock(uint64(seq), uint64(len(recs)), refPayload(recs))
}

func refEOS(edges, blocks int64) []byte {
	b := []byte{eosMarker}
	b = binary.AppendUvarint(b, uint64(edges))
	b = binary.AppendUvarint(b, uint64(blocks))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// refShard is the reference writer: records accumulate into a block
// that closes when it holds blockEdges records or at a cut.
type refShard struct {
	blockEdges int
	file       []byte
	open       []rec
	blocks     int64
	edges      int64
}

func newRefShard(meta Meta, blockEdges int) *refShard {
	return &refShard{blockEdges: blockEdges, file: encodeHeader(meta)}
}

func (s *refShard) emit(r rec) {
	s.open = append(s.open, r)
	if len(s.open) >= s.blockEdges {
		s.cut()
	}
}

func (s *refShard) cut() Mark {
	if len(s.open) > 0 {
		s.file = append(s.file, refBlock(s.blocks, s.open)...)
		s.blocks++
		s.edges += int64(len(s.open))
		s.open = s.open[:0]
	}
	return Mark{Offset: int64(len(s.file)), Blocks: s.blocks, Edges: s.edges}
}

func (s *refShard) close() []byte {
	s.cut()
	return append(s.file, refEOS(s.edges, s.blocks)...)
}

// ascendingRecs returns n records with strictly ascending keys spread
// by stride (random gaps below it) and values of every varint width.
func ascendingRecs(rng *rand.Rand, n int, stride uint64) []rec {
	recs := make([]rec, n)
	key := uint64(0)
	for i := range recs {
		key += 1 + rng.Uint64()%stride
		recs[i] = rec{key: key, v: rng.Int63() >> uint(rng.Intn(63))}
	}
	return recs
}

// delay moves a frac share of recs later in arrival order by up to
// maxDelay positions — the order in which a rank resolves its slots,
// nodes that waited for a remote answer behind later ones, which the
// writer refuses.
func delay(rng *rand.Rand, recs []rec, frac float64, maxDelay int) []rec {
	type arrival struct {
		at int
		r  rec
	}
	as := make([]arrival, len(recs))
	for i, r := range recs {
		as[i] = arrival{at: i, r: r}
		if rng.Float64() < frac {
			as[i].at += 1 + rng.Intn(maxDelay)
		}
	}
	sort.SliceStable(as, func(i, j int) bool { return as[i].at < as[j].at })
	out := make([]rec, len(as))
	for i, a := range as {
		out[i] = a.r
	}
	return out
}

// arrivalOrders are the arrival orders the differential test sweeps:
// each is refused at its first descent, and its record set, in key
// order, is held to the reference.
var arrivalOrders = []struct {
	name string
	gen  func(rng *rand.Rand, n, blockEdges int) []rec
}{
	{"ascending", func(rng *rand.Rand, n, _ int) []rec { return ascendingRecs(rng, n, 4) }},
	{"descending", func(rng *rand.Rand, n, _ int) []rec {
		recs := ascendingRecs(rng, n, 4)
		for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
			recs[i], recs[j] = recs[j], recs[i]
		}
		return recs
	}},
	{"stragglers-1pct", func(rng *rand.Rand, n, be int) []rec { return delay(rng, ascendingRecs(rng, n, 4), 0.01, be/2+1) }},
	{"stragglers-30pct", func(rng *rand.Rand, n, be int) []rec { return delay(rng, ascendingRecs(rng, n, 4), 0.30, be/2+1) }},
	{"stragglers-100pct", func(rng *rand.Rand, n, be int) []rec { return delay(rng, ascendingRecs(rng, n, 4), 1, be/2+1) }},
	// Delays longer than a block: a late record would land in a later
	// block than its neighbours.
	{"stragglers-older-than-block", func(rng *rand.Rand, n, be int) []rec { return delay(rng, ascendingRecs(rng, n, 4), 0.30, 3*be+1) }},
	// Keys spread over more than 32 bits: deltas of every varint width.
	{"wide-keys", func(rng *rand.Rand, n, be int) []rec { return delay(rng, ascendingRecs(rng, n, 1<<40), 0.30, be/2+1) }},
}

// TestWriterBytesMatchReference holds the writer to the reference
// encoder byte for byte. Each arrival order is first emitted as it
// arrives, and the writer must refuse its first key that is not above
// the one before, naming both — the engine hands the writer keys in
// slot order, so an order with a descent never reaches a shard. The
// order's records are then emitted in key order, and wherever Mark and
// Cut fall inside a block, and across a Recover to a mark, the shard
// file is the one the sort-everything encoder writes.
func TestWriterBytesMatchReference(t *testing.T) {
	meta := testMeta(1<<40, 1)
	for _, blockEdges := range []int{1, 2, 63, 64, 65, 1 << 16} {
		n := 5*blockEdges + 37
		if blockEdges == 1<<16 {
			n = blockEdges + 4321
		}
		for oi, order := range arrivalOrders {
			t.Run(fmt.Sprintf("%s/block%d", order.name, blockEdges), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(1000*oi + blockEdges)))
				recs := order.gen(rng, n, blockEdges)

				w, err := Open(t.TempDir(), meta, blockEdges)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Reset(); err != nil {
					t.Fatal(err)
				}
				for i, r := range recs {
					err := w.Emit(r.key, r.v)
					if i > 0 && r.key <= recs[i-1].key {
						want := fmt.Sprintf("key %d does not follow key %d", r.key, recs[i-1].key)
						if err == nil || !strings.Contains(err.Error(), want) {
							t.Fatalf("record %d arrived below its predecessor: err = %v, want one saying %q", i, err, want)
						}
						break
					}
					if err != nil {
						t.Fatalf("record %d: %v", i, err)
					}
				}
				w.Abort()

				sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })
				markAt, cutAt := n/3, n/2+blockEdges/2 // both inside an open block when blockEdges > 2
				dir := t.TempDir()
				w, err = Open(dir, meta, blockEdges)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Reset(); err != nil {
					t.Fatal(err)
				}
				ref := newRefShard(meta, blockEdges)
				var cut Mark
				var atCut []byte
				for i, r := range recs {
					if i == markAt || i == cutAt {
						want := ref.cut()
						got, err := w.Mark()
						if i == cutAt {
							cut, atCut = got, append([]byte(nil), ref.file...)
						}
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("mark at record %d = %+v, reference %+v", i, got, want)
						}
					}
					if err := w.Emit(r.key, r.v); err != nil {
						t.Fatal(err)
					}
					ref.emit(r)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				path := ShardPath(dir, 0, 1)
				compareFile(t, "fresh run", path, ref.close())

				// Resume from the cut: truncate back to its mark, then emit
				// the suffix again.
				w, err = Open(dir, meta, blockEdges)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Recover(cut); err != nil {
					t.Fatal(err)
				}
				ref = newRefShard(meta, blockEdges)
				ref.file, ref.blocks, ref.edges = atCut, cut.Blocks, cut.Edges
				for _, r := range recs[cutAt:] {
					if err := w.Emit(r.key, r.v); err != nil {
						t.Fatal(err)
					}
					ref.emit(r)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				compareFile(t, "resumed run", path, ref.close())
				if r, err := OpenReader(path); err != nil {
					t.Fatalf("strict open of the resumed shard: %v", err)
				} else {
					r.Close()
				}
			})
		}
	}
}

func compareFile(t *testing.T, what, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: shard is %d bytes, reference %d; first difference at offset %d", what, len(got), len(want), i)
	}
}

// TestReaderSmallestWindow reads a shard through the smallest window,
// so records straddle every refill, and through the largest; both must
// yield the same stream.
func TestReaderSmallestWindow(t *testing.T) {
	const n, x = 200000, 3
	meta := testMeta(n, x)
	rng := rand.New(rand.NewSource(5))
	recs := make([]rec, 0, n*x)
	for k := uint64(0); k < n*x; k++ {
		recs = append(recs, rec{key: k, v: rng.Int63() >> uint(rng.Intn(63))})
	}
	path := writeShard(t, t.TempDir(), meta, 0, recs)

	small := readAll(t, path, 1) // clamps to minWindow
	large := readAll(t, path, 1<<30)
	if len(small) != len(recs) || len(large) != len(recs) {
		t.Fatalf("read %d / %d edges, wrote %d", len(small), len(large), len(recs))
	}
	for i := range small {
		if small[i] != large[i] {
			t.Fatalf("edge %d: %+v through the small window, %+v through the large", i, small[i], large[i])
		}
		if small[i].U != int64(i/x) {
			t.Fatalf("edge %d out of canonical order: %+v", i, small[i])
		}
	}
}

// growingShard writes a shard whose blocks hold 1, 2, 4, … 64 Ki
// records, keys 0, 1, 2, … in file order, and values of up to valBits
// bits, so the payload size is the caller's choice. It returns the path
// and the records.
func growingShard(t *testing.T, valBits uint) (string, []rec) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(valBits)))
	var recs []rec
	var blocks [][]byte
	for count := 1; count <= 1<<16; count *= 2 {
		block := make([]rec, count)
		for i := range block {
			block[i] = rec{key: uint64(len(recs) + i), v: rng.Int63n(1 << valBits)}
		}
		blocks = append(blocks, refBlock(int64(len(blocks)), block))
		recs = append(recs, block...)
	}
	path := filepath.Join(t.TempDir(), "shard")
	if err := os.WriteFile(path, craftShard(testMeta(int64(len(recs)), 1), blocks...), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, recs
}

// Opening a shard reads it through one fixed buffer: beyond the block
// index, what it allocates does not grow with the blocks' payloads.
func TestOpenReaderAllocsBounded(t *testing.T) {
	for _, valBits := range []uint{7, 62} {
		path, _ := growingShard(t, valBits)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := OpenReader(path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// The index grows by appends, which allocate at most twice its
		// final capacity in all.
		index := 2 * uint64(cap(r.sc.blocks)) * uint64(unsafe.Sizeof(blockInfo{}))
		r.Close()
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 256<<10+index {
			t.Errorf("opening a %d-byte shard of %d blocks allocated %d bytes, %d of them the block index; want under 256 KiB beyond it",
				fi.Size(), len(r.sc.blocks), grew, index)
		}
	}
}

// An iterator reads every block through its one window, at most
// readWindow bytes whatever the budget and however large the block, and
// the window still yields the whole stream in order.
func TestIterWindowClamp(t *testing.T) {
	path, recs := growingShard(t, 62)
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, tc := range []struct{ budget, window int }{
		{1, minWindow},
		{0, readWindow},
		{1 << 30, readWindow},
	} {
		it := r.Iter(tc.budget)
		if cap(it.buf) != tc.window {
			t.Errorf("budget %d: window %d bytes, want %d", tc.budget, cap(it.buf), tc.window)
		}
		for i := range recs {
			e, ok := it.Next()
			if !ok || e != (graph.Edge{U: int64(i), V: recs[i].v}) {
				t.Fatalf("budget %d: edge %d = %+v, %v (err %v), want U %d V %d", tc.budget, i, e, ok, it.Err(), i, recs[i].v)
			}
		}
		if _, ok := it.Next(); ok {
			t.Fatalf("budget %d: more edges than the %d written", tc.budget, len(recs))
		}
		if cap(it.buf) != tc.window {
			t.Errorf("budget %d: window grew to %d bytes", tc.budget, cap(it.buf))
		}
	}
}

// craftShard assembles a shard whose every CRC is valid from hand-made
// block fields, so damage the checksums cannot see — a payload shorter
// than its record count, a hostile header — reaches the decoder.
func craftShard(meta Meta, blocks ...[]byte) []byte {
	file := encodeHeader(meta)
	var edges int64
	for _, b := range blocks {
		file = append(file, b...)
		_, n := binary.Uvarint(b[1:])
		count, _ := binary.Uvarint(b[1+n:])
		edges += int64(count)
	}
	return append(file, refEOS(edges, int64(len(blocks)))...)
}

func drain(it *Iter) (n int64, err error) {
	for {
		if _, ok := it.Next(); !ok {
			return n, it.Err()
		}
		n++
	}
}

// TestTruncatedPayload: a CRC-clean block whose payload ends inside a
// varint must end iteration with the corrupt-payload error — not a
// panic, and not a clean stream that is silently short.
func TestTruncatedPayload(t *testing.T) {
	meta := testMeta(1000, 1)
	payload := refPayload([]rec{{1, 5}, {2, 300}, {3, 1 << 40}})
	for cut := 1; cut < len(payload); cut++ {
		path := t.TempDir() + "/shard"
		if err := os.WriteFile(path, craftShard(meta, craftBlock(0, 3, payload[:len(payload)-cut])), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(path)
		if err != nil {
			continue // too short for its record count: refused outright
		}
		n, err := drain(r.Iter(0))
		r.Close()
		if err == nil || !strings.Contains(err.Error(), "corrupt block payload") {
			t.Fatalf("cut %d: %d records then err = %v, want a corrupt-payload error", cut, n, err)
		}
		if n >= 3 {
			t.Fatalf("cut %d: yielded %d records from a payload holding fewer than 3", cut, n)
		}
	}
}

// A version 1 shard — whose blocks could interleave keys — is refused
// by its version before any block is read, strictly and tolerantly.
func TestReaderRefusesVersion1(t *testing.T) {
	meta := testMeta(1000, 1)
	v1 := craftShard(meta, refBlock(0, []rec{{1, 0}, {2, 1}}))
	v1[len(Magic)] = 1 // the version uvarint; the header CRC is stale now
	hdr := encodeHeader(meta)
	binary.LittleEndian.PutUint32(v1[len(hdr)-4:], crc32.Checksum(v1[:len(hdr)-4], castagnoli))
	path := filepath.Join(t.TempDir(), "shard")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, open := range []func(string) (*Reader, error){OpenReader, OpenReaderTolerant} {
		if r, err := open(path); err == nil || !strings.Contains(err.Error(), "unsupported shard version 1") {
			t.Fatalf("v1 shard: reader %v, err = %v, want a refusal naming version 1", r, err)
		}
	}
}

// A v2 shard whose next key is not above the previous one — inside a
// block (a zero delta) or across blocks that overlap — is CRC-clean but
// refused when the key is reached, by an error naming both keys and the
// block, after every record before it.
func TestReaderRefusesNonAscendingKeys(t *testing.T) {
	meta := testMeta(1000, 1)
	for _, tc := range []struct {
		name   string
		blocks [][]byte
		good   int64
		want   string
	}{
		// Keys 4 and 6, then a zero delta: 6 again.
		{"zero delta", [][]byte{craftBlock(0, 3, append(refPayload([]rec{{4, 1}, {6, 2}}), 0, 3))}, 2, "block 0: key 6 does not follow key 6"},
		{"overlapping blocks", [][]byte{refBlock(0, []rec{{5, 1}, {9, 2}}), refBlock(1, []rec{{7, 3}, {11, 4}})}, 2, "block 1: key 7 does not follow key 9"},
		{"repeated boundary key", [][]byte{refBlock(0, []rec{{5, 1}, {9, 2}}), refBlock(1, []rec{{9, 3}})}, 2, "block 1: key 9 does not follow key 9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "shard")
			if err := os.WriteFile(path, craftShard(meta, tc.blocks...), 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := OpenReader(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			n, err := drain(r.Iter(0))
			if n != tc.good || err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%d records then err = %v; want %d and one saying %q", n, err, tc.good, tc.want)
			}
		})
	}
}

// downloads writes r's shard as a PAGB graph twice from one-window
// (minWindow) iterators: through the block lanes, and through Iter one
// edge at a time.
func downloads(r *Reader) (lanes, iter []byte, lerr, ierr error) {
	d := &DirReader{readers: []*Reader{r}}
	var a, b bytes.Buffer
	lerr = graph.WriteBinaryStream(&a, r.Meta().N, r.Edges(), d.Iter(1))
	ierr = graph.WriteBinaryStream(&b, r.Meta().N, r.Edges(), struct{ graph.EdgeIterator }{d.Iter(1)})
	return a.Bytes(), b.Bytes(), lerr, ierr
}

// sameDownload reports how a lane download and an Iter download of one
// shard disagree: they must write the same bytes or fail alike.
func sameDownload(lanes, iter []byte, lerr, ierr error) error {
	switch {
	case lerr == nil && ierr == nil && !bytes.Equal(lanes, iter):
		return fmt.Errorf("the lanes wrote %d bytes, Iter %d different ones", len(lanes), len(iter))
	case (lerr == nil) != (ierr == nil) || lerr != nil && lerr.Error() != ierr.Error():
		return fmt.Errorf("the lanes returned %v, Iter %v", lerr, ierr)
	}
	return nil
}

// A CRC-clean block whose payload holds bytes after its declared
// records hides data: it is refused by an error naming the block, after
// every record before it, on Iter and on the download lanes alike.
func TestReaderRefusesTrailingBytes(t *testing.T) {
	meta := testMeta(1000, 1)
	two := refPayload([]rec{{1, 5}, {2, 6}}) // 4 bytes
	for _, tc := range []struct {
		name   string
		blocks [][]byte
		good   int64
		want   string
	}{
		{"a record too many", [][]byte{craftBlock(0, 1, two)}, 1, "block 0: 2 bytes after its 1 records"},
		{"an empty block with a payload", [][]byte{craftBlock(0, 0, two), refBlock(1, []rec{{3, 1}})}, 0, "block 0: 4 bytes after its 0 records"},
		{"in a later block", [][]byte{refBlock(0, []rec{{0, 1}}), craftBlock(1, 1, two)}, 2, "block 1: 2 bytes after its 1 records"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "shard")
			if err := os.WriteFile(path, craftShard(meta, tc.blocks...), 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := OpenReader(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			n, err := drain(r.Iter(0))
			if n != tc.good || err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%d records then err = %v; want %d and one saying %q", n, err, tc.good, tc.want)
			}
			if lanes, iter, lerr, ierr := downloads(r); lerr == nil || sameDownload(lanes, iter, lerr, ierr) != nil {
				t.Fatalf("download: lanes %v, Iter %v; want both to refuse alike", lerr, ierr)
			}
		})
	}
}

// TestDownloadWideValues: sources and values of 2⁵⁶ and more, whose
// varints do not fit the lanes' 8-byte words, download as the reference
// encoder writes them, through the lanes and through Iter, also when
// such a value ends a block or stands between narrow ones.
func TestDownloadWideValues(t *testing.T) {
	meta := Meta{N: 1 << 60, X: 1, P: 0.5, Seed: 1, Rank: 0, Ranks: 1, Scheme: "UCP"} // slot key k is node k
	var recs []rec
	for i, k := range []uint64{0, 1, 2, 1<<56 - 1, 1 << 56, 1<<56 + 1, 1 << 59} {
		recs = append(recs, rec{key: k, v: []int64{5, 1 << 56, 1<<62 + 3, 7, 1<<56 - 1, 1 << 63 >> 1, 0}[i]})
	}
	var want graph.Graph
	want.N = meta.N
	for _, r := range recs {
		want.AddEdge(int64(r.key), r.v)
	}
	var ref bytes.Buffer
	if err := graph.WriteBinary(&ref, &want); err != nil {
		t.Fatal(err)
	}
	for _, block := range []int{1, 2, 3, 0} {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("block%d/procs%d", block, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				r, err := OpenReader(writeShard(t, t.TempDir(), meta, block, recs))
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				lanes, iter, lerr, ierr := downloads(r)
				if lerr != nil || ierr != nil {
					t.Fatalf("lanes: %v, Iter: %v", lerr, ierr)
				}
				if !bytes.Equal(lanes, ref.Bytes()) || !bytes.Equal(iter, ref.Bytes()) {
					t.Fatalf("lanes wrote %x, Iter %x; want %x", lanes, iter, ref.Bytes())
				}
			})
		}
	}
}

// TestDownloadRefusesLikeIter: on a hostile shard the block lanes fail
// with Iter's error, at one lane and two, also where the blocks that
// overlap fall into different lanes' chunks, so that the writer's seam
// check is what refuses them.
func TestDownloadRefusesLikeIter(t *testing.T) {
	meta := testMeta(1<<20, 1)
	var big []rec // a block longer than a minWindow chunk
	for k := uint64(0); k < 1200; k++ {
		big = append(big, rec{key: k, v: 1 << 20})
	}
	for _, tc := range []struct {
		name   string
		blocks [][]byte
		want   string
	}{
		{"blocks overlap across chunks", [][]byte{refBlock(0, big), refBlock(1, []rec{{600, 1}})}, "block 1: key 600 does not follow key 1199"},
		{"a repeated key across chunks", [][]byte{refBlock(0, big), refBlock(1, []rec{{1199, 1}})}, "block 1: key 1199 does not follow key 1199"},
		{"blocks overlap in one chunk", [][]byte{refBlock(0, []rec{{5, 1}, {9, 2}}), refBlock(1, []rec{{7, 3}})}, "block 1: key 7 does not follow key 9"},
		{"a zero delta", [][]byte{craftBlock(0, 2, append(refPayload([]rec{{4, 1}}), 0, 3))}, "block 0: key 4 does not follow key 4"},
		// Key 1300 is 0x94 0x0a; value 1 padded to two bytes is 0x81 0x00.
		{"a padded value", [][]byte{refBlock(0, big), craftBlock(1, 1, []byte{0x94, 0x0a, 0x81, 0x00})}, "truncated or overlong varint"},
		{"a padded key", [][]byte{refBlock(0, big), craftBlock(1, 1, []byte{0x94, 0x8a, 0x00, 0x01})}, "truncated or overlong varint"},
		{"a truncated value", [][]byte{refBlock(0, big), craftBlock(1, 1, []byte{0x94, 0x0a, 0x81})}, "truncated or overlong varint"},
		{"a key past the slots", [][]byte{refBlock(0, big), refBlock(1, []rec{{1 << 20, 1}})}, "slot key 1048576 outside"},
		{"bytes after the records", [][]byte{refBlock(0, big), craftBlock(1, 1, refPayload([]rec{{1300, 1}, {1301, 1}}))}, "block 1: 2 bytes after its 1 records"},
	} {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/procs%d", tc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				path := filepath.Join(t.TempDir(), "shard")
				if err := os.WriteFile(path, craftShard(meta, tc.blocks...), 0o644); err != nil {
					t.Fatal(err)
				}
				r, err := OpenReader(path)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				lanes, iter, lerr, ierr := downloads(r)
				if err := sameDownload(lanes, iter, lerr, ierr); err != nil {
					t.Fatal(err)
				}
				if lerr == nil || !strings.Contains(lerr.Error(), tc.want) {
					t.Fatalf("the download returned %v, want an error saying %q", lerr, tc.want)
				}
			})
		}
	}
}

// TestSyncConcurrentWithEmit is the checkpoint writer's pattern
// (core's ckptWriter.publish): the rank goroutine emits and marks while
// another goroutine fsyncs the shard. Under -race this proves Sync
// shares nothing with the rank goroutine but the file handle and the
// atomic fsync counters; the read-back proves no record was lost.
func TestSyncConcurrentWithEmit(t *testing.T) {
	const n, x = 250000, 4 // 1 M records
	meta := testMeta(n, x)
	w, err := Open(t.TempDir(), meta, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var syncErr error
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := w.Sync(); err != nil {
				syncErr = err
				return
			}
		}
	}()
	recs := make([]rec, n*x)
	for k := range recs {
		recs[k] = rec{key: uint64(k), v: int64(k) * 7 % n}
	}
	for i, r := range recs {
		if err := w.Emit(r.key, r.v); err != nil {
			t.Fatal(err)
		}
		if i%100000 == 0 {
			if _, err := w.Mark(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if syncErr != nil {
		t.Fatal(syncErr)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Fsyncs < 2 || st.Edges != n*x {
		t.Fatalf("stats = %+v, want every edge and the concurrent fsyncs counted", st)
	}
	got := readAll(t, w.Path(), 0)
	if len(got) != len(recs) {
		t.Fatalf("read %d records, wrote %d", len(got), len(recs))
	}
	for k, e := range got {
		if e.U != int64(k/x) || e.V != recs[k].v {
			t.Fatalf("record %d = %+v, want U %d V %d", k, e, k/x, recs[k].v)
		}
	}
}

// BenchmarkEmit measures the writer's steady state — Emit, block flush
// and page-cache write, no fsync — for the ascending keys the engine
// hands it. A pass must not allocate (asserted): the block buffer is
// reused.
func BenchmarkEmit(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(1))
	asc := make([]rec, n)
	for k := range asc {
		asc[k] = rec{key: uint64(k), v: rng.Int63n(n)}
	}
	b.Run("ascending", func(b *testing.B) {
		w, err := Open(b.TempDir(), testMeta(n, 1), 0)
		if err != nil {
			b.Fatal(err)
		}
		defer w.Abort()
		if err := w.Reset(); err != nil {
			b.Fatal(err)
		}
		base := uint64(0)
		pass := func() {
			for _, r := range asc {
				if err := w.Emit(base+r.key, r.v); err != nil {
					b.Fatal(err)
				}
			}
			base += n
		}
		pass() // grows the block buffer to its steady size
		if allocs := testing.AllocsPerRun(1, pass); allocs != 0 {
			b.Fatalf("a steady-state pass of %d records allocated %v times, want 0", n, allocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/edge")
	})
}
