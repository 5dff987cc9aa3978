package esink

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
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
// value i in bits [i·w, (i+1)·w), little-endian, in ⌈len(vals)·w/8⌉
// bytes — the payload of docs/SHARD_FORMAT.md written down the slow,
// obvious way, a bit at a time.
func refPayload(w uint, vals ...int64) []byte {
	payload := make([]byte, (uint(len(vals))*w+7)/8)
	for i, v := range vals {
		for j := uint(0); j < w; j++ {
			if bit := uint(i)*w + j; v>>j&1 != 0 {
				payload[bit/8] |= 1 << (bit % 8)
			}
		}
	}
	return payload
}

// craftBlock frames payload as block seq claiming count records from
// slot first on, CRC valid whatever the fields say.
func craftBlock(seq, first, count uint64, payload []byte) []byte {
	b := []byte{blockMarker}
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, first)
	b = binary.AppendUvarint(b, count)
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// refBlock is the reference block of the records of consecutive slots
// recs (sorted first), their values w bits each.
func refBlock(seq int64, w uint, recs []rec) []byte {
	recs = append([]rec(nil), recs...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })
	vals := make([]int64, len(recs))
	for i, r := range recs {
		if r.key != recs[0].key+uint64(i) {
			panic("refBlock: the records' keys are not consecutive")
		}
		vals[i] = r.v
	}
	return craftBlock(uint64(seq), recs[0].key, uint64(len(recs)), refPayload(w, vals...))
}

func refEOS(edges, blocks int64) []byte {
	b := []byte{eosMarker}
	b = binary.AppendUvarint(b, uint64(edges))
	b = binary.AppendUvarint(b, uint64(blocks))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// refShard is the reference writer: records accumulate into a block
// that closes when it holds blockEdges records, at a cut, or when the
// next record's key does not follow its last.
type refShard struct {
	blockEdges int
	w          uint
	file       []byte
	open       []rec
	blocks     int64
	edges      int64
}

func newRefShard(meta Meta, blockEdges int) *refShard {
	return &refShard{blockEdges: blockEdges, w: ValueBits(meta.N), file: encodeHeader(meta)}
}

func (s *refShard) emit(r rec) {
	if len(s.open) > 0 && r.key != s.open[len(s.open)-1].key+1 {
		s.cut()
	}
	s.open = append(s.open, r)
	if len(s.open) >= s.blockEdges {
		s.cut()
	}
}

func (s *refShard) cut() Mark {
	if len(s.open) > 0 {
		s.file = append(s.file, refBlock(s.blocks, s.w, s.open)...)
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

// ascendingRecs returns n records with ascending keys, consecutive but
// for a gap below stride before one record in 32 (the gaps a clique
// node's missing slots leave), and values below nodes of every bit
// length.
func ascendingRecs(rng *rand.Rand, n int, stride uint64, nodes int64) []rec {
	recs := make([]rec, n)
	key := uint64(0)
	for i := range recs {
		key++
		if rng.Intn(32) == 0 {
			key += rng.Uint64() % stride
		}
		recs[i] = rec{key: key, v: rng.Int63n(nodes) >> uint(rng.Intn(63))}
	}
	return recs
}

// refN is the node count of the differential test's run: 40-bit values.
const refN = 1 << 40

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
	{"ascending", func(rng *rand.Rand, n, _ int) []rec { return ascendingRecs(rng, n, 4, refN) }},
	{"descending", func(rng *rand.Rand, n, _ int) []rec {
		recs := ascendingRecs(rng, n, 4, refN)
		for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
			recs[i], recs[j] = recs[j], recs[i]
		}
		return recs
	}},
	{"stragglers-1pct", func(rng *rand.Rand, n, be int) []rec { return delay(rng, ascendingRecs(rng, n, 4, refN), 0.01, be/2+1) }},
	{"stragglers-30pct", func(rng *rand.Rand, n, be int) []rec { return delay(rng, ascendingRecs(rng, n, 4, refN), 0.30, be/2+1) }},
	{"stragglers-100pct", func(rng *rand.Rand, n, be int) []rec { return delay(rng, ascendingRecs(rng, n, 4, refN), 1, be/2+1) }},
	// Delays longer than a block: a late record would land in a later
	// block than its neighbours.
	{"stragglers-older-than-block", func(rng *rand.Rand, n, be int) []rec { return delay(rng, ascendingRecs(rng, n, 4, refN), 0.30, 3*be+1) }},
	// Gaps of up to 40 bits between the blocks' first keys.
	{"wide-keys", func(rng *rand.Rand, n, be int) []rec {
		return delay(rng, ascendingRecs(rng, n, 1<<40, refN), 0.30, be/2+1)
	}},
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
	meta := testMeta(refN, 1)
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
		recs = append(recs, rec{key: k, v: rng.Int63n(n) >> uint(rng.Intn(18))})
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
// records, keys 0, 1, 2, … in file order, and values of valBits bits
// (17 at least: the run has a node for every record), so the payload
// size is the caller's choice. It returns the path and the records.
func growingShard(t *testing.T, valBits uint) (string, []rec) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(valBits)))
	meta := testMeta(int64(1)<<max(valBits, 17), 1)
	var recs []rec
	var blocks [][]byte
	for count := 1; count <= 1<<16; count *= 2 {
		block := make([]rec, count)
		for i := range block {
			block[i] = rec{key: uint64(len(recs) + i), v: rng.Int63n(1 << valBits)}
		}
		blocks = append(blocks, refBlock(int64(len(blocks)), ValueBits(meta.N), block))
		recs = append(recs, block...)
	}
	path := filepath.Join(t.TempDir(), "shard")
	if err := os.WriteFile(path, craftShard(meta, blocks...), 0o644); err != nil {
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
		_, m := binary.Uvarint(b[1+n:])
		count, _ := binary.Uvarint(b[1+n+m:])
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

// TestTruncatedPayload: a block's payload length follows from its
// count, so a block whose payload is cut short — its CRC sealed over the
// bytes it has — is refused when the shard opens, at every cut: strictly
// as a damaged block, tolerantly as a torn tail ending the blocks before
// it. It never reads as a clean stream that is silently short.
func TestTruncatedPayload(t *testing.T) {
	meta := testMeta(1<<40, 1)
	w := ValueBits(meta.N)
	first := refBlock(0, w, []rec{{0, 9}})
	payload := refPayload(w, 5, 300, 1<<39)
	for cut := 1; cut <= len(payload); cut++ {
		path := t.TempDir() + "/shard"
		if err := os.WriteFile(path, craftShard(meta, first, craftBlock(1, 1, 3, payload[:len(payload)-cut])), 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := OpenReader(path); err == nil {
			n, err := drain(r.Iter(0))
			r.Close()
			t.Fatalf("cut %d: the strict reader opened the shard and read %d records, err %v", cut, n, err)
		}
		r, err := OpenReaderTolerant(path)
		if err != nil {
			t.Fatalf("cut %d: tolerant open: %v", cut, err)
		}
		n, err := drain(r.Iter(0))
		r.Close()
		if n != 1 || err != nil {
			t.Fatalf("cut %d: the tolerant reader read %d records, err %v; want the first block's 1", cut, n, err)
		}
	}
}

// A version 1 or 2 shard — whose blocks could interleave keys, or whose
// records are a key delta and a value varint — is refused by its
// version before any block is read, strictly, tolerantly and by
// Recover.
func TestReaderRefusesVersion1(t *testing.T) {
	meta := testMeta(1000, 1)
	for _, ver := range []byte{1, 2} {
		old := craftShard(meta, refBlock(0, ValueBits(meta.N), []rec{{1, 0}, {2, 1}}))
		old[len(Magic)] = ver // the version uvarint; the header CRC is stale now
		hdr := encodeHeader(meta)
		binary.LittleEndian.PutUint32(old[len(hdr)-4:], crc32.Checksum(old[:len(hdr)-4], castagnoli))
		dir := t.TempDir()
		path := ShardPath(dir, 0, 1)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("unsupported shard version %d", ver)
		for _, open := range []func(string) (*Reader, error){OpenReader, OpenReaderTolerant} {
			if r, err := open(path); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("v%d shard: reader %v, err = %v, want a refusal naming version %d", ver, r, err, ver)
			}
		}
		w, err := Open(dir, meta, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Recover(Mark{Offset: int64(len(old))}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d shard: Recover err = %v, want a refusal naming version %d", ver, err, ver)
		}
		w.Abort()
	}
}

// A shard whose next key is not above the previous one — a block whose
// first key repeats its predecessor's last (a zero delta between two
// records), lies inside it, or repeats it after a longer block — is
// CRC-clean but refused when the block is reached, by an error naming
// both keys and the block, after every record before it.
func TestReaderRefusesNonAscendingKeys(t *testing.T) {
	meta := testMeta(1000, 1)
	w := ValueBits(meta.N)
	for _, tc := range []struct {
		name   string
		blocks [][]byte
		good   int64
		want   string
	}{
		{"zero delta", [][]byte{refBlock(0, w, []rec{{6, 2}}), refBlock(1, w, []rec{{6, 3}})}, 1, "block 1: key 6 does not follow key 6"},
		{"overlapping blocks", [][]byte{refBlock(0, w, []rec{{5, 1}, {6, 1}, {7, 1}, {8, 1}, {9, 2}}), refBlock(1, w, []rec{{7, 3}, {8, 4}})}, 5, "block 1: key 7 does not follow key 9"},
		{"repeated boundary key", [][]byte{refBlock(0, w, []rec{{5, 1}, {6, 1}, {7, 1}, {8, 1}, {9, 2}}), refBlock(1, w, []rec{{9, 3}})}, 5, "block 1: key 9 does not follow key 9"},
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

// A block's payload length follows from its count, so the only room a
// CRC-clean block has for anything after its declared records is the
// spare bits of its last byte — at w = 3 enough for a whole record. A
// set spare bit is refused by an error naming the block, after every
// record before it, on Iter and on the download lanes alike.
func TestReaderRefusesTrailingBytes(t *testing.T) {
	narrow, wide := testMeta(8, 1), testMeta(1<<63-1, 1) // w = 3 and 63
	for _, tc := range []struct {
		name   string
		meta   Meta
		blocks [][]byte
		good   int64
		want   string
	}{
		// Value 5 in bits 0–2, a second record's value 6 in bits 3–5.
		{"a record too many", narrow, [][]byte{craftBlock(0, 1, 1, []byte{5 | 6<<3})}, 1, "block 0: padding bits after its 1 records are set"},
		{"a set bit after a wide value", wide, [][]byte{craftBlock(0, 0, 1, binary.LittleEndian.AppendUint64(nil, 1<<63|7))}, 1, "block 0: padding bits after its 1 records are set"},
		{"in a later block", narrow, [][]byte{refBlock(0, 3, []rec{{0, 1}}), craftBlock(1, 1, 2, []byte{1 | 2<<3 | 1<<7})}, 3, "block 1: padding bits after its 2 records are set"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "shard")
			if err := os.WriteFile(path, craftShard(tc.meta, tc.blocks...), 0o644); err != nil {
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
	meta := Meta{N: 1<<63 - 1, X: 1, P: 0.5, Seed: 1, Rank: 0, Ranks: 1, Scheme: "UCP"} // slot key k is node k; w = 63
	var recs []rec
	for i, k := range []uint64{0, 1, 2, 1<<56 - 1, 1 << 56, 1<<56 + 1, 1 << 59} {
		recs = append(recs, rec{key: k, v: []int64{5, 1 << 56, 1<<62 + 3, 7, 1<<56 - 1, 1<<63 - 2, 0}[i]})
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
// overlap fall into different lanes' chunks, so that the second lane's
// check of its first block against the index is what refuses them.
func TestDownloadRefusesLikeIter(t *testing.T) {
	const n = 1_000_000 // w = 20: values up to 2²⁰ − 1 lie past n
	meta := testMeta(n, 1)
	w := ValueBits(n)
	var big []rec // a block longer than a minWindow chunk
	for k := uint64(0); k < 2000; k++ {
		big = append(big, rec{key: k, v: n - 1})
	}
	small := refBlock(0, w, []rec{{5, 1}, {6, 1}, {7, 1}, {8, 1}, {9, 2}})
	for _, tc := range []struct {
		name   string
		blocks [][]byte
		want   string
	}{
		{"blocks overlap across chunks", [][]byte{refBlock(0, w, big), refBlock(1, w, []rec{{600, 1}})}, "block 1: key 600 does not follow key 1999"},
		{"a repeated key across chunks", [][]byte{refBlock(0, w, big), refBlock(1, w, []rec{{1999, 1}})}, "block 1: key 1999 does not follow key 1999"},
		{"blocks overlap in one chunk", [][]byte{small, refBlock(1, w, []rec{{7, 3}})}, "block 1: key 7 does not follow key 9"},
		{"a zero delta", [][]byte{refBlock(0, w, []rec{{4, 1}}), refBlock(1, w, []rec{{4, 3}})}, "block 1: key 4 does not follow key 4"},
		// Value 1 in bits 0–19, then a set spare bit.
		{"a padded value", [][]byte{small, craftBlock(1, 10, 1, []byte{1, 0, 1 << 5})}, "block 1: padding bits after its 1 records are set"},
		{"a value past n", [][]byte{refBlock(0, w, big), refBlock(1, w, []rec{{2000, 7}, {2001, n}})}, "block 1: slot 2001 holds value 1000000 past the run's 1000000 nodes"},
		{"a count past the slots", [][]byte{refBlock(0, w, big), craftBlock(1, n-1, 2, refPayload(w, 1, 1))}, "slot key 1000000 outside the rank's 1000000 slots"},
		{"a key past the slots", [][]byte{refBlock(0, w, big), refBlock(1, w, []rec{{n, 1}})}, "slot key 1000000 outside"},
		{"bytes after the records", [][]byte{refBlock(0, w, big), craftBlock(1, 2000, 1, []byte{1, 0, 1 << 7})}, "block 1: padding bits after its 1 records are set"},
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
				if lerr == nil || !strings.Contains(lerr.Error(), tc.want) || !strings.Contains(lerr.Error(), path) {
					t.Fatalf("the download returned %v, want an error naming the shard and saying %q", lerr, tc.want)
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

// TestShardSizeExact: a shard is exactly its header, every block's
// header, ⌈count·w/8⌉ payload bytes and CRC, and the end-of-stream
// record — nothing a record — at value widths of 1, 20, 33 and 63 bits
// (values straddle two payload words at the wide ones), at several
// block sizes, over the gaps a clique's rows leave; and it reads back.
func TestShardSizeExact(t *testing.T) {
	for _, w := range []uint{1, 20, 33, 63} {
		// The largest n of width w, and room for the records' slots.
		n, x := int64(1)<<w-1, uint64(4)
		switch w {
		case 1:
			n, x = 2, 8000
		case 63:
			x = 1
		}
		meta := testMeta(n, int(x))
		rng := rand.New(rand.NewSource(int64(w)))
		var recs []rec
		// The clique: node t < 4 has t edges, leaving its other slots
		// empty; later, a gap before one record in 200.
		for tnode := uint64(1); tnode < min(4, uint64(n)); tnode++ {
			for e := uint64(0); e < min(tnode, x); e++ {
				recs = append(recs, rec{key: tnode*x + e, v: rng.Int63n(n)})
			}
		}
		for k := recs[len(recs)-1].key + 3; len(recs) < 3000; k++ {
			if rng.Intn(200) == 0 {
				k += 1 + uint64(rng.Intn(5))
			}
			recs = append(recs, rec{key: k, v: n - 1 - rng.Int63n(min(n, 1<<20))})
		}
		for _, blockEdges := range []int{1, 7, 64, 0} {
			t.Run(fmt.Sprintf("w%d/block%d", w, blockEdges), func(t *testing.T) {
				if got := ValueBits(n); got != w {
					t.Fatalf("ValueBits(%d) = %d, want %d", n, got, w)
				}
				path := writeShard(t, t.TempDir(), meta, blockEdges, recs)
				r, err := OpenReader(path)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				want := int64(len(encodeHeader(meta)))
				for i, b := range r.sc.blocks {
					hdr := 1 + len(binary.AppendUvarint(nil, uint64(i))) + len(binary.AppendUvarint(nil, b.first)) + len(binary.AppendUvarint(nil, uint64(b.count)))
					want += int64(hdr) + (b.count*int64(w)+7)/8 + 4
				}
				want += int64(len(refEOS(int64(len(recs)), int64(len(r.sc.blocks)))))
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if fi.Size() != want {
					t.Fatalf("shard is %d bytes, want exactly %d", fi.Size(), want)
				}
				got, err := slots(r.Iter(0))
				if err != nil || len(got) != len(recs) {
					t.Fatalf("read %d records, err %v; wrote %d", len(got), err, len(recs))
				}
				for i := range recs {
					if got[i] != recs[i] {
						t.Fatalf("record %d = %+v, wrote %+v", i, got[i], recs[i])
					}
				}
			})
		}
	}
}

// Open sizes the writer's one buffer with BufferBytes — the expression
// pagen.MemoryEstimate charges a streamed rank for its open block — and
// a full block of the widest values fills it without growing it.
func TestOpenBufferIsBufferBytes(t *testing.T) {
	for _, n := range []int64{2, 1_000_000, 1 << 33, 1<<63 - 1} {
		for _, blockEdges := range []int{1, 63, 1000, 0} {
			w, err := Open(t.TempDir(), testMeta(n, 1), blockEdges)
			if err != nil {
				t.Fatal(err)
			}
			want := BufferBytes(n, blockEdges)
			if got := int64(cap(w.enc)); got != want {
				t.Fatalf("n = %d, %d records a block: the writer holds %d bytes, BufferBytes says %d", n, blockEdges, got, want)
			}
			if err := w.Reset(); err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < uint64(2*max(blockEdges, 1)+1); k++ {
				if err := w.Emit(k, n-1); err != nil {
					t.Fatal(err)
				}
				if got := int64(cap(w.enc)); got != want {
					t.Fatalf("n = %d, %d records a block: the buffer grew to %d bytes from %d", n, blockEdges, got, want)
				}
			}
			w.Abort()
		}
	}
}

// A CRC-clean shard holding a value past n used to download as an edge
// to a node the run does not have: only the resume path checked values.
// Every reader refuses it now — NextSlot, Next, a directory's Next and
// the download lanes — after the records before it, naming the shard,
// the block and the slot.
func TestReadersRefuseValuePastN(t *testing.T) {
	const n = 1000 // w = 10: values up to 1023
	meta := testMeta(n, 1)
	dir := t.TempDir()
	path := ShardPath(dir, 0, 1)
	shard := craftShard(meta, refBlock(0, 10, []rec{{0, 1}, {1, 2}}), refBlock(1, 10, []rec{{2, 999}, {3, 1023}, {4, 5}}))
	if err := os.WriteFile(path, shard, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("esink: %s: block 1: slot 3 holds value 1023 past the run's 1000 nodes", path)
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, err := slots(r.Iter(0)); len(got) != 3 || err == nil || err.Error() != want {
		t.Errorf("NextSlot: %d records then %v; want 3 and %q", len(got), err, want)
	}
	if got, err := drain(r.Iter(0)); got != 3 || err == nil || err.Error() != want {
		t.Errorf("Next: %d records then %v; want 3 and %q", got, err, want)
	}
	d, err := OpenDir(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	it := d.Iter(0)
	var got int
	for _, ok := it.Next(); ok; _, ok = it.Next() {
		got++
	}
	if got != 3 || it.Err() == nil || it.Err().Error() != want {
		t.Errorf("DirIter.Next: %d edges then %v; want 3 and %q", got, it.Err(), want)
	}
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			if err := graph.WriteBinaryStream(io.Discard, n, d.Edges(), d.Iter(0)); err == nil || err.Error() != want {
				t.Errorf("download on %d lanes: err = %v, want %q", procs, err, want)
			}
		}()
	}
	if _, err := ReadGraph(dir, 1); err == nil || err.Error() != want {
		t.Errorf("ReadGraph: err = %v, want %q", err, want)
	}
}
