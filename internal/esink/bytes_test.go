package esink

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
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
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/xrand"
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
// slot first on, explicit of them stored and exceptions exceptions, CRC
// valid whatever the fields say.
func craftBlock(seq, first, count, explicit, exceptions uint64, payload []byte) []byte {
	b := []byte{blockMarker}
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, first)
	b = binary.AppendUvarint(b, count)
	b = binary.AppendUvarint(b, explicit)
	b = binary.AppendUvarint(b, exceptions)
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// flatBlock frames vals as block seq of count records from slot first
// on, every one of them stored: the layout of a shard whose header p is
// 0, where no first attempt is direct.
func flatBlock(seq, first uint64, w uint, vals ...int64) []byte {
	return craftBlock(seq, first, uint64(len(vals)), uint64(len(vals)), 0, refPayload(w, vals...))
}

// flatMeta is testMeta with p = 0 (x is 1, so the model accepts it):
// every record is copy-first, so every value is stored, and a crafted
// payload's bits are all values.
func flatMeta(n int64) Meta {
	m := testMeta(n, 1)
	m.P = 0
	return m
}

// How the format stores a record.
const (
	explicitRec  = iota // its value, in w bits
	implicitRec         // nothing: its first attempt is direct to its value
	exceptionRec        // (offset, value): its first attempt is direct elsewhere
)

// refCodec is the reference v4 encoder the writer is held to, written
// down the slow, obvious way: it classifies every record through
// model.Drawer.Attempt itself, so it also cross-checks the writer's
// inline kernel.
type refCodec struct {
	meta Meta
	part partition.Scheme
	w    uint
}

func newRefCodec(meta Meta) *refCodec {
	kind, err := partition.ParseKind(meta.Scheme)
	if err != nil {
		panic(err)
	}
	part, err := partition.New(kind, meta.N, meta.Ranks)
	if err != nil {
		panic(err)
	}
	return &refCodec{meta: meta, part: part, w: ValueBits(meta.N)}
}

// attempt is attempt 0 of slot key's edge; drawn is false for a row
// the bootstrap fixes (a clique node or node x), which draws nothing,
// and for a key past the rank's slots, which a crafted block may hold.
func (c *refCodec) attempt(key uint64) (a model.Attempt, drawn bool) {
	x := uint64(c.meta.X)
	if key/x >= uint64(c.part.Size(c.meta.Rank)) {
		return a, false
	}
	t := c.part.NodeAt(c.meta.Rank, int64(key/x))
	if t <= int64(x) {
		return a, false
	}
	d := model.Params{N: c.meta.N, X: c.meta.X, P: c.meta.P}.NewDrawer(t)
	var rng xrand.Rand
	return d.Attempt(&rng, c.meta.Seed, int(key%x), 0), true
}

func (c *refCodec) class(r rec) int {
	switch a, drawn := c.attempt(r.key); {
	case !drawn || !a.Direct:
		return explicitRec
	case a.K == r.v:
		return implicitRec
	}
	return exceptionRec
}

// block is the reference block of the records of consecutive slots recs
// (sorted first): the stored values w bits each, then the exceptions,
// each its offset in ValueBits(count) bits and its value in w.
func (c *refCodec) block(seq int64, recs []rec) []byte {
	recs = append([]rec(nil), recs...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })
	var vals []int64
	var exc []uint64
	for i, r := range recs {
		if r.key != recs[0].key+uint64(i) {
			panic("refBlock: the records' keys are not consecutive")
		}
		switch c.class(r) {
		case explicitRec:
			vals = append(vals, r.v)
		case exceptionRec:
			exc = append(exc, uint64(i), uint64(r.v))
		}
	}
	return craftBlock(uint64(seq), recs[0].key, uint64(len(recs)), uint64(len(vals)), uint64(len(exc)/2),
		append(refPayload(c.w, vals...), refExceptions(ValueBits(int64(len(recs))), c.w, exc...)...))
}

// refExceptions packs (offset, value) pairs a bit at a time, the offset
// in ob bits and the value in w.
func refExceptions(ob, w uint, exc ...uint64) []byte {
	out := make([]byte, (uint(len(exc)/2)*(ob+w)+7)/8)
	bit := uint(0)
	for i, v := range exc {
		width := w
		if i%2 == 0 {
			width = ob
		}
		for j := uint(0); j < width; j, bit = j+1, bit+1 {
			if v>>j&1 != 0 {
				out[bit/8] |= 1 << (bit % 8)
			}
		}
	}
	return out
}

// refBlock is newRefCodec(meta).block(seq, recs).
func refBlock(meta Meta, seq int64, recs []rec) []byte { return newRefCodec(meta).block(seq, recs) }

func refEOS(edges, blocks int64) []byte {
	b := []byte{eosMarker}
	b = binary.AppendUvarint(b, uint64(edges))
	b = binary.AppendUvarint(b, uint64(blocks))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// refShard is the reference writer: records accumulate into a block
// that closes when it holds blockEdges records, at the record that
// brings its exceptions to MaxExceptions, at a cut, or when the next
// record's key does not follow its last.
type refShard struct {
	*refCodec
	blockEdges int
	file       []byte
	open       []rec
	exceptions int
	blocks     int64
	edges      int64
}

func newRefShard(meta Meta, blockEdges int) *refShard {
	return &refShard{refCodec: newRefCodec(meta), blockEdges: blockEdges, file: encodeHeader(meta)}
}

func (s *refShard) emit(r rec) {
	if len(s.open) > 0 && r.key != s.open[len(s.open)-1].key+1 {
		s.cut()
	}
	s.open = append(s.open, r)
	if s.class(r) == exceptionRec {
		s.exceptions++
	}
	if len(s.open) >= s.blockEdges || s.exceptions == MaxExceptions {
		s.cut()
	}
}

func (s *refShard) cut() Mark {
	if len(s.open) > 0 {
		s.file = append(s.file, s.block(s.blocks, s.open)...)
		s.blocks++
		s.edges += int64(len(s.open))
		s.open, s.exceptions = s.open[:0], 0
	}
	return Mark{Offset: int64(len(s.file)), Blocks: s.blocks, Edges: s.edges}
}

func (s *refShard) close() []byte {
	s.cut()
	return append(s.file, refEOS(s.edges, s.blocks)...)
}

// consistent sets a frac share of recs, in place, to what the model
// makes of their slots under meta wherever their first attempt is
// direct — records the format stores in no bits — and returns recs.
func consistent(rng *rand.Rand, meta Meta, recs []rec, frac float64) []rec {
	c := newRefCodec(meta)
	for i, r := range recs {
		if a, drawn := c.attempt(r.key); drawn && a.Direct && rng.Float64() < frac {
			recs[i].v = a.K
		}
	}
	return recs
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

// refN is the node count of the differential test's run: 60-bit values,
// and room for the widest key gaps.
const refN = 1 << 60

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
				// Three records in four as the model makes them, so that
				// blocks hold all three kinds of record and the exception
				// limit cuts some.
				consistent(rng, meta, recs, 0.75)
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
				if _, err := w.Recover(cut); err != nil {
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
	meta := flatMeta(int64(1) << max(valBits, 17))
	var recs []rec
	var blocks [][]byte
	for count := 1; count <= 1<<16; count *= 2 {
		block := make([]rec, count)
		for i := range block {
			block[i] = rec{key: uint64(len(recs) + i), v: rng.Int63n(1 << valBits)}
		}
		blocks = append(blocks, refBlock(meta, int64(len(blocks)), block))
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
// bytes it has — is damage the scan meets, at every cut: OpenReader
// refuses the shard, and Recover keeps the blocks before it. It never
// reads as a clean stream that is silently short.
func TestTruncatedPayload(t *testing.T) {
	meta := flatMeta(1 << 40)
	w := ValueBits(meta.N)
	first := flatBlock(0, 0, w, 9)
	payload := refPayload(w, 5, 300, 1<<39)
	for cut := 1; cut <= len(payload); cut++ {
		dir := t.TempDir()
		path := ShardPath(dir, meta.Rank, meta.Ranks)
		if err := os.WriteFile(path, craftShard(meta, first, craftBlock(1, 1, 3, 3, 0, payload[:len(payload)-cut])), 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := OpenReader(path); err == nil {
			n, err := drain(r.Iter(0))
			r.Close()
			t.Fatalf("cut %d: the strict reader opened the shard and read %d records, err %v", cut, n, err)
		}
		if _, got, damage := recoverPrefix(t, dir, meta); len(got) != 1 || damage == nil {
			t.Fatalf("cut %d: Recover kept %d records, scan damage %v; want the first block's 1 and damage", cut, len(got), damage)
		}
	}
}

// A version 1 or 2 shard — whose blocks could interleave keys, or whose
// records are a key delta and a value varint — is refused by its
// version before any block is read, by OpenReader and by Recover.
func TestReaderRefusesVersion1(t *testing.T) {
	meta := testMeta(1000, 1)
	for _, ver := range []byte{1, 2} {
		old := craftShard(meta, refBlock(meta, 0, []rec{{1, 0}, {2, 1}}))
		old[len(Magic)] = ver // the version uvarint; the header CRC is stale now
		hdr := encodeHeader(meta)
		binary.LittleEndian.PutUint32(old[len(hdr)-4:], crc32.Checksum(old[:len(hdr)-4], castagnoli))
		dir := t.TempDir()
		path := ShardPath(dir, 0, 1)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("unsupported shard version %d", ver)
		if r, err := OpenReader(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d shard: reader %v, err = %v, want a refusal naming version %d", ver, r, err, ver)
		}
		w, err := Open(dir, meta, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Recover(Mark{Offset: int64(len(old))}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d shard: Recover err = %v, want a refusal naming version %d", ver, err, ver)
		}
		w.Abort()
	}
}

// hostile is a CRC-clean shard the strict reader must refuse, what its
// error says, and how many records a reader yields before the refusal
// when the shard opens.
type hostile struct {
	name, want string
	data       []byte
	good       int64
}

// hostileShards are CRC-clean v4 shards of rank 1 of a two-rank run
// whose blocks are not the writer's encoding of any records — an
// explicit count the draws disagree with, exceptions where the format
// keeps none, out of order, past the block or n, or equal to the value
// the draws give — and headers no reader may take: p outside [0, 1], and
// version 3.
func hostileShards(tb testing.TB) []hostile {
	meta := Meta{N: 1000, X: 3, P: 0.5, Seed: 1, Rank: 1, Ranks: 2, Scheme: "RRP"}
	c := newRefCodec(meta)
	w := c.w
	recs := modelRecs(tb, meta)
	// find returns the first record from recs[from:] whose attempt 0
	// satisfies ok, and its index.
	find := func(from int, ok func(a model.Attempt, drawn bool) bool) (rec, int) {
		for i, r := range recs[from:] {
			if ok(c.attempt(r.key)) {
				return r, from + i
			}
		}
		tb.Fatal("no record of the kind wanted")
		return rec{}, 0
	}
	direct := func(a model.Attempt, drawn bool) bool { return drawn && a.Direct }
	copied, _ := find(0, func(a model.Attempt, drawn bool) bool { return drawn && !a.Direct })
	row, _ := find(0, func(_ model.Attempt, drawn bool) bool { return !drawn })
	d1, i1 := find(0, direct)
	_, i2 := find(i1+1, direct)
	shard := func(blocks ...[]byte) []byte { return craftShard(meta, blocks...) }
	// one is the block of the single record r with the given counts and
	// payload.
	one := func(r rec, explicit, exceptions uint64, payload []byte) []byte {
		return shard(craftBlock(0, r.key, 1, explicit, exceptions, payload))
	}
	// pair is the block of records i1 to i2 with both direct-first ones
	// moved off their candidates: exceptions at offsets 0 and i2 − i1,
	// written in the order given.
	pair := func(offs ...uint64) []byte {
		var vals []int64
		for _, r := range recs[i1 : i2+1] {
			if c.class(r) == explicitRec {
				vals = append(vals, r.v)
			}
		}
		n := uint64(i2 - i1 + 1)
		var exc []uint64
		for _, o := range offs {
			exc = append(exc, o, uint64(recs[i1+int(o)].v+1)%uint64(meta.N))
		}
		return shard(craftBlock(0, d1.key, n, uint64(len(vals)), uint64(len(offs)),
			append(refPayload(w, vals...), refExceptions(ValueBits(int64(n)), w, exc...)...)))
	}
	badP := func(p float64) []byte {
		m := meta
		m.P = p
		return craftShard(m, refBlock(meta, 0, recs[1:4]))
	}
	v3 := shard(refBlock(meta, 0, recs[1:4]))
	v3[len(Magic)] = 3 // the version uvarint; reseal the header CRC
	hdr := len(encodeHeader(meta))
	binary.LittleEndian.PutUint32(v3[hdr-4:], crc32.Checksum(v3[:hdr-4], castagnoli))
	ob := ValueBits(1)
	padded := refExceptions(ob, w, 0, uint64(d1.v+1)) // 1 + 10 bits: 5 spare ones
	padded[1] |= 1 << 7
	return []hostile{
		{"a value where the draws give one", "explicit count 1 disagrees with the draws, which take 0", one(d1, 1, 0, refPayload(w, d1.v)), 1},
		{"no value where the draws take one", fmt.Sprintf("explicit count 0 disagrees with the draws, which take more by slot %d", copied.key), one(copied, 0, 0, nil), 0},
		{"an exception at a copy-first slot", fmt.Sprintf("slot %d: an exception where the value is stored", copied.key), one(copied, 0, 1, refExceptions(ob, w, 0, uint64(copied.v))), 0},
		{"an exception in a bootstrap row", fmt.Sprintf("slot %d: an exception where the value is stored", row.key), one(row, 0, 1, refExceptions(ob, w, 0, uint64(row.v))), 0},
		{"an exception equal to its candidate", fmt.Sprintf("slot %d: exception value %d is its first attempt's candidate", d1.key, d1.v), one(d1, 0, 1, refExceptions(ob, w, 0, uint64(d1.v))), 0},
		{"exceptions out of order", fmt.Sprintf("exception 1 at offset 0 does not follow offset %d", i2-i1), pair(uint64(i2-i1), 0), 0},
		{"a repeated exception", "exception 1 at offset 0 does not follow offset 0", pair(0, 0), 0},
		{"an exception past the block", "exception 0 at offset 1 past its 1 records", one(d1, 0, 1, refExceptions(ob, w, 1, uint64(d1.v+1))), 1},
		{"an exception past n", fmt.Sprintf("slot %d holds value 1000 past the run's 1000 nodes", d1.key), one(d1, 0, 1, refExceptions(ob, w, 0, 1000)), 0},
		{"a set bit after the exceptions", "padding bits after its 1 exceptions are set", one(d1, 0, 1, padded), 1},
		{"more exceptions than a block may hold", fmt.Sprintf("%d exceptions", MaxExceptions+1), one(d1, 0, MaxExceptions+1, make([]byte, 2000)), 0},
		{"p above 1", "header describes no possible run", badP(1.5), 0},
		{"p below 0", "header describes no possible run", badP(-0.5), 0},
		{"a version 3 file", "unsupported shard version 3 (reader supports 4, whose blocks store only the values the seed cannot recompute; docs/SHARD_FORMAT.md)", v3, 0},
	}
}

// TestReaderRefusesNonCanonical: every hostile shard is refused — when
// it opens, or when its bad block is reached, on Iter and on the
// download lanes alike — by an error that names what is wrong, so no
// CRC-clean payload that is not the writer's encoding of its records
// reads as a graph. A shard refused past its open yields exactly the
// records before the refused one, or before the block's end when what
// is wrong is found there, on Iter and on a lane alike.
func TestReaderRefusesNonCanonical(t *testing.T) {
	for _, h := range hostileShards(t) {
		t.Run(h.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "shard")
			if err := os.WriteFile(path, h.data, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := OpenReader(path)
			if err != nil {
				if !strings.Contains(err.Error(), h.want) {
					t.Fatalf("open: %v; want an error saying %q", err, h.want)
				}
				return
			}
			defer r.Close()
			if n, err := drain(r.Iter(0)); n != h.good || err == nil || !strings.Contains(err.Error(), h.want) {
				t.Fatalf("drain: %d records then %v; want %d and an error saying %q", n, err, h.good, h.want)
			}
			if n, err := laneRecords(r); n != h.good || err == nil || !strings.Contains(err.Error(), h.want) {
				t.Fatalf("lane: %d records then %v; want %d and an error saying %q", n, err, h.good, h.want)
			}
			lanes, iter, lerr, ierr := downloads(r)
			if err := sameDownload(lanes, iter, lerr, ierr); err != nil {
				t.Fatal(err)
			}
			if lerr == nil || !strings.Contains(lerr.Error(), h.want) {
				t.Fatalf("download: %v; want an error saying %q", lerr, h.want)
			}
		})
	}
}

// A shard whose next key is not above the previous one — a block whose
// first key repeats its predecessor's last (a zero delta between two
// records), lies inside it, or repeats it after a longer block — is
// CRC-clean but refused when the block is reached, by an error naming
// both keys and the block, after every record before it.
func TestReaderRefusesNonAscendingKeys(t *testing.T) {
	meta := testMeta(1000, 1)
	for _, tc := range []struct {
		name   string
		blocks [][]byte
		good   int64
		want   string
	}{
		{"zero delta", [][]byte{refBlock(meta, 0, []rec{{6, 2}}), refBlock(meta, 1, []rec{{6, 3}})}, 1, "block 1: key 6 does not follow key 6"},
		{"overlapping blocks", [][]byte{refBlock(meta, 0, []rec{{5, 1}, {6, 1}, {7, 1}, {8, 1}, {9, 2}}), refBlock(meta, 1, []rec{{7, 3}, {8, 4}})}, 5, "block 1: key 7 does not follow key 9"},
		{"repeated boundary key", [][]byte{refBlock(meta, 0, []rec{{5, 1}, {6, 1}, {7, 1}, {8, 1}, {9, 2}}), refBlock(meta, 1, []rec{{9, 3}})}, 5, "block 1: key 9 does not follow key 9"},
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

// laneRecords decodes r's shard chunk by chunk on one download lane and
// returns how many records it decoded before it stopped, and why.
func laneRecords(r *Reader) (int64, error) {
	di := (&DirReader{readers: []*Reader{r}}).Iter(1)
	lane := di.Lane()
	var n int64
	for i := range di.Chunks() {
		_, k, err := lane(i, make([]byte, 0, 1<<16), func(b []byte) []byte { return b[:0] })
		if n += k; err != nil {
			return n, err
		}
	}
	return n, nil
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
	narrow, wide := flatMeta(8), flatMeta(1<<63-1) // w = 3 and 63
	for _, tc := range []struct {
		name   string
		meta   Meta
		blocks [][]byte
		good   int64
		want   string
	}{
		// Value 5 in bits 0–2, a second record's value 6 in bits 3–5.
		{"a record too many", narrow, [][]byte{craftBlock(0, 1, 1, 1, 0, []byte{5 | 6<<3})}, 1, "block 0: padding bits after its 1 records are set"},
		{"a set bit after a wide value", wide, [][]byte{craftBlock(0, 0, 1, 1, 0, binary.LittleEndian.AppendUint64(nil, 1<<63|7))}, 1, "block 0: padding bits after its 1 records are set"},
		{"in a later block", narrow, [][]byte{flatBlock(0, 0, 3, 1), craftBlock(1, 1, 2, 2, 0, []byte{1 | 2<<3 | 1<<7})}, 3, "block 1: padding bits after its 2 records are set"},
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
	meta := flatMeta(n)
	w := ValueBits(n)
	var big []rec // a block longer than a minWindow chunk
	for k := uint64(0); k < 2000; k++ {
		big = append(big, rec{key: k, v: n - 1})
	}
	small := refBlock(meta, 0, []rec{{5, 1}, {6, 1}, {7, 1}, {8, 1}, {9, 2}})
	for _, tc := range []struct {
		name   string
		blocks [][]byte
		want   string
	}{
		{"blocks overlap across chunks", [][]byte{refBlock(meta, 0, big), refBlock(meta, 1, []rec{{600, 1}})}, "block 1: key 600 does not follow key 1999"},
		{"a repeated key across chunks", [][]byte{refBlock(meta, 0, big), refBlock(meta, 1, []rec{{1999, 1}})}, "block 1: key 1999 does not follow key 1999"},
		{"blocks overlap in one chunk", [][]byte{small, refBlock(meta, 1, []rec{{7, 3}})}, "block 1: key 7 does not follow key 9"},
		{"a zero delta", [][]byte{refBlock(meta, 0, []rec{{4, 1}}), refBlock(meta, 1, []rec{{4, 3}})}, "block 1: key 4 does not follow key 4"},
		// Value 1 in bits 0–19, then a set spare bit.
		{"a padded value", [][]byte{small, craftBlock(1, 10, 1, 1, 0, []byte{1, 0, 1 << 5})}, "block 1: padding bits after its 1 records are set"},
		{"a value past n", [][]byte{refBlock(meta, 0, big), refBlock(meta, 1, []rec{{2000, 7}, {2001, n}})}, "block 1: slot 2001 holds value 1000000 past the run's 1000000 nodes"},
		{"a count past the slots", [][]byte{refBlock(meta, 0, big), craftBlock(1, n-1, 2, 2, 0, refPayload(w, 1, 1))}, "slot key 1000000 outside the rank's 1000000 slots"},
		{"a key past the slots", [][]byte{refBlock(meta, 0, big), refBlock(meta, 1, []rec{{n, 1}})}, "slot key 1000000 outside"},
		{"bytes after the records", [][]byte{refBlock(meta, 0, big), craftBlock(1, 2000, 1, 1, 0, []byte{1, 0, 1 << 7})}, "block 1: padding bits after its 1 records are set"},
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
// with its draws and page-cache write, no fsync — for the records
// seq.CopyModel makes of a one-rank run's slots, in the key order the
// engine hands them over. Each pass rewinds the writer to the header,
// so every pass rewrites the same bytes. A pass must not allocate
// (asserted): the block buffers are reused.
func BenchmarkEmit(b *testing.B) {
	meta := Meta{N: 1 << 18, X: 4, P: 0.5, Seed: 1, Rank: 0, Ranks: 1, Scheme: "UCP"}
	recs := modelRecs(b, meta)
	b.Run("ascending", func(b *testing.B) {
		w, err := Open(b.TempDir(), meta, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer w.Abort()
		if err := w.Reset(); err != nil {
			b.Fatal(err)
		}
		hdr := w.off
		pass := func() {
			for _, r := range recs {
				if err := w.Emit(r.key, r.v); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := w.Mark(); err != nil {
				b.Fatal(err)
			}
			w.next, w.off = 0, hdr // rewind
		}
		pass() // grows the block buffer to its steady size
		if allocs := testing.AllocsPerRun(1, pass); allocs != 0 {
			b.Fatalf("a steady-state pass of %d records allocated %v times, want 0", len(recs), allocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/edge")
	})
}

// TestShardSizeExact: a shard is exactly its header, every block's
// header, ⌈explicit·w/8⌉ bytes of stored values, ⌈exceptions·(o+w)/8⌉
// bytes of exceptions (o = ValueBits(count)) and CRC, and the
// end-of-stream record — nothing a record keeps implicit — where the
// explicit and exception counts are the reference classification's:
// at value widths of 1, 12, 20, 33 and 63 bits (values straddle two
// payload words at the wide ones), at several block sizes, over the
// gaps a clique's rows leave, for records the model makes with every
// tenth value moved off it; and it reads back.
func TestShardSizeExact(t *testing.T) {
	for _, w := range []uint{1, 12, 20, 33, 63} {
		// The largest n of width w, room for the records' slots, and
		// the first slot past the clique's rows.
		n, x, from := int64(1)<<w-1, 4, uint64(16)
		switch w {
		case 1:
			// Two nodes: the one record is node 1's edge, a
			// bootstrap row the format stores in full.
			n, x, from = 2, 1, 1
		case 63:
			x, from = 1, 1
		}
		meta := testMeta(n, x)
		c := newRefCodec(meta)
		rng := rand.New(rand.NewSource(int64(w)))
		var recs []rec
		// The clique: node t < x has t edges, leaving its other slots
		// empty; later, a gap before one record in 200.
		for tnode := uint64(1); tnode < min(uint64(x), uint64(n)); tnode++ {
			for e := uint64(0); e < tnode; e++ {
				recs = append(recs, rec{key: tnode*uint64(x) + e, v: rng.Int63n(int64(tnode))})
			}
		}
		for k := from; len(recs) < 3000 && k < uint64(n)*uint64(x); k++ {
			if rng.Intn(200) == 0 {
				k += 1 + uint64(rng.Intn(5))
			}
			recs = append(recs, rec{key: k, v: n - 1 - rng.Int63n(min(n, 1<<20))})
		}
		consistent(rng, meta, recs, 0.9)
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
				want, rest := int64(len(encodeHeader(meta))), recs
				var implicit int64
				for i, b := range r.sc.blocks {
					var explicit, exceptions int64
					for _, rc := range rest[:b.count] {
						switch c.class(rc) {
						case explicitRec:
							explicit++
						case exceptionRec:
							exceptions++
						default:
							implicit++
						}
					}
					rest = rest[b.count:]
					if b.explicit != explicit || b.exceptions != exceptions {
						t.Fatalf("block %d: %d explicit values and %d exceptions, the reference classifies %d and %d", i, b.explicit, b.exceptions, explicit, exceptions)
					}
					hdr := 1
					for _, f := range []uint64{uint64(i), b.first, uint64(b.count), uint64(explicit), uint64(exceptions)} {
						hdr += len(binary.AppendUvarint(nil, f))
					}
					want += int64(hdr) + (explicit*int64(w)+7)/8 + (exceptions*int64(ValueBits(b.count)+w)+7)/8 + 4
				}
				// At n = 2 no node draws, so nothing is implicit.
				if w > 1 && implicit < int64(len(recs))/4 {
					t.Fatalf("%d of %d records implicit: the fixture should make far more", implicit, len(recs))
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

// Open sizes the writer's buffers with BufferBytes — the expression
// pagen.MemoryEstimate charges a streamed rank for its open block — and
// a full block of the widest values, every one an exception or stored,
// fills them without growing them.
func TestOpenBufferIsBufferBytes(t *testing.T) {
	for _, n := range []int64{2, 1_000_000, 1 << 33, 1<<63 - 1} {
		for _, blockEdges := range []int{1, 63, 1000, 0} {
			w, err := Open(t.TempDir(), testMeta(n, 1), blockEdges)
			if err != nil {
				t.Fatal(err)
			}
			held := func() int64 {
				return int64(cap(w.enc) + cap(w.xb) + 8*cap(w.exc) + int(unsafe.Sizeof(w.stage)+unsafe.Sizeof(w.firsts)))
			}
			want := BufferBytes(n, blockEdges)
			if got := held(); got != want {
				t.Fatalf("n = %d, %d records a block: the writer holds %d bytes, BufferBytes says %d", n, blockEdges, got, want)
			}
			if err := w.Reset(); err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < uint64(min(n, int64(2*max(blockEdges, 1)+1))); k++ {
				if err := w.Emit(k, n-1); err != nil {
					t.Fatal(err)
				}
				if got := held(); got != want {
					t.Fatalf("n = %d, %d records a block: the buffers grew to %d bytes from %d", n, blockEdges, got, want)
				}
			}
			if _, err := w.Mark(); err != nil {
				t.Fatal(err)
			}
			if got := held(); got != want {
				t.Fatalf("n = %d, %d records a block: the buffers grew to %d bytes from %d at a flush", n, blockEdges, got, want)
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
	meta := flatMeta(n)
	dir := t.TempDir()
	path := ShardPath(dir, 0, 1)
	shard := craftShard(meta, flatBlock(0, 0, 10, 1, 2), flatBlock(1, 2, 10, 999, 1023, 5))
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

// TestRejectedDrawsRoundTrip: at n near 2⁵⁷, with spans just above 2⁵⁶,
// Lemire's method rejects about one first draw in 256, and the inline
// kernel leaves those to Attempt. The writer still writes the reference
// encoding of records that take every path — implicit, stored,
// exceptions — and every reader reads them back.
func TestRejectedDrawsRoundTrip(t *testing.T) {
	meta := testMeta(1<<57-1, 1) // one rank of UCP at x = 1: slot k is node k
	c := newRefCodec(meta)
	rng := rand.New(rand.NewSource(3))
	var recs []rec
	rejected := 0
	for k := uint64(1<<56 + 2); len(recs) < 20000; k++ {
		recs = append(recs, rec{key: k, v: rng.Int63n(meta.N)})
		span := k - 1
		a, _ := xrand.Pair(meta.Seed, k) // node k's edge 0 draws block k·x + 0
		if _, lo := bits.Mul64(a, span); lo < -span%span {
			rejected++
		}
	}
	if rejected < 20 {
		t.Fatalf("%d rejected first draws among %d slots, want dozens", rejected, len(recs))
	}
	consistent(rng, meta, recs, 0.9)
	for _, blockEdges := range []int{100, DefaultBlockEdges} {
		path := writeShard(t, t.TempDir(), meta, blockEdges, recs)
		ref := newRefShard(meta, blockEdges)
		for _, r := range recs {
			ref.emit(r)
		}
		compareFile(t, fmt.Sprintf("block %d", blockEdges), path, ref.close())
		r, err := OpenReader(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := slots(r.Iter(0))
		r.Close()
		if err != nil || len(got) != len(recs) {
			t.Fatalf("read %d records, err %v; wrote %d", len(got), err, len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("record %d = %+v, wrote %+v (%d implicit)", i, got[i], recs[i], c.class(recs[i]))
			}
		}
	}
}

// The writer and the decoder map a rank's local index i to node
// base + i·stride: every partition scheme lays a rank's nodes out so.
func TestRowsAreArithmetic(t *testing.T) {
	for _, kind := range []partition.Kind{partition.KindUCP, partition.KindLCP, partition.KindRRP, partition.KindExactCP} {
		for _, ranks := range []int{1, 2, 3, 7} {
			part, err := partition.New(kind, 5000, ranks)
			if err != nil {
				t.Fatal(err)
			}
			for rank := 0; rank < ranks; rank++ {
				r := newRows(part, Meta{N: 5000, X: 3, P: 0.5, Rank: rank, Ranks: ranks})
				for i := int64(0); i < part.Size(rank); i++ {
					if got, want := r.base+i*r.stride, part.NodeAt(rank, i); got != want {
						t.Fatalf("%v, rank %d of %d: index %d maps to node %d, the partition says %d", kind, rank, ranks, i, got, want)
					}
				}
			}
		}
	}
}
