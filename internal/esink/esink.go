// Package esink implements the streaming external-memory edge sink:
// per-rank shard files that hold a rank's resolved edges as
// CRC-protected blocks of the fixed-width values the run's seed cannot
// recompute, written with bounded memory no matter how large the run is
// (docs/SHARD_FORMAT.md is the byte spec).
//
// Every edge is tagged with its canonical slot key (local node index
// times x plus edge index), which is unique per rank and defines the
// canonical per-rank order — the exact order the in-memory engine
// collects edges in. The engine hands the writer the slots below its
// resolved frontier in key order, so keys reach Emit strictly
// ascending and almost always consecutive: a block stores its first key
// and its record count, and a gap in the keys ends the block. A block
// stores a value only where the header's (n, x, p, seed) cannot
// recompute it: a record whose first attempt is a direct attachment to
// the value costs nothing, a copy-first record or a bootstrap row keeps
// its value in w = ValueBits(n) bits, and the rare direct-first record a
// duplicate retry moved is an exception, (offset, value). Emit stages
// each value; every 128 records the writer draws their first attempts
// in one tight loop and packs the explicit values through a 64-bit
// accumulator into the open block. The blocks of a shard ascend and
// partition the key
// space, so the reader walks them in file order through one bounded
// window, and since a block decodes on its own — its keys, its values'
// positions and its draws follow from its header and the shard's — a
// download decodes runs of blocks on two lanes at once. Merging the
// per-rank streams rank-major reproduces the in-memory merged graph
// byte for byte.
//
// The writer integrates with checkpoint/restart: Mark flushes the open
// block and returns a Mark (byte offset, block count, edge count) that
// Sync makes durable and internal/ckpt stores in the snapshot; Recover
// truncates a shard back to a Mark and hands back the prefix it kept, so
// a resumed run rebuilds its table from it and regenerates exactly the
// missing suffix, with no duplicated or dropped edges.
package esink

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/xrand"
)

const (
	// Magic opens every shard file.
	Magic = "PAGSHRD1"
	// Version is the shard format version; readers reject others.
	// Version 4 blocks store only the values the header's seed cannot
	// recompute; version 3 (every value, fixed width), version 2 (a key
	// delta and a value varint a record) and version 1 (blocks that need
	// not ascend) are refused.
	Version = 4
	// DefaultBlockEdges is the default number of edge records per block.
	// The writer holds the open block's stored values — at most w bits
	// a record — and a few KiB besides, its whole memory footprint
	// (BufferBytes).
	DefaultBlockEdges = 1 << 16
	// MaxBlockEdges is the most records a block may hold. Readers refuse
	// more, so that a few bytes of header cannot make a reader draw
	// without end.
	MaxBlockEdges = 1 << 20
	// MaxExceptions is the most exceptions a block may hold: the writer
	// closes a block at the record that brings it this many, and readers
	// refuse more, so both sides hold them in a fixed scratch.
	MaxExceptions = 256

	blockMarker = 'B'
	eosMarker   = 'E'

	// maxBlockHeader bounds a block's marker and five uvarint fields:
	// classify packs the stored values behind a gap this wide, and close
	// encodes the header right-aligned into the gap.
	maxBlockHeader = 1 + 5*binary.MaxVarintLen64
)

// ValueBits is w, the bits a shard of an n-node run stores each value
// in: bits.Len64(n−1), and 1 for n = 1 so that every record costs a bit.
func ValueBits(n int64) uint { return uint(max(1, bits.Len64(uint64(n-1)))) }

// payloadLen is the payload bytes of count values of w bits,
// ⌈count·w/8⌉.
func payloadLen(count int64, w uint) int64 { return (count*int64(w) + 7) / 8 }

// exceptionsLen is the bytes of a block's exception list: exceptions
// (offset, value) pairs, the offset in ValueBits(count) bits and the
// value in w.
func exceptionsLen(exceptions, count int64, w uint) int64 {
	return payloadLen(exceptions, ValueBits(count)+w)
}

// BufferBytes is what a writer of an n-node run holds for its open
// block, sized in Open for blocks of blockEdges records
// (DefaultBlockEdges if blockEdges <= 0): the header gap, a full block's
// values, the word its packing may run past them and the CRC; the
// exception list, packed with its CRC behind it and as the (offset,
// value) words it is collected in; and a batch of staged records and
// their first attempts.
func BufferBytes(n int64, blockEdges int) int64 {
	if blockEdges <= 0 {
		blockEdges = DefaultBlockEdges
	}
	w := ValueBits(n)
	return maxBlockHeader + payloadLen(int64(blockEdges), w) + 8 + 4 +
		exceptionsLen(MaxExceptions, int64(blockEdges), w) + 4 + 16*MaxExceptions + 16*decodeBatch
}

// castagnoli is the CRC-32C table (iSCSI polynomial) shared by writer
// and reader — the same polynomial the checkpoint format uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Meta identifies the run a shard belongs to. Readers validate shards
// against each other (and Recover validates the file against the
// resuming run), because merging shards of different runs — or re-using
// a stale shard file — would silently corrupt the output graph.
type Meta struct {
	N     int64
	X     int
	P     float64
	Seed  uint64
	Rank  int
	Ranks int
	// Scheme is the partition scheme name; writer and reader rebuild the
	// partition from it to re-derive each record's source node U from
	// the slot key (records store only key and V).
	Scheme string
}

// checkMeta refuses a run identity no run has — the CRCs vouch for a
// header's bytes, not their meaning: the partition's tables, the key
// range, the division by x and the draws need a run the model accepts,
// and OpenDir's identity check a p that equals itself — and returns the
// run's partition.
func checkMeta(m Meta) (partition.Scheme, error) {
	if m.N < 1 || m.X < 1 || m.N > math.MaxInt64/int64(m.X) || m.Ranks < 1 || m.Ranks > maxRanks || m.Rank < 0 || m.Rank >= m.Ranks {
		return nil, fmt.Errorf("header describes no possible run (%+v)", m)
	}
	if err := (model.Params{N: m.N, X: m.X, P: m.P}).Validate(); err != nil {
		return nil, fmt.Errorf("header describes no possible run (%+v): %w", m, err)
	}
	kind, err := partition.ParseKind(m.Scheme)
	if err != nil {
		return nil, err
	}
	return partition.New(kind, m.N, m.Ranks)
}

// rows maps a rank's slot keys to their rows — slot key is edge key%x
// of the node at local index key/x — and draws each drawn row's first
// attempts: what the writer and the decoder share, so that both
// classify a record alike.
type rows struct {
	pr   model.Params
	seed uint64
	x    uint64
	// Every scheme places a rank's nodes on an arithmetic progression:
	// local index i is node base + i·stride (TestRowsAreArithmetic).
	base, stride int64
}

func newRows(part partition.Scheme, m Meta) rows {
	r := rows{pr: model.Params{N: m.N, X: m.X, P: m.P}, seed: m.Seed, x: uint64(m.X), stride: 1}
	if part.Size(m.Rank) > 0 {
		r.base = part.NodeAt(m.Rank, 0)
	}
	if part.Size(m.Rank) > 1 {
		r.stride = part.NodeAt(m.Rank, 1) - r.base
	}
	return r
}

// node is the node at local index idx.
func (r *rows) node(idx uint64) int64 { return r.base + int64(idx)*r.stride }

// stored marks, in a batch of first attempts, a slot whose value a
// block stores: its row is not drawn or its attempt 0 is a copy. Every
// other slot holds its direct candidate, a node below n < 2⁶³.
const stored = ^uint64(0)

// firsts fills c with the first attempts of the len(c) slots from edge
// e of row idx on — the direct candidate, or stored — and returns the
// row and edge that follow them (an edge of x once a row is done).
// Bootstrap rows come first in a rank's slots; from the first drawn row
// on, drawRows walks the rest in one loop. A draw the inline kernel
// leaves to Attempt, about span/2⁶⁴ of them, is drawn again after them
// all.
func (r *rows) firsts(c []uint64, idx, e uint64) (uint64, uint64) {
	idx0, e0, i := idx, e, 0
	for ; i < len(c); i++ {
		if e == r.x {
			idx, e = idx+1, 0
		}
		if r.node(idx) > int64(r.x) {
			break
		}
		c[i] = stored // a clique node or node x: the bootstrap's
		e++
	}
	if i == len(c) {
		return idx, e
	}
	d := r.pr.NewDrawer(r.node(idx))
	if drawRows(c[i:], d, r.seed, r.x, r.stride, e) {
		r.redo(c, idx0, e0)
	}
	// The slots from edge e of row idx on fill rows idx … idx+last/x.
	last := e + uint64(len(c)-i) - 1
	return idx + last/r.x, last%r.x + 1
}

// drawRows fills c with the first attempts of the slots from edge e of
// d's node on, the rank's next nodes stride apart, and reports whether
// the kernel left any to Attempt. One loop with little else live: the
// next row is a step of the drawer and of the counter key every x
// slots.
func drawRows(c []uint64, d model.Drawer, seed, x uint64, stride int64, e uint64) bool {
	key := xrand.Rebase(seed, d.Block(int(e))) // Pair(key, 0) is Pair(seed, d.Block(e))
	var left uint64                            // 1 once the kernel left a draw to Attempt
	for j := range c {
		if e == x {
			d, e = d.Skip(stride), 0
			key = xrand.Rebase(seed, d.Block(0))
		}
		k, direct, ok := d.First(xrand.Pair(key, 0))
		key, e = xrand.Rebase(key, 1), e+1
		keep := stored // masks, not branches: half the attempts are direct, at random
		if direct {
			keep = 0
		}
		c[j] = uint64(k) | keep
		if !ok {
			left = 1
		}
	}
	return left != 0
}

// storedIn counts the slots of c firsts marked stored.
func storedIn(c []uint64) int {
	m := 0
	for _, v := range c {
		m += int(v >> 63) // a candidate is a node, below 2⁶³
	}
	return m
}

// redo draws again, through Attempt, every slot of c, from edge e of row
// idx on, whose first draw Lemire's method may reject.
func (r *rows) redo(c []uint64, idx, e uint64) {
	for i := range c {
		if e == r.x {
			idx, e = idx+1, 0
		}
		if t := r.node(idx); t > int64(r.x) {
			d := r.pr.NewDrawer(t)
			if _, _, ok := d.First(xrand.Pair(r.seed, d.Block(int(e)))); !ok {
				var rng xrand.Rand
				a := d.Attempt(&rng, r.seed, int(e), 0)
				if c[i] = uint64(a.K); !a.Direct {
					c[i] = stored
				}
			}
		}
		e++
	}
}

// Mark is a durable position in a shard file: everything up to Offset
// is flushed and fsynced, comprising Blocks complete blocks holding
// Edges edge records. Checkpoint snapshots carry the rank's Mark; a
// resumed run truncates the shard back to it.
type Mark struct {
	Offset int64
	Blocks int64
	Edges  int64
}

// Stats are a writer's lifetime counters (the obs sink_* metrics).
type Stats struct {
	// Edges is the total records in the file, the recovered prefix
	// included. BlocksFlushed and BytesWritten count this process's own
	// writes; Fsyncs and FsyncNanos its durability stalls.
	Edges         int64
	BlocksFlushed int64
	BytesWritten  int64
	Fsyncs        int64
	FsyncNanos    int64
}

// ShardPath returns the shard filename for rank under dir in a run with
// the given total rank count.
func ShardPath(dir string, rank, ranks int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.pags", rank, ranks))
}

// Writer appends ascending, CRC-protected edge blocks to one rank's shard
// file. It has a single owner, the rank goroutine, and takes no lock:
// every method belongs to that goroutine except Sync, the one method
// another goroutine (the background checkpoint writer) may call
// concurrently. Exactly one of Reset or Recover precedes the first Emit.
type Writer struct {
	f    *os.File
	meta Meta

	blockEdges int
	width      uint // w, the bits of a value
	part       partition.Scheme
	rows       rows   // the slots' rows, for the draws
	limit      uint64 // one past the rank's largest slot key

	// The open block: its first key and records, the last staged of them
	// still to classify, the rest classified — their stored values packed
	// into enc behind the header gap, whole words up to out and nb more
	// bits in acc, and their exceptions in exc.
	first, next uint64 // the first key; the smallest key Emit accepts, the block's next slot
	count       int
	staged      int
	stage       [decodeBatch]uint64 // the staged records' values
	firsts      [decodeBatch]uint64 // their first attempts, while they are classified
	enc         []byte              // header gap, stored values; the rest and the CRC at the close
	out         int
	acc         uint64
	nb          uint
	kept        int
	exc         []uint64 // offset, value, …
	xb          []byte   // the packed exception list and CRC, at the close

	off     int64 // current end-of-file offset
	blocks  int64 // complete blocks in the file
	edges   int64 // records in complete blocks (open block excluded)
	started bool  // Reset or Recover ran
	closed  bool

	err                error
	stats              Stats        // Fsyncs and FsyncNanos live in the atomics below
	fsyncs, fsyncNanos atomic.Int64 // written by Sync, from any goroutine
}

// Open opens (creating if absent, never truncating) the shard file for
// meta.Rank under dir and fsyncs dir, so a created shard's name is as
// durable as the blocks later fsyncs put in it. The file is not written
// until Reset or Recover decides whether its existing contents survive.
func Open(dir string, meta Meta, blockEdges int) (*Writer, error) {
	if blockEdges <= 0 {
		blockEdges = DefaultBlockEdges
	}
	if blockEdges > MaxBlockEdges {
		return nil, fmt.Errorf("esink: %d records a block, the format allows at most %d", blockEdges, MaxBlockEdges)
	}
	part, err := checkMeta(meta)
	if err != nil {
		return nil, fmt.Errorf("esink: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("esink: %w", err)
	}
	path := ShardPath(dir, meta.Rank, meta.Ranks)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("esink: %w", err)
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("esink: sync %s: %w", dir, err)
	}
	// The block and the packed exception list in one allocation.
	width := ValueBits(meta.N)
	buf := make([]byte, BufferBytes(meta.N, blockEdges)-16*MaxExceptions-16*decodeBatch)
	blockLen := maxBlockHeader + payloadLen(int64(blockEdges), width) + 8 + 4
	return &Writer{
		f:          f,
		meta:       meta,
		blockEdges: blockEdges,
		width:      width,
		part:       part,
		rows:       newRows(part, meta),
		limit:      uint64(part.Size(meta.Rank)) * uint64(meta.X),
		enc:        buf[:blockLen:blockLen],
		out:        maxBlockHeader,
		xb:         buf[blockLen:blockLen:len(buf)],
		exc:        make([]uint64, 0, 2*MaxExceptions),
	}, nil
}

// syncDir fsyncs a directory, making the names created in it durable. A
// variable so tests can record the call.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Path returns the shard file's path.
func (w *Writer) Path() string { return w.f.Name() }

// encodeHeader renders the shard header (magic through CRC) into buf.
func encodeHeader(meta Meta) []byte {
	b := make([]byte, 0, 64+len(meta.Scheme))
	b = append(b, Magic...)
	b = binary.AppendUvarint(b, Version)
	b = binary.AppendUvarint(b, uint64(meta.N))
	b = binary.AppendUvarint(b, uint64(meta.X))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(meta.P))
	b = binary.LittleEndian.AppendUint64(b, meta.Seed)
	b = binary.AppendUvarint(b, uint64(meta.Rank))
	b = binary.AppendUvarint(b, uint64(meta.Ranks))
	b = binary.AppendUvarint(b, uint64(len(meta.Scheme)))
	b = append(b, meta.Scheme...)
	crc := crc32.Checksum(b, castagnoli)
	b = binary.LittleEndian.AppendUint32(b, crc)
	return b
}

// Reset truncates the shard to empty and writes a fresh header — the
// fresh-start path (stale files from an earlier run are discarded).
func (w *Writer) Reset() error {
	if w.started {
		return w.setErr(fmt.Errorf("esink: Reset after start"))
	}
	if err := w.f.Truncate(0); err != nil {
		return w.setErr(err)
	}
	hdr := encodeHeader(w.meta)
	if _, err := w.f.WriteAt(hdr, 0); err != nil {
		return w.setErr(err)
	}
	w.off = int64(len(hdr))
	w.stats.BytesWritten += int64(len(hdr))
	w.started = true
	return nil
}

// Recover validates the existing shard against mark — same run meta,
// and a CRC-clean block chain running exactly to mark.Offset with mark's
// block and edge counts, whatever damage lies past it — then truncates
// the file to mark.Offset, discarding blocks flushed after the checkpoint
// cut and any torn tail the kill left behind, and returns an iterator
// over the prefix it verified, read through the writer's own handle. The
// caller drains it before the first Emit. The resumed run appends from
// there; Emit's ascending check starts afresh, since the prefix's last
// key is not decoded — the caller resumes above it (the engine at the
// node boundary its restore finds the prefix ending on).
func (w *Writer) Recover(mark Mark) (*Iter, error) {
	if w.started {
		return nil, w.setErr(fmt.Errorf("esink: Recover after start"))
	}
	sc, err := scanShard(w.f)
	if err != nil {
		return nil, w.setErr(fmt.Errorf("esink: recover %s: %w", w.f.Name(), err))
	}
	if sc.meta != w.meta {
		return nil, w.setErr(fmt.Errorf("esink: recover %s: shard belongs to a different run (%+v, want %+v)", w.f.Name(), sc.meta, w.meta))
	}
	// Find the durable prefix the mark names. The scan stops at the first
	// damage, which must lie at or beyond mark.Offset: everything before
	// the mark was fsynced at the cut.
	var blocks, edges int64
	off := sc.headerLen
	for _, b := range sc.blocks {
		if b.off >= mark.Offset {
			break
		}
		blocks++
		edges += b.count
		off = b.off + b.size
	}
	if off != mark.Offset || blocks != mark.Blocks || edges != mark.Edges {
		return nil, w.setErr(fmt.Errorf("esink: recover %s: durable prefix is %d bytes / %d blocks / %d edges, checkpoint expects %d / %d / %d (shard damaged or from a different epoch sequence)",
			w.f.Name(), off, blocks, edges, mark.Offset, mark.Blocks, mark.Edges))
	}
	if err := w.f.Truncate(mark.Offset); err != nil {
		return nil, w.setErr(err)
	}
	w.off = mark.Offset
	w.blocks = mark.Blocks
	w.edges = mark.Edges
	w.started = true
	sc.blocks, sc.edges, sc.damage = sc.blocks[:blocks], edges, nil
	return (&Reader{f: w.f, sc: sc, part: w.part}).Iter(0), nil
}

// Emit adds one edge record to the open block, closing it once it holds
// blockEdges records; the record's slot key is the block's first key
// plus its index, so a key that is not the open block's next slot ends
// the block first. Keys must ascend strictly across the writer's whole
// life — a key at or below the previous one is refused and latched — so
// no record is ever buffered for sorting. A key past the rank's slots
// and a value outside [0, n) are refused and latched too. Emit only
// stages the value: a batch of records is classified at once (classify),
// where its draws pipeline. Rank goroutine only.
func (w *Writer) Emit(key uint64, v int64) error {
	if w.err != nil {
		return w.err
	}
	if !w.started {
		return w.setErr(fmt.Errorf("esink: Emit before Reset/Recover"))
	}
	if key < w.next {
		return w.setErr(fmt.Errorf("esink: key %d does not follow key %d: keys must ascend", key, w.next-1))
	}
	if key >= w.limit {
		return w.setErr(fmt.Errorf("esink: slot key %d outside the rank's %d slots", key, w.limit))
	}
	if uint64(v) >= uint64(w.meta.N) {
		return w.setErr(fmt.Errorf("esink: slot %d: value %d outside the run's %d nodes", key, v, w.meta.N))
	}
	if key != w.next && w.count > 0 {
		if err := w.flush(); err != nil {
			return err
		}
	}
	if w.count == 0 {
		w.first = key
	}
	w.stage[w.staged] = uint64(v)
	w.staged++
	w.next = key + 1
	w.count++
	if w.staged == len(w.stage) || w.count >= w.blockEdges {
		if err := w.classify(); err != nil {
			return err
		}
		if w.count >= w.blockEdges {
			return w.close()
		}
	}
	return nil
}

// classify draws the staged records' first attempts (rows.firsts) and
// walks them: a record whose attempt is direct to its value is dropped,
// one whose attempt is direct elsewhere becomes an exception, and every
// other value is stored. The stored values are gathered by a mask, not
// a branch — half the attempts are direct, at random — into the front
// of the attempts' array, then packed w bits each into the open block.
// The record that brings the block's exceptions to MaxExceptions closes
// it; the records after it open the next.
func (w *Writer) classify() error {
	n := w.staged
	if n == 0 {
		return nil
	}
	w.staged = 0
	key := w.next - uint64(n) // the first staged record's
	c := w.firsts[:n]
	w.rows.firsts(c, key/w.rows.x, key%w.rows.x)
	m := 0 // c[:m] are the stored values gathered so far; c[j] is read before c[m ≤ j] is written
	for j, v := range w.stage[:n] {
		cv := c[j]
		// keep is all ones when the value is stored: a candidate is a
		// node, below 2⁶³, and stored is all ones.
		keep := uint64(int64(cv) >> 63)
		if (cv^v)&^keep != 0 { // direct, but not to v
			w.exc = append(w.exc, key+uint64(j)-w.first, v)
			if len(w.exc) == 2*MaxExceptions {
				w.pack(c[:m])
				rest := n - j - 1
				w.count -= rest
				if err := w.close(); err != nil {
					return err
				}
				w.first, w.count, m = key+uint64(j)+1, rest, 0
				continue
			}
		}
		c[m] = v
		m += int(keep & 1)
	}
	w.pack(c[:m])
	return nil
}

// pack appends vals, w bits each, to the open block's stored values.
func (w *Writer) pack(vals []uint64) {
	b, width, out, acc, nb := w.enc, w.width, w.out, w.acc, w.nb
	for _, v := range vals {
		// v < n <= 2^w, so v >> w is 0 when a word ends exactly at v's end.
		acc |= v << nb
		if nb += width; nb >= 64 {
			binary.LittleEndian.PutUint64(b[out:], acc)
			out += 8
			nb -= 64
			acc = v >> (width - nb)
		}
	}
	w.out, w.acc, w.nb, w.kept = out, acc, nb, w.kept+len(vals)
}

// flush classifies what is staged and closes the open block.
func (w *Writer) flush() error {
	if err := w.classify(); err != nil {
		return err
	}
	return w.close()
}

// close writes the open block's w.count records, all of them classified,
// as one block: the stored values' last bits go behind their words, the
// header right-aligned into the gap in front of them and the CRC behind,
// so a block without exceptions leaves in one write from the reused
// buffer; one with them leaves in two, its packed exception list and CRC
// from w.xb.
func (w *Writer) close() error {
	if w.count == 0 {
		return nil
	}
	b, out := w.enc, w.out
	for acc, nb := w.acc, w.nb; nb > 0; acc, nb = acc>>8, nb-min(nb, 8) {
		b[out] = byte(acc)
		out++
	}
	exceptions := len(w.exc) / 2
	var hdr [maxBlockHeader]byte
	h := append(hdr[:0], blockMarker)
	h = binary.AppendUvarint(h, uint64(w.blocks))
	h = binary.AppendUvarint(h, w.first)
	h = binary.AppendUvarint(h, uint64(w.count))
	h = binary.AppendUvarint(h, uint64(w.kept))
	h = binary.AppendUvarint(h, uint64(exceptions))
	at := maxBlockHeader - len(h)
	copy(b[at:], h)
	crc := crc32.Checksum(b[at:out], castagnoli)
	blk, tail := b[at:out], []byte(nil)
	if exceptions == 0 {
		blk = binary.LittleEndian.AppendUint32(blk, crc)
	} else {
		bw := bitWriter{b: w.xb[:0]}
		ob := ValueBits(int64(w.count))
		for j := 0; j < len(w.exc); j += 2 {
			bw.put(w.exc[j], ob)
			bw.put(w.exc[j+1], w.width)
		}
		tail = bw.flush()
		tail = binary.LittleEndian.AppendUint32(tail, crc32.Update(crc, castagnoli, tail))
	}
	for _, part := range [][]byte{blk, tail} {
		if len(part) == 0 {
			continue
		}
		if _, err := w.f.WriteAt(part, w.off); err != nil {
			return w.setErr(err)
		}
		w.off += int64(len(part))
		w.stats.BytesWritten += int64(len(part))
	}
	w.blocks++
	w.edges += int64(w.count)
	w.stats.BlocksFlushed++
	w.count, w.out, w.acc, w.nb, w.kept, w.exc = 0, maxBlockHeader, 0, 0, 0, w.exc[:0]
	return nil
}

// bitWriter appends little-endian bit strings to b.
type bitWriter struct {
	b   []byte
	acc uint64
	nb  uint
}

// put appends the low width bits of v, width at most 64.
func (bw *bitWriter) put(v uint64, width uint) {
	for width > 0 {
		take := min(width, 64-bw.nb)
		bw.acc |= (v & (1<<take - 1)) << bw.nb
		bw.nb += take
		v, width = v>>(take%64), width-take
		for bw.nb >= 8 {
			bw.b = append(bw.b, byte(bw.acc))
			bw.acc, bw.nb = bw.acc>>8, bw.nb-8
		}
	}
}

// flush appends the last bits, zero-padded to a byte, and returns b.
func (bw *bitWriter) flush() []byte {
	if bw.nb > 0 {
		bw.b = append(bw.b, byte(bw.acc))
	}
	return bw.b
}

// Mark flushes the open block (a page-cache write) and returns the
// shard mark at the complete-block boundary; Sync makes it durable. The
// engine takes it at a checkpoint cut and defers the fsync to its
// background writer, which must complete it before a snapshot naming
// the mark is published. Rank goroutine only.
func (w *Writer) Mark() (Mark, error) {
	if w.err != nil {
		return Mark{}, w.err
	}
	if err := w.flush(); err != nil {
		return Mark{}, err
	}
	return Mark{Offset: w.off, Blocks: w.blocks, Edges: w.edges}, nil
}

// Sync fsyncs the shard. It alone may be called from a goroutine other
// than the owner's, concurrently with the rest: it touches only the
// file handle and the atomic fsync counters, so a slow fsync never
// stalls the rank's next flush, and it neither reads nor latches the
// writer's error — the caller owns a failure. Syncing bytes emitted
// after a Mark is harmless: a mark promises only that its prefix is
// durable.
func (w *Writer) Sync() error {
	t0 := time.Now()
	err := w.f.Sync()
	w.fsyncs.Add(1)
	w.fsyncNanos.Add(time.Since(t0).Nanoseconds())
	return err
}

// Close flushes the open block, writes the end-of-stream record, fsyncs
// and closes the file. Only a Closed shard is complete: OpenReader
// requires the EOS record. Rank goroutine only, after the
// last Sync elsewhere has returned.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		w.f.Close()
		return w.err
	}
	if err := w.flush(); err != nil {
		w.f.Close()
		return err
	}
	eos := make([]byte, 0, 32)
	eos = append(eos, eosMarker)
	eos = binary.AppendUvarint(eos, uint64(w.edges))
	eos = binary.AppendUvarint(eos, uint64(w.blocks))
	crc := crc32.Checksum(eos, castagnoli)
	eos = binary.LittleEndian.AppendUint32(eos, crc)
	if _, err := w.f.WriteAt(eos, w.off); err != nil {
		w.f.Close()
		return w.setErr(err)
	}
	w.off += int64(len(eos))
	w.stats.BytesWritten += int64(len(eos))
	if err := w.Sync(); err != nil {
		w.f.Close()
		return w.setErr(err)
	}
	if err := w.f.Close(); err != nil {
		return w.setErr(err)
	}
	return nil
}

// Abort closes the file handle without writing the end-of-stream
// record, leaving whatever durable prefix exists for a later Recover.
// Used on engine failure paths. Rank goroutine only, after the last
// concurrent Sync has returned.
func (w *Writer) Abort() {
	if w.closed {
		return
	}
	w.closed = true
	w.f.Close()
}

// Stats returns the writer's lifetime counters. Edges reflects complete
// blocks only until Close flushes the open block. Rank goroutine only.
func (w *Writer) Stats() Stats {
	st := w.stats
	st.Edges = w.edges
	st.Fsyncs = w.fsyncs.Load()
	st.FsyncNanos = w.fsyncNanos.Load()
	return st
}

func (w *Writer) setErr(err error) error {
	if w.err == nil {
		w.err = err
	}
	return err
}
