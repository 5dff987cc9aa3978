// Package esink implements the streaming external-memory edge sink:
// per-rank shard files that hold a rank's resolved edges as
// CRC-protected blocks of fixed-width values, written with bounded
// memory no matter how large the run is (docs/SHARD_FORMAT.md is the
// byte spec).
//
// Every edge is tagged with its canonical slot key (local node index
// times x plus edge index), which is unique per rank and defines the
// canonical per-rank order — the exact order the in-memory engine
// collects edges in. The engine hands the writer the slots below its
// resolved frontier in key order, so keys reach Emit strictly
// ascending and almost always consecutive: a block stores its first key
// and its record count, and each value in w = ValueBits(n) bits, packed
// through a 64-bit accumulator; a gap in the keys ends the block. The
// blocks of a shard ascend and partition the key space, so the reader
// walks them in file order through one bounded window, and since a
// block decodes on its own — its keys and its values' positions follow
// from its header — a download decodes runs of blocks on two lanes at
// once. Merging the per-rank streams rank-major reproduces the in-memory
// merged graph byte for byte.
//
// The writer integrates with checkpoint/restart: Mark flushes the open
// block and returns a Mark (byte offset, block count, edge count) that
// Sync makes durable and internal/ckpt stores in the snapshot; Recover
// truncates a shard back to a Mark so a resumed run regenerates exactly
// the missing suffix, with no duplicated or dropped edges.
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
)

const (
	// Magic opens every shard file.
	Magic = "PAGSHRD1"
	// Version is the shard format version; readers reject others.
	// Version 3 blocks hold a first key and fixed-width values; version 2
	// (a key delta and a value varint a record) and version 1 (blocks
	// that need not ascend) are refused.
	Version = 3
	// DefaultBlockEdges is the default number of edge records per block.
	// The writer holds only the open block's packed values — w bits a
	// record, its whole memory footprint (BufferBytes).
	DefaultBlockEdges = 1 << 16

	blockMarker = 'B'
	eosMarker   = 'E'

	// maxBlockHeader bounds a block's marker and three uvarint fields:
	// Emit packs the payload behind a gap this wide, and flush encodes
	// the header right-aligned into the gap.
	maxBlockHeader = 1 + 3*binary.MaxVarintLen64
)

// ValueBits is w, the bits a shard of an n-node run stores each value
// in: bits.Len64(n−1), and 1 for n = 1 so that every record costs a bit.
func ValueBits(n int64) uint { return uint(max(1, bits.Len64(uint64(n-1)))) }

// payloadLen is the payload bytes of a block of count values of w bits,
// ⌈count·w/8⌉.
func payloadLen(count int64, w uint) int64 { return (count*int64(w) + 7) / 8 }

// BufferBytes is the one buffer a writer of an n-node run holds, sized
// in Open for blocks of blockEdges records (DefaultBlockEdges if
// blockEdges <= 0): the header gap, a full block's payload and the CRC.
func BufferBytes(n int64, blockEdges int) int64 {
	if blockEdges <= 0 {
		blockEdges = DefaultBlockEdges
	}
	return maxBlockHeader + payloadLen(int64(blockEdges), ValueBits(n)) + 4
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
	// Scheme is the partition scheme name; the reader rebuilds the
	// partition from it to re-derive each record's source node U from
	// the slot key (records store only key and V).
	Scheme string
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
	width      uint   // w, the bits of a value
	enc        []byte // the open block, reused: header gap, payload words, then the rest and the CRC at flush
	acc        uint64 // the payload bits not yet in enc, nb of them
	nb         uint
	count      int    // records in the open block
	first      uint64 // the open block's first key
	next       uint64 // smallest key Emit accepts: the open block's next slot

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
	return &Writer{
		f:          f,
		meta:       meta,
		blockEdges: blockEdges,
		width:      ValueBits(meta.N),
		enc:        make([]byte, maxBlockHeader, BufferBytes(meta.N, blockEdges)),
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
// and an intact, CRC-clean block chain landing exactly on mark.Offset
// with mark's block and edge counts — then truncates the file to
// mark.Offset, discarding blocks flushed after the checkpoint cut and
// any torn tail the kill left behind. The resumed run appends from
// there; Emit's ascending check starts afresh, since the prefix's last
// key is not decoded — the caller resumes above it (the engine at the
// node boundary its restore finds the prefix ending on).
func (w *Writer) Recover(mark Mark) error {
	if w.started {
		return w.setErr(fmt.Errorf("esink: Recover after start"))
	}
	sc, err := scanShard(w.f, true)
	if err != nil {
		return w.setErr(fmt.Errorf("esink: recover %s: %w", w.f.Name(), err))
	}
	if sc.meta != w.meta {
		return w.setErr(fmt.Errorf("esink: recover %s: shard belongs to a different run (%+v, want %+v)", w.f.Name(), sc.meta, w.meta))
	}
	// Find the durable prefix the mark names. The chain scan stops at
	// the first torn block, which must lie at or beyond mark.Offset:
	// everything before the mark was fsynced at the cut.
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
		return w.setErr(fmt.Errorf("esink: recover %s: durable prefix is %d bytes / %d blocks / %d edges, checkpoint expects %d / %d / %d (shard damaged or from a different epoch sequence)",
			w.f.Name(), off, blocks, edges, mark.Offset, mark.Blocks, mark.Edges))
	}
	if err := w.f.Truncate(mark.Offset); err != nil {
		return w.setErr(err)
	}
	w.off = mark.Offset
	w.blocks = mark.Blocks
	w.edges = mark.Edges
	w.started = true
	return nil
}

// Emit packs one edge record's attachment value, w bits, into the open
// block, flushing it once it holds blockEdges records; the record's slot
// key is the block's first key plus its index, so a key that is not the
// open block's next slot ends the block first. Keys must ascend strictly
// across the writer's whole life — a key at or below the previous one
// is refused and latched — so no record is ever buffered for sorting.
// A value outside [0, n) is refused and latched too. Rank goroutine
// only.
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
	// v < n <= 2^w, so v >> w is 0 when a word ends exactly at v's end.
	w.acc |= uint64(v) << w.nb
	if w.nb += w.width; w.nb >= 64 {
		w.enc = binary.LittleEndian.AppendUint64(w.enc, w.acc)
		w.nb -= 64
		w.acc = uint64(v) >> (w.width - w.nb)
	}
	w.next = key + 1
	if w.count++; w.count >= w.blockEdges {
		return w.flush()
	}
	return nil
}

// flush writes the open block: the accumulator's last bytes go behind
// the payload words, its header right-aligned into the gap in front of
// them, the CRC behind, and all of it leaves in one write from the
// reused buffer.
func (w *Writer) flush() error {
	if w.count == 0 {
		return nil
	}
	b := w.enc
	for acc, nb := w.acc, int(w.nb); nb > 0; acc, nb = acc>>8, nb-8 {
		b = append(b, byte(acc))
	}
	var hdr [maxBlockHeader]byte
	h := append(hdr[:0], blockMarker)
	h = binary.AppendUvarint(h, uint64(w.blocks))
	h = binary.AppendUvarint(h, w.first)
	h = binary.AppendUvarint(h, uint64(w.count))
	start := maxBlockHeader - len(h)
	copy(b[start:], h)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start:], castagnoli))
	blk := b[start:]

	if _, err := w.f.WriteAt(blk, w.off); err != nil {
		return w.setErr(err)
	}
	w.off += int64(len(blk))
	w.blocks++
	w.edges += int64(w.count)
	w.stats.BlocksFlushed++
	w.stats.BytesWritten += int64(len(blk))
	w.enc, w.acc, w.nb, w.count = b[:maxBlockHeader], 0, 0, 0
	return nil
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
// and closes the file. Only a Closed shard is complete: readers in
// strict mode require the EOS record. Rank goroutine only, after the
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
