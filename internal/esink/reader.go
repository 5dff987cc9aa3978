package esink

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"pagen/internal/graph"
	"pagen/internal/partition"
)

// An iterator reads the payloads through one window of readWindow
// bytes; a smaller budget shrinks it, down to minWindow.
const (
	minWindow  = 4 << 10
	readWindow = 64 << 10
)

// scanBuf is the one read buffer scanShard walks a shard through; block
// payloads are CRC-checked a buffer at a time, so opening a shard
// allocates the same whatever its block sizes.
const scanBuf = 64 << 10

// maxRanks bounds the rank count a header may claim: partition schemes
// build O(ranks) tables, and no run comes near it.
const maxRanks = 1 << 20

// blockInfo locates one complete block inside a shard file.
type blockInfo struct {
	off    int64 // block start (the marker byte)
	size   int64 // whole block including marker, header and CRC
	payOff int64 // payload start
	payLen int64
	count  int64 // records in the block
}

// scanResult is a shard file's parsed structure.
type scanResult struct {
	meta      Meta
	headerLen int64
	blocks    []blockInfo
	edges     int64
	complete  bool // EOS record present and consistent
}

// countReader tracks the byte offset of a buffered sequential read.
type countReader struct {
	r   *bufio.Reader
	off int64
}

func (c *countReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.off++
	}
	return b, err
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.off += int64(n)
	return n, err
}

func (c *countReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(c)
}

// crc folds the next n bytes into crc a buffer at a time, reading them
// in place rather than copying them out.
func (c *countReader) crc(crc uint32, n int64) (uint32, error) {
	for n > 0 {
		b, err := c.r.Peek(int(min(n, int64(c.r.Size()))))
		crc = crc32.Update(crc, castagnoli, b)
		_, _ = c.r.Discard(len(b)) // b is buffered: discarding it cannot fail
		c.off += int64(len(b))
		n -= int64(len(b))
		if err != nil {
			return crc, err
		}
	}
	return crc, nil
}

// scanShard parses a shard's header and walks its block chain front to
// back, verifying every block CRC. With tolerate set, a torn tail — a
// truncated or CRC-failing final region, the signature of a kill
// mid-flush — ends the scan at the last complete block instead of
// failing; a missing EOS record likewise just leaves complete false.
// Without tolerate, any damage (EOS included) is an error.
func scanShard(f *os.File, tolerate bool) (*scanResult, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	cr := &countReader{r: bufio.NewReaderSize(f, int(min(fi.Size(), scanBuf)))}

	// Header: magic, version, meta, CRC. Re-encoding the parsed meta
	// and comparing CRCs verifies the header without a second pass.
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("shard header: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	ver, err := cr.uvarint()
	if err != nil {
		return nil, fmt.Errorf("shard header: %w", err)
	}
	if ver != Version {
		return nil, fmt.Errorf("unsupported shard version %d (reader supports %d, whose blocks ascend)", ver, Version)
	}
	var meta Meta
	u := func() uint64 {
		if err != nil {
			return 0
		}
		var v uint64
		v, err = cr.uvarint()
		return v
	}
	u64 := func() uint64 {
		if err != nil {
			return 0
		}
		var b [8]byte
		if _, err = io.ReadFull(cr, b[:]); err != nil {
			return 0
		}
		return binary.LittleEndian.Uint64(b[:])
	}
	meta.N = int64(u())
	meta.X = int(u())
	meta.P = math.Float64frombits(u64())
	meta.Seed = u64()
	meta.Rank = int(u())
	meta.Ranks = int(u())
	schemeLen := u()
	if err != nil {
		return nil, fmt.Errorf("shard header: %w", err)
	}
	if schemeLen > 64 {
		return nil, fmt.Errorf("shard header: scheme name length %d", schemeLen)
	}
	scheme := make([]byte, schemeLen)
	if _, err := io.ReadFull(cr, scheme); err != nil {
		return nil, fmt.Errorf("shard header: %w", err)
	}
	meta.Scheme = string(scheme)
	var crcBuf [4]byte
	if _, err := io.ReadFull(cr, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("shard header: %w", err)
	}
	hdr := encodeHeader(meta)
	if int64(len(hdr)) != cr.off || string(hdr[len(hdr)-4:]) != string(crcBuf[:]) {
		return nil, fmt.Errorf("shard header CRC mismatch (torn or corrupted header)")
	}

	sc := &scanResult{meta: meta, headerLen: cr.off}
	for {
		blockOff := cr.off
		marker, err := cr.ReadByte()
		if err == io.EOF {
			// No EOS record: the writer never Closed (crash). The
			// complete-block prefix is still usable in tolerate mode.
			if tolerate {
				return sc, nil
			}
			return nil, fmt.Errorf("shard ends without end-of-stream record (torn tail at offset %d)", blockOff)
		}
		if err != nil {
			return nil, err
		}
		switch marker {
		case blockMarker:
			hb := make([]byte, 0, 32)
			hb = append(hb, marker)
			var seq, count, payLen uint64
			ok := true
			for _, dst := range []*uint64{&seq, &count, &payLen} {
				v, err := cr.uvarint()
				if err != nil {
					ok = false
					break
				}
				// Re-append the varint so the CRC covers the exact bytes.
				hb = binary.AppendUvarint(hb, v)
				*dst = v
			}
			// Structural sanity before trusting payLen: a torn tail can
			// parse as a block header with garbage fields, so in tolerate
			// mode these end the scan like any other tail damage.
			if ok && int64(seq) != int64(len(sc.blocks)) {
				if tolerate {
					return sc, nil
				}
				return nil, fmt.Errorf("block at offset %d has sequence %d, want %d", blockOff, seq, len(sc.blocks))
			}
			if ok && (count > payLen/2 || payLen > uint64(fi.Size()-cr.off)) {
				// Every record costs at least 2 payload bytes, and the
				// payload cannot outrun the file — don't allocate for a
				// length a torn tail invented.
				if tolerate {
					return sc, nil
				}
				return nil, fmt.Errorf("block at offset %d claims %d records in %d payload bytes", blockOff, count, payLen)
			}
			if ok {
				payOff := cr.off
				if crc, err := cr.crc(crc32.Checksum(hb, castagnoli), int64(payLen)); err != nil {
					ok = false
				} else if _, err := io.ReadFull(cr, crcBuf[:]); err != nil {
					ok = false
				} else if binary.LittleEndian.Uint32(crcBuf[:]) != crc {
					ok = false
				}
				if ok {
					sc.blocks = append(sc.blocks, blockInfo{
						off:    blockOff,
						size:   cr.off - blockOff,
						payOff: payOff,
						payLen: int64(payLen),
						count:  int64(count),
					})
					sc.edges += int64(count)
					continue
				}
			}
			if tolerate {
				return sc, nil
			}
			return nil, fmt.Errorf("torn or corrupted block at offset %d", blockOff)
		case eosMarker:
			eb := make([]byte, 0, 32)
			eb = append(eb, marker)
			var edges, blocks uint64
			ok := true
			for _, dst := range []*uint64{&edges, &blocks} {
				v, err := cr.uvarint()
				if err != nil {
					ok = false
					break
				}
				eb = binary.AppendUvarint(eb, v)
				*dst = v
			}
			if ok {
				if _, err := io.ReadFull(cr, crcBuf[:]); err != nil {
					ok = false
				} else if binary.LittleEndian.Uint32(crcBuf[:]) != crc32.Checksum(eb, castagnoli) {
					ok = false
				}
			}
			if !ok {
				if tolerate {
					return sc, nil
				}
				return nil, fmt.Errorf("torn end-of-stream record at offset %d", blockOff)
			}
			if int64(edges) != sc.edges || int64(blocks) != int64(len(sc.blocks)) {
				if tolerate {
					return sc, nil
				}
				return nil, fmt.Errorf("end-of-stream record says %d edges / %d blocks, chain holds %d / %d", edges, blocks, sc.edges, len(sc.blocks))
			}
			if _, err := cr.ReadByte(); err != io.EOF {
				// A valid EOS with bytes after it: a finished shard a later
				// crash appended a torn tail to. The chain itself is clean.
				if tolerate {
					sc.complete = true
					return sc, nil
				}
				return nil, fmt.Errorf("trailing bytes after end-of-stream record")
			}
			sc.complete = true
			return sc, nil
		default:
			if tolerate {
				return sc, nil
			}
			return nil, fmt.Errorf("unknown marker %q at offset %d", marker, blockOff)
		}
	}
}

// Reader reads one shard file back in canonical (slot-key-ascending)
// order: the blocks ascend and partition the key space, so they are read
// in file order through one bounded window, and iteration memory is
// independent of the shard size.
type Reader struct {
	f    *os.File
	sc   *scanResult
	part partition.Scheme
}

// OpenReader opens a shard strictly: the file must be complete (EOS
// record present) and every block CRC-clean.
func OpenReader(path string) (*Reader, error) {
	return openReader(path, false)
}

// OpenReaderTolerant opens a shard accepting a torn tail: iteration
// covers the longest clean complete-block prefix. For a resumed rank's
// restore and post-mortem inspection of a crashed run's shards.
func OpenReaderTolerant(path string) (*Reader, error) {
	return openReader(path, true)
}

func openReader(path string, tolerate bool) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sc, err := scanShard(f, tolerate)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("esink: %s: %w", path, err)
	}
	// The CRC vouches for the bytes, not their meaning: the partition's
	// tables, the key range and Next's division need a possible run, and
	// OpenDir's identity check needs a p that equals itself.
	if m := sc.meta; m.N < 1 || m.X < 1 || m.N > math.MaxInt64/int64(m.X) || m.Ranks < 1 || m.Ranks > maxRanks || m.Rank < 0 || m.Rank >= m.Ranks || math.IsNaN(m.P) {
		f.Close()
		return nil, fmt.Errorf("esink: %s: header describes no possible run (%+v)", path, m)
	}
	kind, err := partition.ParseKind(sc.meta.Scheme)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("esink: %s: %w", path, err)
	}
	part, err := partition.New(kind, sc.meta.N, sc.meta.Ranks)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("esink: %s: %w", path, err)
	}
	return &Reader{f: f, sc: sc, part: part}, nil
}

// Meta returns the shard's run identity.
func (r *Reader) Meta() Meta { return r.sc.meta }

// Edges returns the number of edge records the reader will yield.
func (r *Reader) Edges() int64 { return r.sc.edges }

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

const maxRecordLen = 2 * binary.MaxVarintLen64

// Iter is a canonical-order edge iterator over one shard. It decodes
// the blocks in file order straight from one window of the payload,
// which refill tops up from the file when fewer bytes remain than one
// record (maxRecordLen, two uvarints) can need, and checks that every
// key lies above the one before it, across block boundaries too.
type Iter struct {
	r         *Reader
	block     int    // next block to open
	off, end  int64  // the current block's payload bytes not yet read
	buf       []byte // the window; buf[rd:n] is undecoded
	rd, n     int
	remaining int64  // records left in the current block
	prev      uint64 // the current block's last key, 0 before its first
	next      uint64 // smallest key the next record may hold
	x         uint64
	// limit is one past the rank's largest slot key. [node, node+x) are
	// the keys of u, the last edge's source, so a node's x edges cost
	// one division and one partition lookup; node starts at limit.
	limit, node uint64
	u           int64
	err         error
}

// Iter returns a canonical-order iterator reading through one window
// of budget bytes, clamped to [minWindow, readWindow] (readWindow if
// budget <= 0). Multiple iterators over one Reader are independent.
func (r *Reader) Iter(budget int) *Iter {
	if budget <= 0 {
		budget = readWindow
	}
	it := &Iter{r: r, x: uint64(r.sc.meta.X), buf: make([]byte, min(max(budget, minWindow), readWindow))}
	it.limit = uint64(r.part.Size(r.sc.meta.Rank)) * it.x
	it.node = it.limit
	return it
}

func (it *Iter) refill() error {
	it.n = copy(it.buf, it.buf[it.rd:it.n])
	it.rd = 0
	want := it.buf[it.n:min(int64(len(it.buf)), int64(it.n)+it.end-it.off)]
	got, err := it.r.f.ReadAt(want, it.off)
	it.off += int64(got)
	it.n += got
	if got == len(want) {
		return nil
	}
	return err
}

// NextSlot yields the next record in canonical order as it is stored:
// the slot key (local node index times x plus edge index, checked to lie
// inside the rank's table) and the attachment value. A resumed run
// rebuilds its attachment table from these.
func (it *Iter) NextSlot() (key uint64, v int64, ok bool) {
	for it.remaining == 0 {
		if it.err != nil || it.block == len(it.r.sc.blocks) {
			return 0, 0, false
		}
		b := it.r.sc.blocks[it.block]
		it.block++
		it.off, it.end, it.remaining = b.payOff, b.payOff+b.payLen, b.count
		it.rd, it.n, it.prev = 0, 0, 0
	}
	if it.err != nil {
		return 0, 0, false
	}
	it.remaining--
	if it.n-it.rd < maxRecordLen && it.off < it.end {
		if err := it.refill(); err != nil {
			it.err = fmt.Errorf("esink: corrupt block payload: %w", err)
			return 0, 0, false
		}
	}
	d, dn := binary.Uvarint(it.buf[it.rd:it.n])
	u, vn := binary.Uvarint(it.buf[it.rd+max(dn, 0) : it.n])
	if dn <= 0 || vn <= 0 { // 0: the payload ends inside the value; < 0: it overflows 64 bits
		it.err = fmt.Errorf("esink: corrupt block payload: truncated or overlong varint")
		return 0, 0, false
	}
	it.rd += dn + vn
	key = it.prev + d
	switch {
	case key < it.next: // a zero delta, a wrapped one, or a block starting at or below its predecessor's last key
		it.err = fmt.Errorf("esink: corrupt block payload: block %d: key %d does not follow key %d", it.block-1, key, it.next-1)
	case key >= it.limit:
		it.err = fmt.Errorf("esink: corrupt block payload: slot key %d outside the rank's %d slots", key, it.limit)
	}
	if it.err != nil {
		return 0, 0, false
	}
	it.prev, it.next = key, key+1
	return key, int64(u), true
}

// Next yields the next edge in canonical order. The edge's source node
// U is derived from the slot key via the partition.
func (it *Iter) Next() (graph.Edge, bool) {
	key, v, ok := it.NextSlot()
	if !ok {
		return graph.Edge{}, false
	}
	if key-it.node >= it.x {
		it.node = key - key%it.x
		it.u = it.r.part.NodeAt(it.r.sc.meta.Rank, int64(key/it.x))
	}
	return graph.Edge{U: it.u, V: v}, true
}

// Err returns the first error iteration hit, if any.
func (it *Iter) Err() error { return it.err }

// DirReader opens every rank shard of a streamed run and iterates the
// merged graph in canonical rank-major order — the byte-identical
// counterpart of an in-memory run's edge list, in which each rank writes
// its own range.
type DirReader struct {
	readers []*Reader
}

// OpenDir strictly opens the ranks shards of a streamed run under dir
// and cross-validates their run identity (same n, x, p, seed, scheme
// and rank count; each file claiming its own rank).
func OpenDir(dir string, ranks int) (*DirReader, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("esink: ranks = %d, want >= 1", ranks)
	}
	d := &DirReader{}
	for r := 0; r < ranks; r++ {
		rd, err := OpenReader(ShardPath(dir, r, ranks))
		if err != nil {
			d.Close()
			return nil, err
		}
		m := rd.Meta()
		if m.Rank != r || m.Ranks != ranks {
			d.Close()
			return nil, fmt.Errorf("esink: %s claims rank %d of %d, want %d of %d", rd.f.Name(), m.Rank, m.Ranks, r, ranks)
		}
		if r > 0 {
			m0 := d.readers[0].Meta()
			if m.N != m0.N || m.X != m0.X || m.P != m0.P || m.Seed != m0.Seed || m.Scheme != m0.Scheme {
				d.Close()
				return nil, fmt.Errorf("esink: %s belongs to a different run than rank 0's shard", rd.f.Name())
			}
		}
		d.readers = append(d.readers, rd)
	}
	return d, nil
}

// Meta returns the run identity (from rank 0's shard).
func (d *DirReader) Meta() Meta { return d.readers[0].Meta() }

// Edges returns the total edge count across all shards.
func (d *DirReader) Edges() int64 {
	var n int64
	for _, r := range d.readers {
		n += r.Edges()
	}
	return n
}

// Close releases all shard files.
func (d *DirReader) Close() error {
	var first error
	for _, r := range d.readers {
		if r == nil {
			continue
		}
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DirIter iterates the merged canonical stream: rank 0's shard in
// slot-key order, then rank 1's, and so on.
type DirIter struct {
	d      *DirReader
	budget int
	i      int
	cur    *Iter
}

// Iter returns a merged canonical-order iterator; budget bounds each
// shard iterator's buffer memory (shards are read one at a time).
func (d *DirReader) Iter(budget int) *DirIter {
	return &DirIter{d: d, budget: budget}
}

// Next yields the next edge of the merged stream.
func (di *DirIter) Next() (graph.Edge, bool) {
	for {
		if di.cur == nil {
			if di.i >= len(di.d.readers) {
				return graph.Edge{}, false
			}
			di.cur = di.d.readers[di.i].Iter(di.budget)
			di.i++
		}
		if e, ok := di.cur.Next(); ok {
			return e, true
		}
		if err := di.cur.Err(); err != nil {
			return graph.Edge{}, false
		}
		di.cur = nil
	}
}

// Err returns the first error iteration hit, if any.
func (di *DirIter) Err() error {
	if di.cur != nil {
		return di.cur.Err()
	}
	return nil
}

// ReadGraph materialises the merged graph of the ranks shards under dir
// in canonical order: the same edge list, byte for byte, as the
// in-memory run's.
func ReadGraph(dir string, ranks int) (*graph.Graph, error) {
	d, err := OpenDir(dir, ranks)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	g := graph.New(d.Meta().N)
	g.Edges = make([]graph.Edge, 0, d.Edges())
	it := d.Iter(0)
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		g.Edges = append(g.Edges, e)
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return g, nil
}
