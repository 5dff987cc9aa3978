package esink

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
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
	off        int64 // block start (the marker byte)
	size       int64 // whole block including marker, header and CRC
	payOff     int64 // payload start: the explicit values, then the exception list
	payLen     int64
	first      uint64 // the first record's slot key
	count      int64  // records in the block, 1 to MaxBlockEdges
	explicit   int64  // values the block stores, each in w bits
	exceptions int64  // (offset, value) pairs behind them, at most MaxExceptions
}

// valuesLen is the bytes of the block's explicit values.
func (b *blockInfo) valuesLen(w uint) int64 { return payloadLen(b.explicit, w) }

// scanResult is a shard file's parsed structure: the clean prefix of
// its block chain, and the first damage the walk met past it.
type scanResult struct {
	meta      Meta
	headerLen int64
	blocks    []blockInfo
	edges     int64
	// damage is nil for a complete shard: every block CRC-clean, then a
	// consistent end-of-stream record that ends the file.
	damage error
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
// back once, verifying every block CRC. It fails only when the header
// cannot be read; past it, the walk stops at the first damage — a torn,
// CRC-failing or implausible block, an unknown marker, a missing or
// inconsistent end-of-stream record, bytes after it — and records it as
// the result's damage, so the blocks before it are the clean prefix. A
// strict open refuses any damage; Recover accepts damage past its mark,
// the torn tail a kill mid-flush leaves.
func scanShard(f *os.File) (*scanResult, error) {
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
		return nil, fmt.Errorf("unsupported shard version %d (reader supports %d, whose blocks store only the values the seed cannot recompute; docs/SHARD_FORMAT.md)", ver, Version)
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
	stop := func(format string, args ...any) (*scanResult, error) {
		sc.damage = fmt.Errorf(format, args...)
		return sc, nil
	}
	// fields reads a record's uvarints into dst and returns the bytes the
	// record's CRC covers: marker m and the fields re-encoded, which are
	// exactly the bytes read.
	fields := func(m byte, dst ...*uint64) ([]byte, bool) {
		b := append(make([]byte, 0, 32), m)
		for _, p := range dst {
			v, err := cr.uvarint()
			if err != nil {
				return nil, false
			}
			b, *p = binary.AppendUvarint(b, v), v
		}
		return b, true
	}
	// sealed reads a record's CRC and reports whether it is crc.
	sealed := func(crc uint32) bool {
		_, err := io.ReadFull(cr, crcBuf[:])
		return err == nil && binary.LittleEndian.Uint32(crcBuf[:]) == crc
	}
	width := ValueBits(meta.N)
	for {
		blockOff := cr.off
		marker, err := cr.ReadByte()
		if err == io.EOF {
			// No EOS record: the writer never Closed (crash).
			return stop("shard ends without end-of-stream record (torn tail at offset %d)", blockOff)
		}
		if err != nil {
			return nil, err
		}
		switch marker {
		case blockMarker:
			var seq, first, count, explicit, exceptions uint64
			hb, ok := fields(marker, &seq, &first, &count, &explicit, &exceptions)
			payLen := payloadLen(int64(explicit), width) + exceptionsLen(int64(exceptions), int64(count), width)
			// Structural sanity before trusting payLen: a torn tail can
			// parse as a block header with garbage fields — a sequence
			// number, counts — as easily as a clean one.
			switch {
			case !ok:
			case int64(seq) != int64(len(sc.blocks)):
				return stop("block at offset %d has sequence %d, want %d", blockOff, seq, len(sc.blocks))
			case count == 0 || count > MaxBlockEdges || explicit > count || exceptions > MaxExceptions || explicit+exceptions > count:
				return stop("block at offset %d claims %d records, %d explicit values and %d exceptions (at most %d records and %d exceptions a block)", blockOff, count, explicit, exceptions, MaxBlockEdges, MaxExceptions)
			case payLen > fi.Size()-cr.off:
				// The payload cannot outrun the file.
				return stop("block at offset %d claims %d payload bytes in the file's %d bytes left", blockOff, payLen, fi.Size()-cr.off)
			default:
				payOff := cr.off
				if crc, err := cr.crc(crc32.Checksum(hb, castagnoli), payLen); err == nil && sealed(crc) {
					sc.blocks = append(sc.blocks, blockInfo{
						off:        blockOff,
						size:       cr.off - blockOff,
						payOff:     payOff,
						payLen:     payLen,
						first:      first,
						count:      int64(count),
						explicit:   int64(explicit),
						exceptions: int64(exceptions),
					})
					sc.edges += int64(count)
					continue
				}
			}
			return stop("torn or corrupted block at offset %d", blockOff)
		case eosMarker:
			var edges, blocks uint64
			eb, ok := fields(marker, &edges, &blocks)
			switch {
			case !ok || !sealed(crc32.Checksum(eb, castagnoli)):
				return stop("torn end-of-stream record at offset %d", blockOff)
			case int64(edges) != sc.edges || int64(blocks) != int64(len(sc.blocks)):
				return stop("end-of-stream record says %d edges / %d blocks, chain holds %d / %d", edges, blocks, sc.edges, len(sc.blocks))
			}
			if _, err := cr.ReadByte(); err != io.EOF {
				// A valid EOS with bytes after it: a finished shard a later
				// crash appended a torn tail to. The chain itself is clean.
				return stop("trailing bytes after end-of-stream record")
			}
			return sc, nil
		default:
			return stop("unknown marker %q at offset %d", marker, blockOff)
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

// OpenReader opens a shard strictly: it refuses any damage the scan
// meets — the file must be complete (EOS record present) and every
// block CRC-clean.
func OpenReader(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sc, err := scanShard(f)
	if err == nil {
		err = sc.damage
	}
	var part partition.Scheme
	if err == nil {
		part, err = checkMeta(sc.meta)
	}
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

// maxRecordLen bounds a record's PAGB bytes: two uvarints.
const maxRecordLen = 2 * binary.MaxVarintLen64

// slack is the tail of a window the file is never read into, and of the
// exception list's buffer, so that decode may load a value's 8 bytes,
// and a ninth, wherever it starts.
const slack = 16

// decoder decodes the values of one shard's blocks through one window
// and makes every check a block needs: once per block, that its first
// key lies above the previous block's last key and its keys inside the
// rank's slots; for every record, that it takes an explicit value
// exactly when its first attempt is not direct or its row is not drawn,
// that an exception names a direct-first slot, follows the one before
// it and moves the slot off its candidate to a node below n, and that an
// explicit value lies below n; and at its end, that the draws took all
// its explicit values, that no exception lies past its records and that
// the spare bits behind both lists are zero — so a payload it accepts is
// the one the writer makes of its records. It walks a run of blocks
// (next): Iter walks all of a shard's, a download lane a chunk's.
type decoder struct {
	r         *Reader
	buf       []byte // the window: file bytes [off-fill, off)
	fill      int
	pos       uint  // the bit of buf the next explicit value starts at
	off       int64 // file offset of buf[fill]
	pend      int64 // the block's explicit values' end
	rend      int64 // how far the window may read
	width     uint  // w, the bits of a value
	n         uint64
	block     int    // the block being decoded
	lo, hi    int    // the walk's blocks, [lo, hi)
	key       uint64 // the next record's slot key
	remaining int64  // the block's records left
	explicit  int64  // the block's explicit values left
	limit     uint64 // one past the rank's largest slot key
	rows      rows
	idx, e    uint64                  // the next record's row and edge; e = x once the row is done
	exc       []uint64                // the block's exceptions left: offset, value, …
	last      int64                   // the offset of the block's last exception merged, −1 for none
	excs      []uint64                // exc's room, for the longest list, once a block has one
	vals      [decodeBatch + 1]uint64 // a batch's explicit values; one more, read and dropped
	xb        []byte                  // the exception list's bytes and slack
	err       error
}

// windowLen clamps a window budget to [minWindow, readWindow]
// (readWindow if budget <= 0).
func windowLen(budget int) int {
	if budget <= 0 {
		budget = readWindow
	}
	return min(max(budget, minWindow), readWindow)
}

// newDecoder returns a decoder reading through a window of budget bytes
// (see windowLen).
func newDecoder(budget int) decoder {
	return decoder{buf: make([]byte, windowLen(budget))}
}

// reset points the decoder at r's blocks [lo, hi), letting the window
// read ahead to rend.
func (d *decoder) reset(r *Reader, lo, hi int, rend int64) {
	d.r, d.fill, d.pos, d.remaining, d.err = r, 0, 0, 0, nil
	d.block, d.lo, d.hi, d.rend = lo-1, lo, hi, rend
	d.width, d.n = ValueBits(r.sc.meta.N), uint64(r.sc.meta.N)
	d.limit = uint64(r.part.Size(r.sc.meta.Rank)) * uint64(r.sc.meta.X)
	d.rows = newRows(r.part, r.sc.meta)
}

// fail latches the first error of block b, naming the shard and b.
func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("esink: %s: block %d: "+format, append([]any{d.r.f.Name(), d.block}, args...)...)
	}
	d.remaining = 0
}

// next decodes the walk's next records into vals and returns the first
// one's slot key and how many there are: 0 at the walk's end or at an
// error, which it leaves in d.err. It alone sequences a block's open,
// its decode batches and its done.
func (d *decoder) next(vals []uint64) (key uint64, k int) {
	for d.remaining == 0 {
		if d.err != nil || d.block >= d.lo && !d.done() || d.block+1 == d.hi {
			return 0, 0
		}
		d.open(d.block + 1)
	}
	key = d.key
	return key, d.decode(vals)
}

// open starts block b, checks its keys — they follow the previous
// block's and lie inside the rank's slots — and reads its exception
// list. Bytes the window already holds are not read again.
func (d *decoder) open(b int) {
	bi := &d.r.sc.blocks[b]
	if start := bi.payOff - (d.off - int64(d.fill)); start >= int64(d.pos+7)/8 && start <= int64(d.fill) {
		d.pos = uint(start) * 8
	} else {
		d.pos, d.fill, d.off = 0, 0, bi.payOff
	}
	d.block, d.key, d.remaining, d.explicit = b, bi.first, bi.count, bi.explicit
	d.pend, d.rend = bi.payOff+bi.valuesLen(d.width), max(d.rend, bi.payOff+bi.payLen)
	d.exc, d.last = nil, -1
	next := uint64(0)
	if b > 0 {
		next = d.r.sc.blocks[b-1].first + uint64(d.r.sc.blocks[b-1].count)
	}
	switch {
	case bi.first < next:
		d.fail("key %d does not follow key %d", bi.first, next-1)
		return
	case bi.first >= d.limit || uint64(bi.count) > d.limit-bi.first:
		d.fail("slot key %d outside the rank's %d slots", max(bi.first, d.limit), d.limit)
		return
	}
	d.idx, d.e = bi.first/d.rows.x, bi.first%d.rows.x
	if bi.exceptions > 0 {
		d.exceptions(bi)
	}
}

// exceptions reads block bi's exception list into d.exc; decode checks
// each entry where it merges it, and done what is left.
func (d *decoder) exceptions(bi *blockInfo) {
	if d.xb == nil { // room for the longest list, once: most blocks have none
		d.excs = make([]uint64, 0, 2*MaxExceptions)
		d.xb = make([]byte, exceptionsLen(MaxExceptions, MaxBlockEdges, 64)+slack)
	}
	l := exceptionsLen(bi.exceptions, bi.count, d.width)
	xb := d.xb[:l+slack]
	clear(xb[l:])
	if _, err := d.r.f.ReadAt(xb[:l], bi.payOff+bi.valuesLen(d.width)); err != nil {
		d.fail("%w", err)
		return
	}
	ob := ValueBits(bi.count)
	d.exc = d.excs[:2*bi.exceptions]
	for j, pos := 0, uint(0); j < len(d.exc); j, pos = j+2, pos+ob+d.width {
		d.exc[j], d.exc[j+1] = bitsAt(xb, pos, ob), bitsAt(xb, pos+ob, d.width)
	}
}

// bitsAt is the width bits of b from bit pos on, little-endian; b holds
// 9 bytes from pos/8 on.
func bitsAt(b []byte, pos, width uint) uint64 {
	o, s := pos/8, pos%8
	v := binary.LittleEndian.Uint64(b[o:]) >> s
	if s+width > 64 {
		v |= uint64(b[o+8]) << (64 - s)
	}
	return v & (1<<width - 1)
}

// avail is how many of the block's explicit values the window holds
// whole.
func (d *decoder) avail() int64 {
	return (min(int64(d.fill), d.pend-d.off+int64(d.fill))*8 - int64(d.pos)) / int64(d.width)
}

func (d *decoder) refill() error {
	d.fill = copy(d.buf, d.buf[d.pos/8:d.fill])
	d.pos %= 8
	want := d.buf[d.fill:min(int64(len(d.buf)-slack), int64(d.fill)+d.rend-d.off)]
	got, err := d.r.f.ReadAt(want, d.off)
	d.off += int64(got)
	d.fill += got
	if got == len(want) {
		return nil
	}
	return err
}

// decodeBatch is the most values one decode call yields.
const decodeBatch = 128

// decode yields up to len(vals) of the block's values into vals, the
// first of them slot d.key's, and returns how many: fewer only at the
// block's end or at an error, which it leaves in d.err. A record whose
// first attempt is direct takes its candidate, or its exception's value;
// every other record takes the block's next explicit value, bits
// [j·w, (j+1)·w) of its values, read little-endian. Each step is a loop
// of its own over the batch: draw the first attempts into vals
// (rows.firsts), put the exceptions in, unpack the explicit values the
// batch takes, and merge them in — by a mask, not a branch, for half
// the attempts are direct, at random. A batch takes at most len(vals)
// explicit values, so one window holds them. Of the records the checks
// refuse, the first in slot order is the one named, and the batch
// yields the records before it.
func (d *decoder) decode(vals []uint64) int {
	k := min(len(vals), int(d.remaining))
	vals = vals[:k]
	d.idx, d.e = d.rows.firsts(vals, d.idx, d.e)
	m := storedIn(vals)                                       // the explicit values the batch takes
	rec := uint64(d.r.sc.blocks[d.block].count - d.remaining) // vals[0]'s offset in the block
	// bad is the first record refused, k if none, and why its value v.
	bad, why, v := k, refusal(0), uint64(0)
	for x := d.exc; len(x) > 0 && x[0] < rec+uint64(k); x = x[2:] {
		o := x[0]
		if int64(o) <= d.last { // the records before it decode without it
			bad, why = int(max(o, rec)-rec), excOrder
			break
		}
		i, c := int(o-rec), vals[o-rec]
		switch {
		case c == stored:
			bad, why = i, excStored
		case x[1] == c:
			bad, why, v = i, excCandidate, c
		case x[1] >= d.n:
			bad, why, v = i, pastN, x[1]
		}
		if why != 0 {
			break
		}
		vals[i] = x[1]
		d.exc, d.last = x[2:], int64(o)
	}
	take := m
	if int64(m) > d.explicit { // the draws take more than the block has
		take = int(d.explicit)
		if i := storedAt(vals, take); i < bad {
			bad, why = i, tooFew
		}
	}
	if d.avail() < int64(take) {
		if err := d.refill(); err != nil {
			d.fail("%w", err)
			return 0
		}
		if d.avail() < int64(take) {
			d.fail("payload ends inside its explicit values")
			return 0
		}
	}
	ev, buf, pos, w, n := d.vals[:take], d.buf, d.pos, d.width, d.n
	mask := uint64(1)<<w - 1
	for j := range ev {
		o, s := pos/8, pos%8
		x := binary.LittleEndian.Uint64(buf[o:]) >> s
		if s+w > 64 {
			x |= uint64(buf[o+8]) << (64 - s)
		}
		ev[j] = x & mask
		pos += w
	}
	for j, x := range ev {
		if x >= n {
			if i := storedAt(vals, j); i < bad {
				bad, why, v = i, pastN, x
			}
			break
		}
	}
	j := 0
	for i, c := range vals[:bad] {
		s := c >> 63 // 1 when the value is stored: a candidate is below 2⁶³
		vals[i] = d.vals[j]&-s | c&(s-1)
		j += int(s)
	}
	// j values went to the records before bad.
	d.pos, d.key, d.explicit = d.pos+w*uint(j), d.key+uint64(bad), d.explicit-int64(j)
	switch slot := d.key; why {
	case excOrder:
		d.fail("exception %d at offset %d does not follow offset %d", d.excIndex(), d.exc[0], d.last)
	case excStored:
		d.fail("slot %d: an exception where the value is stored", slot)
	case excCandidate:
		d.fail("slot %d: exception value %d is its first attempt's candidate", slot, v)
	case tooFew:
		d.fail("explicit count %d disagrees with the draws, which take more by slot %d", d.r.sc.blocks[d.block].explicit, slot)
	case pastN:
		d.fail("slot %d holds value %d past the run's %d nodes", slot, v, n)
	default:
		d.remaining -= int64(k)
	}
	return bad
}

// refusal is why decode refuses a record.
type refusal int

const (
	_            refusal = iota
	excOrder             // an exception at or below the offset of the one before it
	excStored            // an exception where the block stores the value
	excCandidate         // an exception that equals the record's candidate
	tooFew               // the block's explicit values run out
	pastN                // an explicit value past n
)

// storedAt is the index of the (j+1)-th stored record of c.
func storedAt(c []uint64, j int) int {
	for i, v := range c {
		if v == stored {
			if j == 0 {
				return i
			}
			j--
		}
	}
	return len(c)
}

// excIndex is the index in its block's list of the exception d.exc
// starts at.
func (d *decoder) excIndex() int64 {
	return d.r.sc.blocks[d.block].exceptions - int64(len(d.exc)/2)
}

// done checks, at the block's end, that the draws took every explicit
// value, that no exception is left — one past the records — and that
// the spare bits behind the explicit values and behind the exception
// list are zero.
func (d *decoder) done() bool {
	bi := &d.r.sc.blocks[d.block]
	pos := uint(bi.exceptions) * (ValueBits(bi.count) + d.width) // the exception list's end
	switch {
	case d.explicit != 0:
		d.fail("explicit count %d disagrees with the draws, which take %d", bi.explicit, bi.explicit-d.explicit)
	case d.pos%8 != 0 && d.buf[d.pos/8]>>(d.pos%8) != 0:
		d.fail("padding bits after its %d records are set", bi.count)
	case len(d.exc) > 0:
		d.fail("exception %d at offset %d past its %d records", d.excIndex(), d.exc[0], bi.count)
	case pos%8 != 0 && d.xb[pos/8]>>(pos%8) != 0:
		d.fail("padding bits after its %d exceptions are set", bi.exceptions)
	}
	return d.err == nil
}

// Iter is a canonical-order edge iterator over one shard. It decodes
// the blocks in file order through one window of the payload, and
// checks that every block's keys lie above the block's before it.
type Iter struct {
	decoder
	vals [decodeBatch]uint64
	base uint64 // vals[0]'s slot key
	i, k int    // vals[i:k] are decoded, not yet yielded
	x    uint64
	// [node, node+x) are the keys of u, the last edge's source, so a
	// node's x edges cost one division and one partition lookup; node
	// starts at limit.
	node uint64
	u    int64
}

// Iter returns a canonical-order iterator reading through one window
// of budget bytes, clamped to [minWindow, readWindow] (readWindow if
// budget <= 0). Multiple iterators over one Reader are independent.
func (r *Reader) Iter(budget int) *Iter {
	it := &Iter{decoder: newDecoder(budget), x: uint64(r.sc.meta.X)}
	it.reset(r, 0, len(r.sc.blocks), 0)
	it.node = it.limit
	return it
}

// NextSlot yields the next record in canonical order as it is stored:
// the slot key (local node index times x plus edge index, checked to lie
// inside the rank's table) and the attachment value (checked to lie
// below n). A resumed run rebuilds its attachment table from these.
func (it *Iter) NextSlot() (key uint64, v int64, ok bool) {
	if it.i == it.k {
		if it.base, it.k = it.next(it.vals[:]); it.k == 0 {
			return 0, 0, false
		}
		it.i = 0
	}
	it.i++
	return it.base + uint64(it.i-1), int64(it.vals[it.i-1]), true
}

// Next yields the next edge in canonical order. The edge's source node
// U is derived from the slot key via the partition (rows.node).
func (it *Iter) Next() (graph.Edge, bool) {
	key, v, ok := it.NextSlot()
	if !ok {
		return graph.Edge{}, false
	}
	if key-it.node >= it.x {
		it.node = key - key%it.x
		it.u = it.rows.node(key / it.x)
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
// slot-key order, then rank 1's, and so on. It is also a
// graph.ChunkedIterator, so graph.WriteBinaryStream downloads it on
// lanes, each decoding runs of blocks, instead of calling Next.
type DirIter struct {
	d      *DirReader
	budget int
	i      int
	cur    *Iter
	chunks []chunk // the download's runs of blocks
}

// chunk is a run of consecutive blocks [lo, hi) of one shard that a
// download lane decodes whole.
type chunk struct{ shard, lo, hi int }

// Iter returns a merged canonical-order iterator; budget bounds each
// shard iterator's buffer memory (shards are read one at a time), and
// each download lane's.
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

// Chunks cuts every shard into the runs a download lane reads: as many
// consecutive blocks as one window spans, or one block larger than that.
// A block's header names its keys, so a run decodes on its own.
func (di *DirIter) Chunks() int {
	win := int64(windowLen(di.budget) - slack)
	di.chunks = di.chunks[:0]
	for s, r := range di.d.readers {
		bs := r.sc.blocks
		for lo, hi := 0, 0; lo < len(bs); lo = hi {
			for hi = lo + 1; hi < len(bs) && bs[hi].payOff+bs[hi].payLen-bs[lo].payOff <= win; hi++ {
			}
			di.chunks = append(di.chunks, chunk{shard: s, lo: lo, hi: hi})
		}
	}
	return len(di.chunks)
}

// Lane returns a download lane. It decodes a chunk's blocks through its
// own window with Iter's decoder, which makes every check Iter makes —
// a block's first key against the index's previous block too, so a
// chunk needs nothing from the one before it — and varint-encodes their
// edges as PAGB into the writer's buffers a word at a time.
func (di *DirIter) Lane() graph.ChunkEncoder {
	d := newDecoder(di.budget)
	var vals [decodeBatch]uint64
	return func(i int, b []byte, emit func([]byte) []byte) ([]byte, int64, error) {
		c := di.chunks[i]
		r := di.d.readers[c.shard]
		end := r.sc.blocks[c.hi-1]
		d.reset(r, c.lo, c.hi, end.payOff+end.payLen)
		// u is the last edge's source: its PAGB bytes as a word, ul of
		// them, or more than 8 for a source too wide for one.
		x, node, u, uw, ul := uint64(r.sc.meta.X), d.limit, uint64(0), uint64(0), 0
		var n int64
		for key, k := d.next(vals[:]); k > 0; key, k = d.next(vals[:]) {
			n += int64(k)
			if cap(b)-len(b) < k*maxRecordLen {
				if b = emit(b); b == nil {
					return nil, n, nil
				}
			}
			for _, v := range vals[:k] {
				if key-node >= x {
					node = key - key%x
					u = uint64(d.rows.node(key / x))
					uw, ul = varintWord(u)
				}
				key++
				vw, vl := varintWord(v)
				if ul > 8 || vl > 8 {
					b = binary.AppendUvarint(binary.AppendUvarint(b, u), v)
					continue
				}
				// Two words, each cut to its varint's length.
				l := len(b)
				b = b[:l+16]
				binary.LittleEndian.PutUint64(b[l:], uw)
				binary.LittleEndian.PutUint64(b[l+ul:], vw)
				b = b[:l+ul+vl]
			}
		}
		return b, n, d.err
	}
}

// varintWord is v's uvarint as a little-endian word and its length; a
// length above 8 (v of 2⁵⁶ or more) leaves the word meaningless.
func varintWord(v uint64) (uint64, int) {
	l := max(1, (bits.Len64(v)+6)/7)
	w := v&0x7f | v<<1&(0x7f<<8) | v<<2&(0x7f<<16) | v<<3&(0x7f<<24) |
		v<<4&(0x7f<<32) | v<<5&(0x7f<<40) | v<<6&(0x7f<<48) | v<<7&(0x7f<<56)
	return w | 0x8080808080808080&(uint64(1)<<(8*l-8)-1), l
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
