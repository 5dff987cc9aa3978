// Package ckpt serializes per-rank engine state into versioned,
// CRC-protected snapshot files — the storage half of the generator's
// checkpoint/restart subsystem. One snapshot captures everything a rank
// needs to resume generation mid-run at a consistent cut: every
// unfinished node's frontier edge and retry count and the answers it
// holds ahead of that edge, the pending waiter queues, the sink mark
// naming the durable prefix of the rank's shard file, and the window of
// F above that prefix. A snapshot carries no
// attachment table: every checkpointed run streams its edges, the
// marked shard prefix is F below the rank's resolved frontier, the
// window is F from the frontier up to the generation cursor, and
// restore replays both. The format
// is byte-for-byte specified in docs/CHECKPOINT_FORMAT.md and verified
// on read by a whole-file CRC-32C so a torn write is detected rather
// than resumed from.
//
// Every snapshot restores on its own, given its shard. Encoding is
// buffer-based — Encoder reuses one scratch buffer across epochs so a
// steady checkpoint cadence performs no transient allocations.
//
// The package is pure serialization: which state goes into a snapshot,
// when all ranks' snapshots form a mutually consistent cut, and which
// epochs are safe to prune is negotiated by internal/core (DESIGN.md
// §9); this package supplies the file mechanics (Read, Latest, Prune)
// those policies are built from.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// Magic opens every snapshot file.
const Magic = "PAGENCK1"

// Version is the current snapshot format version. Readers reject any
// other value: the format carries no compat shims, and resuming from a
// mis-parsed snapshot would silently corrupt the output graph.
// docs/CHECKPOINT_FORMAT.md lists what each version changed; version 11
// follows the computed hub replica: 'W' drops the coalescing chains and
// stores an answer held ahead as itself.
const Version = 11

// castagnoli is the CRC-32C table (iSCSI polynomial) shared by writer
// and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Meta identifies the run a snapshot belongs to. A resume validates
// every field against the new run's parameters: the output is a pure
// function of (n, x, p, seed), so resuming under different parameters
// would splice two different graphs.
type Meta struct {
	N      int64
	X      int
	P      float64
	Seed   uint64
	Ranks  int
	Rank   int
	Scheme string
	// Resolve is the engine's resolve-mode code (0 = wire, 1 =
	// recompute). It is pinned so a resume under a different resolve
	// mode is rejected rather than mixing modes across the cut — the
	// output graph is identical either way, but mid-run counters and the
	// memo warm-up are not, and rejecting keeps every rank of the mesh on
	// one setting.
	Resolve int
}

// SuspRecord is one unfinished node: its local index, the edge its
// committed prefix ends at, and the retry count of that edge's
// outstanding attempt. Its later edges are outstanding first attempts —
// each registered in a waiter record, this rank's or the owner's — or
// answered, as AheadRecords.
type SuspRecord struct {
	Idx   int64
	Edge  int
	Retry int
}

// AheadRecord is an answer that reached an unfinished node's edge before
// its committed prefix did: flat local slot Slot is to take value V, a
// node id, once the prefix gets there (and V is not a duplicate by then).
type AheadRecord struct {
	Slot, V int64
}

// WaiterRecord is one queued waiter of local flat slot Slot (a Q_{k,l}
// queue): when the slot resolves, node T's edge E gets the answer.
// Records of one slot appear in FIFO order.
type WaiterRecord struct {
	Slot int64
	T    int64
	E    uint16
}

// SinkMark is the streaming edge sink's durable position at the cut:
// the rank's shard file holds exactly Blocks complete blocks with Edges
// edge records in its first Offset bytes, flushed and fsynced before
// the snapshot was published. A resumed run truncates the shard to
// Offset, rebuilds F from the records in that prefix — a snapshot
// carries no table of its own — and regenerates exactly the missing
// suffix (esink.Mark is the engine-side twin).
type SinkMark struct {
	Offset int64
	Blocks int64
	Edges  int64
}

// Window is F from the rank's resolved frontier (its lowest NILL slot,
// where the marked shard prefix ends) up to the generation cursor: slot
// Start+i holds the i-th of Count uvarints in Vals minus one, so zero
// is NILL and a value costs under 4 bytes while n < 2²⁸.
type Window struct {
	Start, Count int64
	Vals         []byte
}

// Append adds the next slot's value, -1 for NILL.
func (w *Window) Append(v int64) {
	w.Vals = binary.AppendUvarint(w.Vals, uint64(v+1))
	w.Count++
}

// Each calls fn with every slot of the window and its value (-1 for
// NILL) in slot order, stopping at fn's first error.
func (w *Window) Each(fn func(s, v int64) error) error {
	b := w.Vals
	for s := w.Start; s < w.Start+w.Count; s++ {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("window slot %d: truncated varint", s)
		}
		b = b[n:]
		if err := fn(s, int64(u)-1); err != nil {
			return err
		}
	}
	return nil
}

// Stats carries the cumulative engine counters that cannot be
// recomputed from F, so resumed runs report run-lifetime totals.
type Stats struct {
	Retries     int64
	QueuedWaits int64
	LocalWaits  int64
}

// Snapshot is one rank's checkpoint state. Susp, Ahead and Waiters
// serialize as the one 'W' section: the rank's unfinished nodes and the
// answers they hold, and its waiter queues at the cut.
// The records are keyed by node and slot, so a snapshot restores at any
// worker count.
type Snapshot struct {
	Meta    Meta
	Epoch   int64
	Susp    []SuspRecord
	Ahead   []AheadRecord
	Waiters []WaiterRecord
	Stats   Stats
	// Sink is the shard's durable mark, serialized as the mandatory 'K'
	// section: the records under it are F below the frontier.
	Sink SinkMark
	// Window is F from the frontier up, the mandatory 'F' section.
	Window Window
}

// Path returns the snapshot filename for (rank, epoch) under dir. The
// fixed-width fields make lexicographic and numeric order agree.
func Path(dir string, rank int, epoch int64) string {
	return filepath.Join(dir, fmt.Sprintf("rank%04d-epoch%08d.ckpt", rank, epoch))
}

// parseName extracts (rank, epoch) from a snapshot filename, reporting
// whether it matches the Path pattern exactly. Sscanf alone would stop
// at the pattern's end and accept trailing junk — in particular a
// ".ckpt.tmp" torn temporary — so the name is re-rendered and compared,
// which anchors both ends.
func parseName(name string) (rank int, epoch int64, ok bool) {
	var r int
	var e int64
	n, err := fmt.Sscanf(name, "rank%04d-epoch%08d.ckpt", &r, &e)
	if err != nil || n != 2 || r < 0 || e < 0 {
		return 0, 0, false
	}
	if fmt.Sprintf("rank%04d-epoch%08d.ckpt", r, e) != name {
		return 0, 0, false
	}
	return r, e, true
}

// Encoder serializes snapshots into a reused scratch buffer, so a
// steady checkpoint cadence performs no O(state) transient allocations:
// the buffer grows to the largest snapshot seen and is then recycled
// epoch after epoch. An Encoder is not safe for concurrent use; the
// engine gives its background writer a private one.
type Encoder struct {
	buf []byte
}

// Encode serializes s — sections plus the CRC-32C trailer — into the
// encoder's scratch buffer and returns the encoded bytes. The returned
// slice aliases the scratch buffer and is valid until the next Encode
// call.
func (enc *Encoder) Encode(s *Snapshot) []byte {
	// One growth to a bound on the encoding, not a chain of appends.
	b := slices.Grow(enc.buf[:0], 256+len(s.Meta.Scheme)+25*len(s.Susp)+20*len(s.Ahead)+23*len(s.Waiters)+len(s.Window.Vals))
	b = append(b, Magic...)
	b = binary.AppendUvarint(b, Version)

	// 'M': run identity + epoch.
	b = append(b, 'M')
	b = binary.AppendUvarint(b, uint64(s.Meta.N))
	b = binary.AppendUvarint(b, uint64(s.Meta.X))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Meta.P))
	b = binary.LittleEndian.AppendUint64(b, s.Meta.Seed)
	b = binary.AppendUvarint(b, uint64(s.Meta.Ranks))
	b = binary.AppendUvarint(b, uint64(s.Meta.Rank))
	b = binary.AppendUvarint(b, uint64(len(s.Meta.Scheme)))
	b = append(b, s.Meta.Scheme...)
	b = binary.AppendUvarint(b, uint64(s.Meta.Resolve))
	b = binary.AppendUvarint(b, uint64(s.Epoch))

	// 'W': the rank's unfinished nodes, their answers held ahead and its
	// waiter queues — written even when all are empty.
	b = append(b, 'W')
	b = binary.AppendUvarint(b, uint64(len(s.Susp)))
	for _, sr := range s.Susp {
		b = binary.AppendUvarint(b, uint64(sr.Idx))
		b = binary.AppendUvarint(b, uint64(sr.Edge))
		b = binary.AppendUvarint(b, uint64(sr.Retry))
	}
	b = binary.AppendUvarint(b, uint64(len(s.Ahead)))
	for _, ar := range s.Ahead {
		b = binary.AppendUvarint(b, uint64(ar.Slot))
		b = binary.AppendUvarint(b, uint64(ar.V))
	}
	b = binary.AppendUvarint(b, uint64(len(s.Waiters)))
	for _, wr := range s.Waiters {
		b = binary.AppendUvarint(b, uint64(wr.Slot))
		b = binary.AppendUvarint(b, uint64(wr.T))
		b = binary.AppendUvarint(b, uint64(wr.E))
	}

	// 'S': cumulative counters.
	b = append(b, 'S')
	b = binary.AppendUvarint(b, uint64(s.Stats.Retries))
	b = binary.AppendUvarint(b, uint64(s.Stats.QueuedWaits))
	b = binary.AppendUvarint(b, uint64(s.Stats.LocalWaits))

	// 'K': the shard's durable mark, which stands in for F below the
	// frontier.
	b = append(b, 'K')
	b = binary.AppendUvarint(b, uint64(s.Sink.Offset))
	b = binary.AppendUvarint(b, uint64(s.Sink.Blocks))
	b = binary.AppendUvarint(b, uint64(s.Sink.Edges))

	// 'F': the window of F above the frontier. Then the end marker and
	// the CRC trailer.
	b = append(b, 'F')
	b = binary.AppendUvarint(b, uint64(s.Window.Start))
	b = binary.AppendUvarint(b, uint64(s.Window.Count))
	b = append(b, s.Window.Vals...)
	b = append(b, 'Z')
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	enc.buf = b
	return b
}

// WriteEncoded publishes pre-encoded snapshot bytes to
// Path(dir, rank, epoch) atomically: write a temporary file, fsync,
// rename, fsync the directory. A crash at any point leaves either no
// file or a complete one; a torn temporary never carries the final name.
// The directory fsync makes the rename durable before the caller prunes
// older epochs, so a power loss cannot keep the prune's unlinks and lose
// the name that superseded them.
func WriteEncoded(dir string, rank int, epoch int64, data []byte) (path string, size int64, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path = Path(dir, rank, epoch)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", 0, err
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return "", 0, fmt.Errorf("ckpt: write %s: %w", path, werr)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", 0, err
	}
	if err := syncDir(dir); err != nil {
		return "", 0, fmt.Errorf("ckpt: sync %s: %w", dir, err)
	}
	return path, int64(len(data)), nil
}

// syncDir fsyncs a directory, making the names created or renamed in it
// durable. A variable so tests can record the call.
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

// reader parses a snapshot from an in-memory buffer (the CRC already
// verified over the whole file).
type reader struct {
	b []byte
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("truncated varint")
	}
	r.b = r.b[n:]
	return v, nil
}

// int64s reads one uvarint into each of dst, in turn.
func (r *reader) int64s(dst ...*int64) error {
	for _, d := range dst {
		v, err := r.uvarint()
		if err != nil {
			return err
		}
		*d = int64(v)
	}
	return nil
}

func (r *reader) u64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, fmt.Errorf("truncated u64")
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

func (r *reader) bytes(n uint64) ([]byte, error) {
	if uint64(len(r.b)) < n {
		return nil, fmt.Errorf("truncated %d-byte field", n)
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out, nil
}

func (r *reader) tag() (byte, error) {
	if len(r.b) == 0 {
		return 0, fmt.Errorf("missing section tag")
	}
	t := r.b[0]
	r.b = r.b[1:]
	return t, nil
}

// Read loads and fully validates the snapshot at path: magic, version,
// whole-file CRC-32C, and structural parse. Any failure — including a
// torn or truncated file — returns an error naming the file.
func Read(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", path, err)
	}
	return s, nil
}

// check validates a snapshot's frame — magic, whole-file CRC-32C and
// version — reading the size bytes of r through a small buffer, so
// Prune can vet a file without loading it; parse runs it over the bytes
// it holds before reading the sections.
func check(r io.ReaderAt, size int64) error {
	var buf [8 << 10]byte
	if size < int64(len(Magic))+4 {
		return fmt.Errorf("file too short (%d bytes)", size)
	}
	head := buf[:min(size-4, int64(len(Magic)+binary.MaxVarintLen64))]
	if _, err := r.ReadAt(head, 0); err != nil {
		return err
	}
	if string(head[:len(Magic)]) != Magic {
		return fmt.Errorf("bad magic %q", head[:len(Magic)])
	}
	ver, k := binary.Uvarint(head[len(Magic):])
	body, got := size-4, uint32(0)
	for off := int64(0); off < body; {
		n, err := r.ReadAt(buf[:min(int64(len(buf)), body-off)], off)
		if err != nil {
			return err
		}
		got = crc32.Update(got, castagnoli, buf[:n])
		off += int64(n)
	}
	if _, err := r.ReadAt(buf[:4], body); err != nil {
		return err
	}
	if want := binary.LittleEndian.Uint32(buf[:4]); got != want {
		return fmt.Errorf("CRC mismatch: file says %08x, content is %08x (torn or corrupted snapshot)", want, got)
	}
	if k <= 0 {
		return fmt.Errorf("truncated varint")
	}
	switch ver {
	case Version:
		return nil
	case 9:
		return fmt.Errorf("unsupported snapshot version 9: its suspended nodes hold per-node random-stream states, which version %d's per-attempt draws cannot continue; restart the run", Version)
	case 10:
		return fmt.Errorf("unsupported snapshot version 10: its nodes may wait on coalesced hub-prefix requests, which version %d's computed replica never answers; restart the run", Version)
	}
	return fmt.Errorf("unsupported snapshot version %d (reader supports %d)", ver, Version)
}

func parse(data []byte) (*Snapshot, error) {
	if err := check(bytes.NewReader(data), int64(len(data))); err != nil {
		return nil, err
	}
	r := &reader{b: data[len(Magic) : len(data)-4]}
	r.uvarint() // the version, which check accepted

	s := &Snapshot{}
	sawW, sawK, sawF := false, false, false
	for {
		t, err := r.tag()
		if err != nil {
			return nil, err
		}
		switch t {
		case 'M':
			if err := s.parseMeta(r); err != nil {
				return nil, fmt.Errorf("meta: %w", err)
			}
		case 'W':
			// One writer per rank, one section: a second would be records
			// of a layout no writer produces.
			if sawW {
				return nil, fmt.Errorf("second 'W' section")
			}
			sawW = true
			if err := s.parseWorker(r); err != nil {
				return nil, fmt.Errorf("'W' section: %w", err)
			}
		case 'S':
			if err := r.int64s(&s.Stats.Retries, &s.Stats.QueuedWaits, &s.Stats.LocalWaits); err != nil {
				return nil, err
			}
		case 'K':
			sawK = true
			if err := r.int64s(&s.Sink.Offset, &s.Sink.Blocks, &s.Sink.Edges); err != nil {
				return nil, err
			}
		case 'F':
			sawF = true
			if err := s.Window.parse(r); err != nil {
				return nil, fmt.Errorf("'F' section: %w", err)
			}
		case 'Z':
			if len(r.b) != 0 {
				return nil, fmt.Errorf("%d trailing bytes after end marker", len(r.b))
			}
			// The mark is the snapshot's only source of F: without it a
			// resume could neither recover the shard nor rebuild the table.
			if !sawK {
				return nil, fmt.Errorf("no 'K' section (sink mark)")
			}
			if !sawW {
				return nil, fmt.Errorf("no 'W' section")
			}
			if !sawF {
				return nil, fmt.Errorf("no 'F' section (window)")
			}
			return s, nil
		default:
			return nil, fmt.Errorf("unknown section tag %q", t)
		}
	}
}

func (s *Snapshot) parseMeta(r *reader) error {
	var x, ranks, rank, nameLen, resolve int64
	if err := r.int64s(&s.Meta.N, &x); err != nil {
		return err
	}
	p, err := r.u64()
	if err != nil {
		return err
	}
	if s.Meta.P = math.Float64frombits(p); math.IsNaN(s.Meta.P) {
		// No run has it (model.Params.Validate rejects it), and it
		// compares unequal to itself: a resume's identity check could
		// never accept the snapshot.
		return fmt.Errorf("p is NaN")
	}
	if s.Meta.Seed, err = r.u64(); err != nil {
		return err
	}
	if err := r.int64s(&ranks, &rank, &nameLen); err != nil {
		return err
	}
	name, err := r.bytes(uint64(nameLen))
	if err != nil {
		return err
	}
	if err := r.int64s(&resolve, &s.Epoch); err != nil {
		return err
	}
	s.Meta.X, s.Meta.Ranks, s.Meta.Rank, s.Meta.Resolve = int(x), int(ranks), int(rank), int(resolve)
	s.Meta.Scheme = string(name)
	return nil
}

func (s *Snapshot) parseWorker(r *reader) error {
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	// A suspension record is at least three bytes and an ahead record
	// two; bound each allocation by the remaining bytes.
	if n > uint64(len(r.b))/3+1 {
		return fmt.Errorf("suspension count %d exceeds file", n)
	}
	s.Susp = make([]SuspRecord, n)
	for i := range s.Susp {
		var idx, edge, retry int64
		if err := r.int64s(&idx, &edge, &retry); err != nil {
			return err
		}
		s.Susp[i] = SuspRecord{Idx: idx, Edge: int(edge), Retry: int(retry)}
	}
	if n, err = r.uvarint(); err != nil {
		return err
	}
	if n > uint64(len(r.b))/2+1 {
		return fmt.Errorf("ahead count %d exceeds file", n)
	}
	s.Ahead = make([]AheadRecord, n)
	for i := range s.Ahead {
		if err := r.int64s(&s.Ahead[i].Slot, &s.Ahead[i].V); err != nil {
			return err
		}
	}
	if s.Waiters, err = parseWaiterRecords(r); err != nil {
		return fmt.Errorf("waiters: %w", err)
	}
	return nil
}

// parse reads a window section, keeping the values as they lie in the
// file; whether they fit the run is restore's check.
func (w *Window) parse(r *reader) error {
	if err := r.int64s(&w.Start, &w.Count); err != nil {
		return err
	}
	if w.Start < 0 || w.Count < 0 || w.Count > int64(len(r.b)) {
		return fmt.Errorf("%d slots from slot %d exceed the file", w.Count, w.Start)
	}
	n := 0
	for range w.Count {
		_, k := binary.Uvarint(r.b[n:])
		if k <= 0 {
			return fmt.Errorf("truncated or overlong varint")
		}
		n += k
	}
	w.Vals, r.b = r.b[:n:n], r.b[n:]
	return nil
}

// parseWaiterRecords reads the length-prefixed waiter-record list. It
// always returns a non-nil slice so round-tripped snapshots compare
// equal.
func parseWaiterRecords(r *reader) ([]WaiterRecord, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Every record costs at least three bytes: reject inflated counts
	// before allocating.
	if n > uint64(len(r.b))/3+1 {
		return nil, fmt.Errorf("record count %d exceeds file", n)
	}
	out := make([]WaiterRecord, n)
	for i := range out {
		var e int64
		if err := r.int64s(&out[i].Slot, &out[i].T, &e); err != nil {
			return nil, err
		}
		if uint64(e) > 0xffff {
			return nil, fmt.Errorf("waiter edge %d overflows uint16", uint64(e))
		}
		out[i].E = uint16(e)
	}
	return out, nil
}

// Latest returns the newest restorable snapshot for rank under dir,
// walking epochs newest-first and skipping (with a reason) any file Read
// rejects. It returns (nil, skipped, nil) when the rank has no
// restorable snapshot, and an error only when the directory itself
// cannot be read.
func Latest(dir string, rank int) (snap *Snapshot, skipped []string, err error) {
	epochs, err := Epochs(dir, rank)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	for i := len(epochs) - 1; i >= 0; i-- {
		s, err := Read(Path(dir, rank, epochs[i]))
		if err != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", Path(dir, rank, epochs[i]), err))
			continue
		}
		return s, skipped, nil
	}
	return nil, skipped, nil
}

// Epochs lists the epochs with a snapshot file for rank under dir, in
// increasing order. It does not validate the files.
func Epochs(dir string, rank int) ([]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []int64
	for _, e := range entries {
		r, ep, ok := parseName(e.Name())
		if ok && r == rank {
			out = append(out, ep)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Prune deletes rank's snapshot files under dir older than the keep-th
// newest snapshot whose frame Read accepts (check: magic, whole-file
// CRC-32C, version). A torn or foreign file never counts toward
// retention, so keep restorable epochs survive whatever damage sits
// among them — keeping at least two is what makes the torn-latest
// fallback possible. The check streams the file through a small buffer
// and parses no section: a snapshot carries its window and suspension
// records, megabytes on a rank that trails, and loading it every epoch
// cost more peak memory than the window itself. Rejected files are
// deleted once they age past the oldest kept epoch.
func Prune(dir string, rank int, keep int) error {
	epochs, err := Epochs(dir, rank)
	if err != nil {
		return err
	}
	keep = max(keep, 1)
	var barrier int64
	for i := len(epochs) - 1; i >= 0 && keep > 0; i-- {
		if vet(Path(dir, rank, epochs[i])) == nil {
			barrier = epochs[i]
			keep--
		}
	}
	if keep > 0 {
		return nil
	}
	for _, ep := range epochs {
		if ep >= barrier {
			break
		}
		if err := os.Remove(Path(dir, rank, ep)); err != nil {
			return err
		}
	}
	return nil
}

// vet runs check over the file at path.
func vet(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	return check(f, fi.Size())
}

// Remove deletes rank's snapshot of the given epoch, ignoring a missing
// file (an abandoned epoch may have failed before its write).
func Remove(dir string, rank int, epoch int64) error {
	err := os.Remove(Path(dir, rank, epoch))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}
