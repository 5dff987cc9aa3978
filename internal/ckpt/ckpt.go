// Package ckpt serializes a rank's checkpoint into versioned,
// CRC-protected snapshot files — the storage half of the generator's
// checkpoint/restart subsystem. A snapshot is small and of fixed shape:
// the run's identity, the rank's epoch, its cumulative counters and the
// sink mark naming the durable prefix of the rank's shard file. It holds
// no engine state: every checkpointed run streams its edges, the marked
// prefix is F for every node below the rank's frontier, and a resume
// rebuilds F from it and regenerates the rest (DESIGN.md §9). The format
// is byte-for-byte specified in docs/CHECKPOINT_FORMAT.md and verified
// on read by a whole-file CRC-32C so a torn write is detected rather
// than resumed from.
//
// Every snapshot restores on its own, given its shard, whatever the
// other ranks' snapshots hold. A snapshot is tens of bytes, so Encode
// allocates its bytes and every reader loads a whole file before
// checking it.
//
// The package is pure serialization: when a rank cuts and what it
// restores is internal/core's; this package supplies the file mechanics
// (Read, Latest, Prune) those policies are built from.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Magic opens every snapshot file.
const Magic = "PAGENCK1"

// Version is the current snapshot format version. Readers reject any
// other value: the format carries no compat shims, and resuming from a
// mis-parsed snapshot would silently corrupt the output graph.
// docs/CHECKPOINT_FORMAT.md lists what each version changed. Version 13
// drops version 12's 'W' records and 'F' window: a rank resumes from its
// sink mark alone, which now ends on a node boundary, and regenerates
// everything above it.
const Version = 13

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

// SinkMark is the streaming edge sink's durable position at the cut:
// the rank's shard file holds exactly Blocks complete blocks with Edges
// edge records in its first Offset bytes, flushed and fsynced before
// the snapshot was published. The records are every slot of the rank's
// nodes below its frontier, a node boundary. A resumed run truncates the
// shard to Offset, rebuilds F from the records in that prefix — a
// snapshot carries no table of its own — and regenerates every node
// from the frontier on (esink.Mark is the engine-side twin).
type SinkMark struct {
	Offset int64
	Blocks int64
	Edges  int64
}

// Stats carries the cumulative engine counters that cannot be
// recomputed from F. They count work: a resumed run adds the work it
// redoes above the mark to them, so its totals are not the model's.
type Stats struct {
	Retries     int64
	QueuedWaits int64
	LocalWaits  int64
}

// Snapshot is one rank's checkpoint: the sections 'M' (Meta and Epoch),
// 'S' (Stats) and 'K' (Sink). It names a shard prefix and nothing else,
// so it restores at any worker count and beside any peer's epoch.
type Snapshot struct {
	Meta  Meta
	Epoch int64
	Stats Stats
	// Sink is the shard's durable mark, serialized as the mandatory 'K'
	// section: the records under it are F below the frontier.
	Sink SinkMark
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

// Encode serializes s — sections plus the CRC-32C trailer — into a new
// slice sized for the encoding.
func Encode(s *Snapshot) []byte {
	b := make([]byte, 0, 160+len(s.Meta.Scheme))
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

	// 'S': cumulative counters.
	b = append(b, 'S')
	b = binary.AppendUvarint(b, uint64(s.Stats.Retries))
	b = binary.AppendUvarint(b, uint64(s.Stats.QueuedWaits))
	b = binary.AppendUvarint(b, uint64(s.Stats.LocalWaits))

	// 'K': the shard's durable mark, which stands in for F below the
	// frontier. Then the end marker and the CRC trailer.
	b = append(b, 'K')
	b = binary.AppendUvarint(b, uint64(s.Sink.Offset))
	b = binary.AppendUvarint(b, uint64(s.Sink.Blocks))
	b = binary.AppendUvarint(b, uint64(s.Sink.Edges))
	b = append(b, 'Z')
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
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
// version. Read (through parse) and Prune (through vet) both run it over
// a whole file's bytes before trusting anything else in them.
func check(data []byte) error {
	if len(data) < len(Magic)+4 {
		return fmt.Errorf("file too short (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return fmt.Errorf("bad magic %q", data[:len(Magic)])
	}
	body := data[:len(data)-4]
	want, got := binary.LittleEndian.Uint32(data[len(body):]), crc32.Checksum(body, castagnoli)
	if got != want {
		return fmt.Errorf("CRC mismatch: file says %08x, content is %08x (torn or corrupted snapshot)", want, got)
	}
	ver, k := binary.Uvarint(body[len(Magic):])
	if k <= 0 {
		return fmt.Errorf("truncated varint")
	}
	switch ver {
	case Version:
		return nil
	case 9, 10, 11, 12:
		return fmt.Errorf("unsupported snapshot version %d: it restores in-flight protocol state from a mark that may end inside a node, which version %d's rank-local resume cannot continue; restart the run", ver, Version)
	}
	return fmt.Errorf("unsupported snapshot version %d (reader supports %d)", ver, Version)
}

func parse(data []byte) (*Snapshot, error) {
	if err := check(data); err != nil {
		return nil, err
	}
	r := &reader{b: data[len(Magic) : len(data)-4]}
	r.uvarint() // the version, which check accepted

	s := &Snapshot{}
	sawM, sawK := false, false
	for {
		t, err := r.tag()
		if err != nil {
			return nil, err
		}
		switch t {
		case 'M':
			sawM = true
			if err := s.parseMeta(r); err != nil {
				return nil, fmt.Errorf("meta: %w", err)
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
		case 'Z':
			if len(r.b) != 0 {
				return nil, fmt.Errorf("%d trailing bytes after end marker", len(r.b))
			}
			// The mark is the snapshot's only source of F: without it a
			// resume could neither recover the shard nor rebuild the table.
			if !sawK {
				return nil, fmt.Errorf("no 'K' section (sink mark)")
			}
			if !sawM {
				return nil, fmt.Errorf("no 'M' section (run identity)")
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
// fallback possible. The check parses no section. Rejected files are
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
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return check(data)
}

// Remove deletes rank's snapshot of the given epoch, ignoring a missing
// file.
func Remove(dir string, rank int, epoch int64) error {
	err := os.Remove(Path(dir, rank, epoch))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}
