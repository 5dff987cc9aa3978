package ckpt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Write encodes and publishes s in one call.
func Write(dir string, s *Snapshot) (path string, size int64, err error) {
	var enc Encoder
	return WriteEncoded(dir, s.Meta.Rank, s.Epoch, enc.Encode(s))
}

func sample(rank int, epoch int64) *Snapshot {
	s := &Snapshot{
		Meta: Meta{
			N: 1_000_000, X: 4, P: 0.5, Seed: 0xdeadbeefcafe,
			Ranks: 8, Rank: rank, Scheme: "RRP",
			Resolve: 1,
		},
		Epoch: epoch,
		Susp: []SuspRecord{
			{Idx: 17, Edge: 2, Retry: 0},
			{Idx: 21, Edge: 0, Retry: 300},
		},
		// Node 17 holds edge 3's answer; node 21 those of edges 1 and 3.
		Ahead: []AheadRecord{{Slot: 71, V: 999_999}, {Slot: 85, V: 0}, {Slot: 87, V: 12}},
		Waiters: []WaiterRecord{
			{Slot: 99, T: 200, E: 1},
			{Slot: 99, T: 201, E: 0},
			{Slot: 802, T: 310, E: 2},
		},
		Stats: Stats{Retries: 5, QueuedWaits: 6, LocalWaits: 7},
		Sink:  SinkMark{Offset: 1 << 40, Blocks: 12345, Edges: 987654321},
	}
	// The window: NILL slots among resolved ones, values of every width.
	s.Window = Window{Start: 4000, Vals: []byte{}}
	for _, v := range []int64{-1, 0, 127, -1, 999_999, 3} {
		s.Window.Append(v)
	}
	return s
}

// idleSnapshot is a snapshot with nothing suspended: its 'W' section is
// the three empty counts. The lists are empty, not nil — the parser
// always materializes them, and DeepEqual distinguishes nil from empty.
func idleSnapshot(rank int, epoch int64) *Snapshot {
	s := sample(rank, epoch)
	s.Susp, s.Ahead, s.Waiters = []SuspRecord{}, []AheadRecord{}, []WaiterRecord{}
	return s
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sample(2, 9)
	path, size, err := Write(dir, want)
	if err != nil {
		t.Fatal(err)
	}
	if path != Path(dir, 2, 9) {
		t.Fatalf("wrote %s, want %s", path, Path(dir, 2, 9))
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != size {
		t.Fatalf("reported size %d, file is %d", size, fi.Size())
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// The mark is the snapshot's only source of F, so 'K' is written for
// every snapshot — a zero mark (a cut before the first block flushed)
// included — and every field round-trips at its full width.
func TestWriteReadSinkMark(t *testing.T) {
	dir := t.TempDir()
	for _, mark := range []SinkMark{{}, {Offset: 1<<63 - 1, Blocks: 1 << 40, Edges: 1<<62 + 3}} {
		want := sample(1, 3)
		want.Sink = mark
		path, _, err := Write(dir, want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Read(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mark %+v: round trip mismatch:\n got %+v\nwant %+v", mark, got, want)
		}
	}
}

// reseal replaces data's CRC trailer after a test edited the body.
func reseal(data []byte) []byte {
	body := data[: len(data)-4 : len(data)-4]
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// The v11 section rules: 'K', 'W' and the window 'F' are mandatory, 'W'
// appears exactly once, and the delta section 'D' and the outbound
// section 'O' of earlier versions are unknown tags. A version 9 file —
// per-node stream states in its suspension records — and a version 10
// file — coalescing chains in its 'W' section — are refused by name.
// The files below are CRC-clean, so
// the section rules — not the checksum — must reject them.
func TestParseSectionRules(t *testing.T) {
	var enc Encoder
	encode := func(s *Snapshot) []byte { return append([]byte(nil), enc.Encode(s)...) }
	s := sample(0, 4)

	// beforeEnd splices a section in before the end marker and the
	// trailer; without cuts one section out.
	mark := binary.AppendUvarint([]byte{'K'}, uint64(s.Sink.Offset))
	mark = binary.AppendUvarint(mark, uint64(s.Sink.Blocks))
	mark = binary.AppendUvarint(mark, uint64(s.Sink.Edges))
	window := binary.AppendUvarint([]byte{'F'}, uint64(s.Window.Start))
	window = binary.AppendUvarint(window, uint64(s.Window.Count))
	window = append(window, s.Window.Vals...)
	beforeEnd := func(data, section []byte) []byte {
		body := append(data[:len(data)-5:len(data)-5], section...)
		return reseal(append(body, 'Z', 0, 0, 0, 0))
	}
	without := func(section []byte) []byte {
		data := encode(s)
		if bytes.Count(data, section) != 1 {
			t.Fatalf("snapshot holds %d copies of section %q", bytes.Count(data, section), section[0])
		}
		return reseal(bytes.Replace(data, section, nil, 1))
	}
	v6 := encode(s)
	v6[len(Magic)] = 6
	v8 := encode(s)
	v8[len(Magic)] = 8
	v9 := encode(s)
	v9[len(Magic)] = 9
	v10 := encode(s)
	v10[len(Magic)] = 10
	// An idle snapshot's 'W' section is the three empty counts.
	emptyW := []byte{'W', 0, 0, 0}
	idle := encode(idleSnapshot(0, 4))
	if bytes.Count(idle, emptyW) != 1 {
		t.Fatalf("idle snapshot holds %d copies of the empty 'W' section, want 1", bytes.Count(idle, emptyW))
	}
	noW := reseal(bytes.Replace(idle, emptyW, nil, 1))

	for name, data := range map[string][]byte{
		"no K":        without(mark),
		"no F":        without(window),
		"no W":        noW,
		"second W":    beforeEnd(encode(s), emptyW),
		"F too short": beforeEnd(without(window), []byte{'F', 2, 3, 1, 1}),
		"D section":   beforeEnd(encode(s), []byte{'D', 2, 1, 0, 1, 5}),
		"O section":   beforeEnd(encode(s), []byte{'O', 1, 3, 1, 0xca}),
		"version 6":   reseal(v6),
		"version 8":   reseal(v8),
		"version 9":   reseal(v9),
		"version 10":  reseal(v10),
	} {
		if got, err := parse(data); err == nil {
			t.Errorf("%s: parsed to %+v, want an error", name, got)
		} else if strings.Contains(err.Error(), "CRC") {
			t.Errorf("%s: rejected by checksum (%v), the test file is malformed", name, err)
		} else if strings.HasPrefix(name, "version ") && !strings.Contains(err.Error(), name) {
			t.Errorf("%s: err = %v, want one naming the version", name, err)
		}
	}
	for _, want := range []*Snapshot{s, idleSnapshot(0, 4)} {
		if got, err := parse(encode(want)); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("round trip = %+v, %v", got, err)
		}
	}
}

// Retention keeps the keep newest snapshots Read accepts: Prune leaves
// exactly keep files over clean epochs, Latest falls back past a torn
// one, and the torn file never counts toward retention — so the epochs
// it would have displaced stay.
func TestStreamedEpochRetention(t *testing.T) {
	dir := t.TempDir()
	write := func(epoch int64) {
		t.Helper()
		if _, _, err := Write(dir, sample(0, epoch)); err != nil {
			t.Fatal(err)
		}
		if err := Prune(dir, 0, 3); err != nil {
			t.Fatal(err)
		}
	}
	for epoch := int64(1); epoch <= 6; epoch++ {
		write(epoch)
	}
	if epochs, _ := Epochs(dir, 0); !reflect.DeepEqual(epochs, []int64{4, 5, 6}) {
		t.Fatalf("after prune: %v, want [4 5 6]", epochs)
	}
	if err := os.Truncate(Path(dir, 0, 6), 40); err != nil {
		t.Fatal(err)
	}
	snap, skipped, err := Latest(dir, 0)
	if err != nil || snap == nil || snap.Epoch != 5 || len(skipped) != 1 {
		t.Fatalf("Latest = %+v, skipped %v, err %v; want epoch 5 past the torn 6", snap, skipped, err)
	}
	write(7)
	write(8)
	if epochs, _ := Epochs(dir, 0); !reflect.DeepEqual(epochs, []int64{5, 6, 7, 8}) {
		t.Fatalf("after prune past a torn epoch: %v, want [5 6 7 8] (three readable, the torn 6 uncounted)", epochs)
	}
}

func TestWriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := Write(dir, sample(0, 1)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temporary file %s left behind", e.Name())
		}
	}
}

// Every single-byte corruption anywhere in the file must be caught by
// the CRC (or, for the trailer bytes themselves, by the CRC comparison).
func TestReadDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path, _, err := Write(dir, sample(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, len(Magic), len(clean) / 2, len(clean) - 5, len(clean) - 1} {
		data := append([]byte(nil), clean...)
		data[pos] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(path); err == nil {
			t.Fatalf("corruption at byte %d went undetected", pos)
		}
	}
}

func TestReadDetectsTruncation(t *testing.T) {
	dir := t.TempDir()
	path, _, err := Write(dir, sample(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, len(Magic), len(clean) / 3, len(clean) - 1} {
		if err := os.WriteFile(path, clean[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(path); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

func TestReadRejectsVersionAndMagic(t *testing.T) {
	if _, err := parse([]byte("NOTPAGEN\x01whatever....")); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: err = %v", err)
	}
	// A future-version file with a correct CRC must be rejected by
	// version, not CRC.
	dir := t.TempDir()
	path, _, err := Write(dir, sample(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(Magic)] = Version + 1 // version uvarint
	if _, err := parse(reseal(data)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: err = %v", err)
	}
}

func TestLatestSkipsTornNewest(t *testing.T) {
	dir := t.TempDir()
	for _, epoch := range []int64{1, 2, 3} {
		if _, _, err := Write(dir, sample(0, epoch)); err != nil {
			t.Fatal(err)
		}
	}
	// Tear epoch 3.
	path := Path(dir, 0, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	snap, skipped, err := Latest(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Epoch != 2 {
		t.Fatalf("Latest = %+v, want epoch 2", snap)
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0], "epoch00000003") {
		t.Fatalf("skipped = %v, want the epoch-3 file", skipped)
	}
}

func TestLatestEmptyAndMissing(t *testing.T) {
	snap, skipped, err := Latest(filepath.Join(t.TempDir(), "nonexistent"), 0)
	if snap != nil || skipped != nil || err != nil {
		t.Fatalf("missing dir: (%v, %v, %v), want all nil", snap, skipped, err)
	}
	snap, _, err = Latest(t.TempDir(), 0)
	if snap != nil || err != nil {
		t.Fatalf("empty dir: (%v, %v), want nil snapshot, nil error", snap, err)
	}
}

func TestEpochsPruneRemove(t *testing.T) {
	dir := t.TempDir()
	for _, epoch := range []int64{5, 1, 3} {
		if _, _, err := Write(dir, sample(0, epoch)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := Write(dir, sample(1, 9)); err != nil {
		t.Fatal(err)
	}
	epochs, err := Epochs(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(epochs, []int64{1, 3, 5}) {
		t.Fatalf("Epochs = %v, want [1 3 5]", epochs)
	}
	if err := Prune(dir, 0, 2); err != nil {
		t.Fatal(err)
	}
	if epochs, _ = Epochs(dir, 0); !reflect.DeepEqual(epochs, []int64{3, 5}) {
		t.Fatalf("after prune: %v, want [3 5]", epochs)
	}
	// Rank 1's file is untouched by rank 0 operations.
	if epochs, _ = Epochs(dir, 1); !reflect.DeepEqual(epochs, []int64{9}) {
		t.Fatalf("rank 1 epochs: %v, want [9]", epochs)
	}
	if err := Remove(dir, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := Remove(dir, 0, 5); err != nil {
		t.Fatalf("double remove: %v, want nil", err)
	}
	if epochs, _ = Epochs(dir, 0); !reflect.DeepEqual(epochs, []int64{3}) {
		t.Fatalf("after remove: %v, want [3]", epochs)
	}
}

// Prune counts only snapshots whose frame Read accepts, checked through
// a buffer smaller than the file: a torn newest epoch, a flipped byte
// past the first buffer's worth and another version never count, so the
// two intact epochs below them are kept and only older ones go.
func TestPruneSkipsDamagedFrames(t *testing.T) {
	dir := t.TempDir()
	for epoch := int64(1); epoch <= 6; epoch++ {
		s := sample(0, epoch)
		for range 20_000 { // a window past check's 8 KiB buffer
			s.Window.Append(999_999)
		}
		if _, _, err := Write(dir, s); err != nil {
			t.Fatal(err)
		}
	}
	damage := func(epoch int64, f func([]byte) []byte) {
		path := Path(dir, 0, epoch)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damage(6, func(b []byte) []byte { return b[:len(b)-100] })
	damage(5, func(b []byte) []byte { b[40_000]++; return b })
	damage(4, func(b []byte) []byte {
		b[len(Magic)] = Version - 1
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], castagnoli))
		return b
	})
	for epoch := int64(1); epoch <= 6; epoch++ {
		_, rerr := Read(Path(dir, 0, epoch))
		if verr := vet(Path(dir, 0, epoch)); (verr == nil) != (rerr == nil) || verr != nil && !strings.Contains(rerr.Error(), verr.Error()) {
			t.Fatalf("epoch %d: vet says %v, Read says %v", epoch, verr, rerr)
		}
	}
	if err := Prune(dir, 0, 2); err != nil {
		t.Fatal(err)
	}
	if epochs, _ := Epochs(dir, 0); !reflect.DeepEqual(epochs, []int64{2, 3, 4, 5, 6}) {
		t.Fatalf("after prune: %v, want [2 3 4 5 6]", epochs)
	}
}

func TestPathNameRoundTrip(t *testing.T) {
	name := filepath.Base(Path("d", 12, 345))
	rank, epoch, ok := parseName(name)
	if !ok || rank != 12 || epoch != 345 {
		t.Fatalf("parseName(%q) = (%d, %d, %v)", name, rank, epoch, ok)
	}
	if _, _, ok := parseName("rank0001-epoch00000001.ckpt.tmp"); ok {
		t.Fatal("parseName accepted a .tmp file")
	}
	if _, _, ok := parseName("unrelated.txt"); ok {
		t.Fatal("parseName accepted an unrelated file")
	}
}

// Publishing a snapshot fsyncs its directory after the rename and before
// returning, so the caller's Prune never unlinks an older epoch while the
// name that supersedes it could still be lost: when the directory is
// synced the final name exists and the temporary is gone. A failed
// directory sync is an error, not a published epoch.
func TestCheckpointWriteSyncsDirAfterRename(t *testing.T) {
	dir := t.TempDir()
	defer func(orig func(string) error) { syncDir = orig }(syncDir)
	var synced []string
	syncDir = func(d string) error {
		synced = append(synced, d)
		if _, err := os.Stat(Path(dir, 0, 1)); err != nil {
			t.Errorf("directory synced before the rename: %v", err)
		}
		if _, err := os.Stat(Path(dir, 0, 1) + ".tmp"); !os.IsNotExist(err) {
			t.Errorf("temporary still present when the directory is synced (stat: %v)", err)
		}
		return nil
	}
	if _, _, err := Write(dir, sample(0, 1)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(synced, []string{dir}) {
		t.Fatalf("synced %q, want the snapshot directory once", synced)
	}

	syncDir = func(string) error { return os.ErrPermission }
	if _, _, err := Write(dir, sample(0, 2)); err == nil || !strings.Contains(err.Error(), "sync") {
		t.Fatalf("Write with a failing directory sync returned %v, want a sync error", err)
	}
}
