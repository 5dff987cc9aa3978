package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Write encodes and publishes s in one call.
func Write(dir string, s *Snapshot) (path string, size int64, err error) {
	return WriteEncoded(dir, s.Meta.Rank, s.Epoch, Encode(s))
}

func sample(rank int, epoch int64) *Snapshot {
	s := &Snapshot{
		Meta: Meta{
			N: 1_000_000, X: 4, P: 0.5, Seed: 0xdeadbeefcafe,
			Ranks: 8, Rank: rank, Scheme: "RRP",
			Resolve: 1,
		},
		Epoch: epoch,
		Stats: Stats{Retries: 5, QueuedWaits: 6, LocalWaits: 7},
		Sink:  SinkMark{Offset: 1 << 40, Blocks: 12345, Edges: 987654321},
	}
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

// The v13 section rules: 'M' and 'K' are mandatory, and the sections of
// earlier versions — the records 'W', the window 'F', the delta 'D' and
// the outbound 'O' — are unknown tags. Files of versions 9 to 12, which
// carried in-flight protocol state, are refused by name. The files below
// are CRC-clean, so the section rules — not the checksum — must reject
// them.
func TestParseSectionRules(t *testing.T) {
	s := sample(0, 4)

	// beforeEnd splices a section in before the end marker and the
	// trailer; without cuts one section out.
	mark := binary.AppendUvarint([]byte{'K'}, uint64(s.Sink.Offset))
	mark = binary.AppendUvarint(mark, uint64(s.Sink.Blocks))
	mark = binary.AppendUvarint(mark, uint64(s.Sink.Edges))
	data := Encode(s)
	meta := data[len(Magic)+1 : bytes.IndexByte(data, 'S')]
	if meta[0] != 'M' {
		t.Fatalf("snapshot opens with section %q, want 'M'", meta[0])
	}
	beforeEnd := func(data, section []byte) []byte {
		body := append(data[:len(data)-5:len(data)-5], section...)
		return reseal(append(body, 'Z', 0, 0, 0, 0))
	}
	without := func(section []byte) []byte {
		data := Encode(s)
		if bytes.Count(data, section) != 1 {
			t.Fatalf("snapshot holds %d copies of section %q", bytes.Count(data, section), section[0])
		}
		return reseal(bytes.Replace(data, section, nil, 1))
	}
	cases := map[string][]byte{
		"no K":      without(mark),
		"no M":      without(meta),
		"W section": beforeEnd(Encode(s), []byte{'W', 0, 0, 0}),
		"F section": beforeEnd(Encode(s), []byte{'F', 2, 0}),
		"D section": beforeEnd(Encode(s), []byte{'D', 2, 1, 0, 1, 5}),
		"O section": beforeEnd(Encode(s), []byte{'O', 1, 3, 1, 0xca}),
	}
	for _, v := range []byte{6, 8, 9, 10, 11, 12} {
		old := Encode(s)
		old[len(Magic)] = v
		cases[fmt.Sprintf("version %d", v)] = reseal(old)
	}
	for name, data := range cases {
		if got, err := parse(data); err == nil {
			t.Errorf("%s: parsed to %+v, want an error", name, got)
		} else if strings.Contains(err.Error(), "CRC") {
			t.Errorf("%s: rejected by checksum (%v), the test file is malformed", name, err)
		} else if strings.HasPrefix(name, "version ") && !strings.Contains(err.Error(), name) {
			t.Errorf("%s: err = %v, want one naming the version", name, err)
		}
	}
	for _, want := range []*Snapshot{s, {Meta: s.Meta, Epoch: 1}} {
		if got, err := parse(Encode(want)); err != nil || !reflect.DeepEqual(got, want) {
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

// Prune counts only snapshots whose frame Read accepts, and vets each
// one with the same check over the whole file's bytes: a torn newest
// epoch, a flipped byte deep inside a large file and another version
// never count, so the two intact epochs below them are kept and only
// older ones go.
func TestPruneSkipsDamagedFrames(t *testing.T) {
	dir := t.TempDir()
	for epoch := int64(1); epoch <= 6; epoch++ {
		s := sample(0, epoch)
		// A 60 KB scheme name: the damage below lands far from both ends.
		s.Meta.Scheme = strings.Repeat("RRP", 20_000)
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
		b[len(Magic)] = Version + 1
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
