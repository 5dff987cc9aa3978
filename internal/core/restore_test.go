package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pagen/internal/ckpt"
	"pagen/internal/esink"
	"pagen/internal/model"
	"pagen/internal/msg"
	"pagen/internal/partition"
	"pagen/internal/seq"
	"pagen/internal/transport"
)

// streamedLibrary runs a streamed, checkpointed generation that keeps
// every epoch and returns the epochs rank 0 holds. The epoch count is
// schedule-bound, so it retries across intervals until one committed.
func streamedLibrary(t *testing.T, opts Options) (ckptDir, streamDir string, epochs []int64) {
	t.Helper()
	n := opts.Params.N
	for _, every := range []int64{n / 4, n / 8, n / 16, n / 32, n / 8, n / 16, n / 32} {
		ckptDir, streamDir = t.TempDir(), t.TempDir()
		opts.StreamDir = streamDir
		opts.Checkpoint = &CheckpointOptions{Dir: ckptDir, Every: every, Keep: 1000}
		if _, err := Run(opts, false); err != nil {
			t.Fatal(err)
		}
		var err error
		if epochs, err = ckpt.Epochs(ckptDir, 0); err != nil {
			t.Fatal(err)
		}
		if len(epochs) > 0 {
			return ckptDir, streamDir, epochs
		}
	}
	t.Fatal("no epoch committed across all retry intervals")
	return
}

// shardSlots reads a shard's records back as a flat table (-1 where the
// shard holds no record), through the same iterator restore uses.
func shardSlots(t *testing.T, path string, slots int64) []int64 {
	t.Helper()
	r, err := esink.OpenReaderTolerant(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	f := make([]int64, slots)
	for i := range f {
		f[i] = -1
	}
	it := r.Iter(0)
	for {
		key, v, ok := it.NextSlot()
		if !ok {
			break
		}
		f[key] = v
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return f
}

// resumedEngine positions rank's engine where run calls restore: the
// epoch's snapshot loaded, the shard recovered to its mark, bootstrap
// done. The caller owns no cleanup.
func resumedEngine(t *testing.T, opts Options, rank int, epoch int64) *engine {
	t.Helper()
	group, err := transport.NewLocalGroup(opts.Part.P())
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(group.Endpoint(rank), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		e.ck.writer.shutdown()
		e.stream.Abort()
		group.Endpoint(rank).Close()
	})
	if e.resumeSnap, err = ckpt.Read(ckpt.Path(opts.Checkpoint.Dir, rank, epoch)); err != nil {
		t.Fatal(err)
	}
	mark := e.resumeSnap.Sink
	if err := e.stream.Recover(esink.Mark{Offset: mark.Offset, Blocks: mark.Blocks, Edges: mark.Edges}); err != nil {
		t.Fatal(err)
	}
	e.bootstrap()
	return e
}

// The restore property: whatever the scheme, rank count, x and shard
// block size, every retained epoch of a streamed run restores from its
// table-less snapshot plus the marked shard prefix — the prefix holds
// exactly F below the snapshot's frontier, the window the resolved
// slots above it, the rebuilt table holds exactly the slots resolved at
// the cut with their final values, bootstrap's nodes are left as
// bootstrap wrote them, and the resumed run completes the sequential
// model's graph.
func TestRestoreFromShardPrefix(t *testing.T) {
	for _, kind := range []partition.Kind{partition.KindUCP, partition.KindLCP, partition.KindRRP} {
		for _, ranks := range []int{1, 2, 4} {
			for _, x := range []int{1, 3, 8} {
				for _, block := range []int{1, 64, 0} {
					kind, ranks, x, block := kind, ranks, x, block
					t.Run(fmt.Sprintf("%v/ranks=%d/x=%d/block=%d", kind, ranks, x, block), func(t *testing.T) {
						t.Parallel()
						checkRestoreFromShardPrefix(t, kind, ranks, x, block)
					})
				}
			}
		}
	}
}

func checkRestoreFromShardPrefix(t *testing.T, kind partition.Kind, ranks, x, block int) {
	pr := model.Params{N: 5_000, X: x, P: 0.5}
	sg, _, err := seq.CopyModel(pr, 13, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := edgeSet(t, sg.Edges)
	part, err := partition.New(kind, pr.N, ranks)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Params: pr, Part: part, Seed: 13, Workers: 1, StreamBlockEdges: block}
	ckptDir, streamDir, epochs := streamedLibrary(t, opts)
	opts.StreamDir = streamDir
	opts.Checkpoint = &CheckpointOptions{Dir: ckptDir, Keep: 1000, Resume: true}
	sameEdgeSet(t, "uninterrupted", streamEdges(t, streamDir, ranks), want)

	x64 := int64(x)
	final := make([][]int64, ranks)
	for r := range final {
		final[r] = shardSlots(t, esink.ShardPath(streamDir, r, ranks), part.Size(r)*x64)
	}

	for i := len(epochs) - 1; i >= 0; i-- {
		// Trim and tear as a crash right after this epoch would have.
		for r := 0; r < ranks; r++ {
			if i+1 < len(epochs) {
				if err := os.Remove(ckpt.Path(ckptDir, r, epochs[i+1])); err != nil {
					t.Fatal(err)
				}
			}
			f, err := os.OpenFile(esink.ShardPath(streamDir, r, ranks), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{'B', 0x9f, 0x03, 0x55, 0xaa, 0x00}); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}

		for r := 0; r < ranks; r++ {
			e := resumedEngine(t, opts, r, epochs[i])
			boot := ftabSlots(e.f)
			if err := e.restore(); err != nil {
				t.Fatalf("epoch %d rank %d: %v", epochs[i], r, err)
			}
			win := e.resumeSnap.Window
			var below, above, inWindow int64
			if err := win.Each(func(_, v int64) error {
				if v >= 0 {
					inWindow++
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for s, v := range ftabSlots(e.f) {
				switch {
				case part.NodeAt(r, int64(s)/x64) <= x64:
					if v != boot[s] {
						t.Fatalf("epoch %d rank %d: bootstrap slot %d changed %d -> %d", epochs[i], r, s, boot[s], v)
					}
				case v >= 0:
					if int64(s) < win.Start {
						below++
					} else {
						above++
					}
					if v != final[r][s] {
						t.Fatalf("epoch %d rank %d: slot %d restored as %d, finished table holds %d", epochs[i], r, s, v, final[r][s])
					}
				case int64(s) < win.Start:
					t.Fatalf("epoch %d rank %d: slot %d below the frontier %d is NILL", epochs[i], r, s, win.Start)
				case v != -1:
					t.Fatalf("epoch %d rank %d: slot %d holds %d", epochs[i], r, s, v)
				}
			}
			if got := below + e.emitted; got != e.resumeSnap.Sink.Edges {
				t.Fatalf("epoch %d rank %d: %d resolved below the frontier + %d bootstrap records, mark says %d",
					epochs[i], r, below, e.emitted, e.resumeSnap.Sink.Edges)
			}
			if above != inWindow {
				t.Fatalf("epoch %d rank %d: %d slots resolved above the frontier, the window holds %d", epochs[i], r, above, inWindow)
			}
		}

		if _, err := Run(opts, false); err != nil {
			t.Fatalf("resume from epoch %d: %v", epochs[i], err)
		}
		sameEdgeSet(t, fmt.Sprintf("resumed from epoch %d", epochs[i]), streamEdges(t, streamDir, ranks), want)
	}
}

// A snapshot is the suspended nodes and waiter queues, not the table.
// What it does hold grows with how far the ranks have drifted apart at
// the cut, not with n — at this small n two ranks a scheduler quantum
// apart park a quarter of a rank's nodes — so the sizes are pinned on
// one rank, where nothing is ever suspended at a cut, and two ranks pin
// only that every file reads back.
func TestStreamedSnapshotSize(t *testing.T) {
	pr := model.Params{N: 20_000, X: 4, P: 0.5}
	for _, ranks := range []int{1, 2} {
		part, err := partition.New(partition.KindRRP, pr.N, ranks)
		if err != nil {
			t.Fatal(err)
		}
		ckptDir := t.TempDir()
		res, err := Run(Options{
			Params: pr, Part: part, Seed: 3, Workers: 1, StreamDir: t.TempDir(),
			Checkpoint: &CheckpointOptions{Dir: ckptDir, Every: 2000, Keep: 1000},
		}, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range res.Ranks {
			if st.CkptEpochs == 0 {
				t.Fatalf("ranks=%d: rank %d committed no epoch", ranks, st.Rank)
			}
			table := 8 * part.Size(st.Rank) * int64(pr.X)
			if per := st.CkptBytes / st.CkptEpochs; ranks == 1 && per*100 >= table {
				t.Errorf("%d snapshot bytes per epoch, not below 1%% of the %d-byte table", per, table)
			}
			epochs, err := ckpt.Epochs(ckptDir, st.Rank)
			if err != nil {
				t.Fatal(err)
			}
			for _, ep := range epochs {
				path := ckpt.Path(ckptDir, st.Rank, ep)
				if fi, err := os.Stat(path); err != nil || (ranks == 1 && fi.Size() >= 64<<10) {
					t.Errorf("%s: %v bytes (err %v), want under 64 KiB", path, fi.Size(), err)
				}
				if _, err := ckpt.Read(path); err != nil {
					t.Errorf("%s: %v", path, err)
				}
			}
		}
	}
}

// Damage the checksums catch, and damage only the table rebuild can see:
// either way the resume fails with an error naming the shard, and never
// falls back to an older epoch or a fresh start.
func TestRestoreShardFailsLoudly(t *testing.T) {
	pr := model.Params{N: 3_000, X: 3, P: 0.5}
	part, err := partition.New(partition.KindUCP, pr.N, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Params: pr, Part: part, Seed: 9, Workers: 1, StreamBlockEdges: 64}
	ckptDir, streamDir, epochs := streamedLibrary(t, opts)
	top := epochs[len(epochs)-1]
	snap, err := ckpt.Read(ckpt.Path(ckptDir, 0, top))
	if err != nil {
		t.Fatal(err)
	}
	shard, err := os.ReadFile(esink.ShardPath(streamDir, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	prefix := shard[:snap.Sink.Offset]

	// resume runs a resume over a fresh pair of directories holding the
	// given shard bytes and the top snapshot with the given mark.
	resume := func(t *testing.T, shard []byte, mark ckpt.SinkMark, edits ...func(*ckpt.Snapshot)) (string, error) {
		t.Helper()
		ck, st := t.TempDir(), t.TempDir()
		path := esink.ShardPath(st, 0, 1)
		if err := os.WriteFile(path, shard, 0o644); err != nil {
			t.Fatal(err)
		}
		s := *snap
		s.Sink = mark
		for _, edit := range edits {
			edit(&s)
		}
		var enc ckpt.Encoder
		if _, _, err := ckpt.WriteEncoded(ck, s.Meta.Rank, s.Epoch, enc.Encode(&s)); err != nil {
			t.Fatal(err)
		}
		o := opts
		o.StreamDir = st
		o.Checkpoint = &CheckpointOptions{Dir: ck, Keep: 1000, Resume: true}
		_, err := Run(o, false)
		return path, err
	}
	mustFail := func(t *testing.T, shard []byte, mark ckpt.SinkMark, why string) {
		t.Helper()
		path, err := resume(t, shard, mark)
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), why) {
			t.Fatalf("err = %v; want one naming %s and saying %q", err, path, why)
		}
	}

	finished := streamEdges(t, streamDir, 1)
	mustResume := func(t *testing.T, shard []byte, mark ckpt.SinkMark) {
		t.Helper()
		path, err := resume(t, shard, mark)
		if err != nil {
			t.Fatal(err)
		}
		equalEdges(t, "resumed", streamEdges(t, filepath.Dir(path), 1), finished)
	}
	t.Run("control", func(t *testing.T) { mustResume(t, prefix, snap.Sink) })
	t.Run("byte flipped before the mark", func(t *testing.T) {
		bad := append([]byte(nil), shard...)
		bad[snap.Sink.Offset/2] ^= 0x10
		mustFail(t, bad, snap.Sink, "durable prefix")
	})
	t.Run("truncated below the mark", func(t *testing.T) {
		mustFail(t, prefix[:len(prefix)-1], snap.Sink, "durable prefix")
	})
	for _, d := range []int64{-1, 1} {
		t.Run(fmt.Sprintf("mark off by %+d records", d), func(t *testing.T) {
			mark := snap.Sink
			mark.Edges += d
			mustFail(t, prefix, mark, "durable prefix")
			// Recover catches it first; the rebuild's own count check is
			// what stands when the caller's mark and Recover's differ.
			o := opts
			o.StreamDir, o.Checkpoint = streamDir, &CheckpointOptions{Dir: ckptDir, Keep: 1000, Resume: true}
			e := resumedEngine(t, o, 0, top)
			if err := e.restoreShard(mark); err == nil || !strings.Contains(err.Error(), e.stream.Path()) {
				t.Fatalf("restoreShard with a mark off by %+d: err = %v", d, err)
			}
		})
	}

	// CRC-clean shards with a wrong table in them, written through the
	// real writer: the prefix's records, edited, in many small blocks.
	type rec struct {
		key uint64
		v   int64
	}
	var recs []rec
	{
		dir := t.TempDir()
		if err := os.WriteFile(esink.ShardPath(dir, 0, 1), prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		for s, v := range shardSlots(t, esink.ShardPath(dir, 0, 1), part.Size(0)*int64(pr.X)) {
			if v >= 0 {
				recs = append(recs, rec{uint64(s), v})
			}
		}
	}
	crafted := func(t *testing.T, recs []rec) ([]byte, ckpt.SinkMark) {
		t.Helper()
		dir := t.TempDir()
		w, err := esink.Open(dir, esink.Meta{N: pr.N, X: pr.X, P: pr.P, Seed: opts.Seed, Rank: 0, Ranks: 1, Scheme: part.Name()}, 8)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Abort()
		if err := w.Reset(); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Emit(r.key, r.v); err != nil {
				t.Fatal(err)
			}
		}
		m, err := w.Mark()
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(w.Path())
		if err != nil {
			t.Fatal(err)
		}
		return b, ckpt.SinkMark{Offset: m.Offset, Blocks: m.Blocks, Edges: m.Edges}
	}
	mid := len(recs) / 2
	t.Run("crafted control", func(t *testing.T) {
		b, m := crafted(t, recs)
		mustResume(t, b, m)
	})
	t.Run("repeated slot key", func(t *testing.T) {
		// The writer refuses a key that does not ascend, so the repeat
		// goes in after a Recover, which restarts its check.
		b, m := crafted(t, recs)
		dir := t.TempDir()
		if err := os.WriteFile(esink.ShardPath(dir, 0, 1), b, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := esink.Open(dir, esink.Meta{N: pr.N, X: pr.X, P: pr.P, Seed: opts.Seed, Rank: 0, Ranks: 1, Scheme: part.Name()}, 8)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Abort()
		if err := w.Recover(esink.Mark{Offset: m.Offset, Blocks: m.Blocks, Edges: m.Edges}); err != nil {
			t.Fatal(err)
		}
		if err := w.Emit(recs[mid].key, recs[mid].v); err != nil {
			t.Fatal(err)
		}
		wm, err := w.Mark()
		if err != nil {
			t.Fatal(err)
		}
		if b, err = os.ReadFile(w.Path()); err != nil {
			t.Fatal(err)
		}
		mustFail(t, b, ckpt.SinkMark{Offset: wm.Offset, Blocks: wm.Blocks, Edges: wm.Edges},
			fmt.Sprintf("key %d does not follow key %d", recs[mid].key, recs[len(recs)-1].key))
	})
	t.Run("negative value", func(t *testing.T) {
		// A value is w unsigned bits, so no shard holds a negative one:
		// the writer refuses it.
		w, err := esink.Open(t.TempDir(), esink.Meta{N: pr.N, X: pr.X, P: pr.P, Seed: opts.Seed, Rank: 0, Ranks: 1, Scheme: part.Name()}, 8)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Abort()
		if err := w.Reset(); err != nil {
			t.Fatal(err)
		}
		if err := w.Emit(recs[mid].key, -7); err == nil || !strings.Contains(err.Error(), "value -7 outside the run's") {
			t.Fatalf("Emit of a negative value: err = %v", err)
		}
	})
	t.Run("value past n", func(t *testing.T) {
		// The writer refuses it too; a CRC-clean shard that holds one
		// anyway fails the resume.
		b, m := crafted(t, recs)
		mustFail(t, withValue(t, b, recs[mid].key, uint64(pr.N)), m, fmt.Sprintf("slot %d holds value %d past the run's", recs[mid].key, pr.N))
	})
	t.Run("bootstrap record missing", func(t *testing.T) {
		b, m := crafted(t, recs[1:])
		mustFail(t, b, m, "bootstrap")
	})

	// The window must continue F exactly where the prefix stops, end on
	// a node boundary inside the rank's slots and hold values below n.
	x := int64(pr.X)
	window := func(start int64, vals ...int64) func(*ckpt.Snapshot) {
		return func(s *ckpt.Snapshot) {
			s.Window = ckpt.Window{Start: start}
			for _, v := range vals {
				s.Window.Append(v)
			}
		}
	}
	nills := func(n int64) []int64 {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = -1
		}
		return vs
	}
	start := snap.Window.Start
	mustFailWindow := func(t *testing.T, edit func(*ckpt.Snapshot), why string) {
		t.Helper()
		if _, err := resume(t, prefix, snap.Sink, edit); err == nil || !strings.Contains(err.Error(), why) {
			t.Fatalf("err = %v; want one saying %q", err, why)
		}
	}
	t.Run("window over an unstarted node", func(t *testing.T) {
		mustFailWindow(t, window(start, nills(x)...), fmt.Sprintf("covers local node %d, which is neither finished nor suspended", start/x))
	})
	t.Run("window past the frontier", func(t *testing.T) {
		mustFailWindow(t, window(start+x, nills(x)...), fmt.Sprintf("up to slot %d, the snapshot window starts at slot %d", start, start+x))
	})
	t.Run("window below the frontier", func(t *testing.T) {
		mustFailWindow(t, window(start-1, nills(x+1)...), fmt.Sprintf("lies at or above the snapshot window's start %d", start-1))
	})
	t.Run("window past the rank's slots", func(t *testing.T) {
		slots := part.Size(0) * x
		mustFailWindow(t, window(start, nills(slots-start+x)...), fmt.Sprintf("within the rank's %d slots", slots))
	})
	t.Run("window value past n", func(t *testing.T) {
		mustFailWindow(t, window(start, append([]int64{pr.N}, nills(x-1)...)...), fmt.Sprintf("holds value %d outside the run's", pr.N))
	})
}

// withValue returns a copy of the shard b, complete blocks only, whose
// record at slot key holds v, its block's CRC resealed
// (docs/SHARD_FORMAT.md is the layout).
func withValue(t *testing.T, b []byte, key, v uint64) []byte {
	t.Helper()
	b = append([]byte(nil), b...)
	off := len(esink.Magic)
	uv := func() uint64 {
		x, n := binary.Uvarint(b[off:])
		if n <= 0 {
			t.Fatalf("bad uvarint at shard offset %d", off)
		}
		off += n
		return x
	}
	uv()
	w := esink.ValueBits(int64(uv()))
	uv()
	off += 16
	uv()
	uv()
	off += int(uv()) + 4
	for off < len(b) && b[off] == 'B' {
		start := off
		off++
		uv()
		first, count := uv(), uv()
		pay, end := off, off+int((count*uint64(w)+7)/8)
		if key >= first && key < first+count {
			for j, bit := uint(0), (key-first)*uint64(w); j < w; j, bit = j+1, bit+1 {
				b[pay+int(bit/8)] &^= 1 << (bit % 8)
				b[pay+int(bit/8)] |= byte(v>>j&1) << (bit % 8)
			}
			binary.LittleEndian.PutUint32(b[end:], crc32.Checksum(b[start:end], crc32.MakeTable(crc32.Castagnoli)))
			return b
		}
		off = end + 4
	}
	t.Fatalf("no block holds slot %d", key)
	return nil
}

// cutEngine builds rank 1 of a three-rank checkpointed run, where a cut
// or a restore would run. The caller owns no cleanup.
func cutEngine(t *testing.T) *engine {
	t.Helper()
	pr := model.Params{N: 2_000, X: 2, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 3)
	if err != nil {
		t.Fatal(err)
	}
	group, err := transport.NewLocalGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(group.Endpoint(1), Options{Params: pr, Part: part, Seed: 1, Workers: 1,
		StreamDir: t.TempDir(), Checkpoint: &CheckpointOptions{Dir: t.TempDir(), Every: 100}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		e.ck.writer.shutdown()
		e.stream.Abort()
		for r := 0; r < 3; r++ {
			group.Endpoint(r).Close()
		}
	})
	return e
}

// A run votes on its cuts with checkpoint messages; only the resume
// negotiation runs collectives, and it owns the receive path while it
// does. A collective message that reaches the engine's handler on a
// checkpointed rank is a protocol violation reported by kind, as it is
// on a rank without checkpointing.
func TestCollectiveMessageMidRunFails(t *testing.T) {
	e := cutEngine(t)
	err := e.handle(msg.Coll(2, 5, 1))
	want := "unexpected message kind " + msg.KindColl.String()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("handle(coll) on a checkpointed rank: err = %v, want one containing %q", err, want)
	}
}

// An answer held ahead is a node id: restore refuses one outside
// [0, n) by name instead of committing it to F — −1 included, which
// version 10 snapshots used for a hub-replica miss left to the frontier.
// It refuses by name, too, what no cut records: an answer held behind its
// node's frontier edge, two answers for one slot, a waiter of a clique
// node's slot and two identical waiter records — each would hand some
// edge an answer for an attempt it no longer waits on, or a clique
// node's self-marker for an answer.
func TestRestoreRefusesAheadOutsideNodes(t *testing.T) {
	pr := model.Params{N: 6_000, X: 4, P: 0.5}
	part := mustScheme(t, partition.KindRRP, pr.N, 2)
	ckptDir, streamDir := t.TempDir(), t.TempDir()
	opts := Options{Params: pr, Part: part, Seed: 13, Workers: 1, StreamDir: streamDir,
		Checkpoint: &CheckpointOptions{Dir: ckptDir, Every: pr.N / 8, Keep: 1000}}
	if _, _, err := simGroup(2, simSched{seed: 13, deliver: 0.1}, func(int) Options { return opts }, nil); err != nil {
		t.Fatal(err)
	}
	epochs, err := ckpt.Epochs(ckptDir, 0)
	if err != nil || len(epochs) == 0 {
		t.Fatalf("%d epochs retained (err %v)", len(epochs), err)
	}
	// The newest epoch some rank's snapshot of holds an answer ahead is
	// the one to edit; the newer ones go, so a resume starts from it.
	for len(epochs) > 0 {
		top := epochs[len(epochs)-1]
		r := slices.IndexFunc([]int{0, 1}, func(r int) bool {
			s, err := ckpt.Read(ckpt.Path(ckptDir, r, top))
			return err == nil && len(s.Ahead) > 0
		})
		if r >= 0 {
			testAheadRefused(t, opts, r, top)
			return
		}
		for r := 0; r < 2; r++ {
			if err := os.Remove(ckpt.Path(ckptDir, r, top)); err != nil {
				t.Fatal(err)
			}
		}
		epochs = epochs[:len(epochs)-1]
	}
	t.Fatal("no snapshot holds an answer ahead")
}

// testAheadRefused edits rank r's snapshot of epoch top — its first
// answer held ahead to −1 and to n, an answer behind a node's frontier
// edge, a second answer for a slot, a waiter of a clique slot, a second
// identical waiter record, a waiter of one of the rank's own edges that
// an ahead record or another waiter record already answers, one of a
// finished local node and one of a node id past n —
// checks that each resume fails naming the edit, and resumes from the
// snapshot as it was.
func testAheadRefused(t *testing.T, opts Options, r int, top int64) {
	t.Helper()
	opts.Checkpoint = &CheckpointOptions{Dir: opts.Checkpoint.Dir, Keep: 1000, Resume: true}
	path := ckpt.Path(opts.Checkpoint.Dir, r, top)
	kept, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	x := int64(opts.Params.X)
	type edit struct {
		name string
		f    func(s *ckpt.Snapshot) string // edits s, returns the error it wants
	}
	edits := []edit{}
	for _, v := range []int64{-1, opts.Params.N} {
		edits = append(edits, edit{fmt.Sprintf("answer %d", v), func(s *ckpt.Snapshot) string {
			s.Ahead[0].V = v
			return fmt.Sprintf("answer %d held for slot %d", v, s.Ahead[0].Slot)
		}})
	}
	edits = append(edits,
		edit{"answer behind the frontier", func(s *ckpt.Snapshot) string {
			i := slices.IndexFunc(s.Susp, func(sr ckpt.SuspRecord) bool { return sr.Edge > 0 })
			if i < 0 {
				t.Fatal("no suspended node past its first edge")
			}
			slot := s.Susp[i].Idx*x + int64(s.Susp[i].Edge) - 1
			s.Ahead = append(s.Ahead, ckpt.AheadRecord{Slot: slot, V: 0})
			return fmt.Sprintf("answer 0 held for slot %d, behind its node's frontier edge %d", slot, s.Susp[i].Edge)
		}},
		edit{"two answers for one slot", func(s *ckpt.Snapshot) string {
			s.Ahead = append(s.Ahead, s.Ahead[0])
			return fmt.Sprintf("two answers held for slot %d", s.Ahead[0].Slot)
		}},
		edit{"a waiter of a clique slot", func(s *ckpt.Snapshot) string {
			s.Waiters = append(s.Waiters, ckpt.WaiterRecord{Slot: 0, T: 1, E: 0})
			return "waiter record for slot 0 outside the rank's queried slots"
		}},
		edit{"two identical waiter records", func(s *ckpt.Snapshot) string {
			w := ckpt.WaiterRecord{Slot: s.Ahead[0].Slot, T: 1, E: 0}
			s.Waiters = append(s.Waiters, w, w)
			return fmt.Sprintf("two waiter records of node 1's edge 0 for slot %d", w.Slot)
		}},
		edit{"a local waiter of an edge answered ahead", func(s *ckpt.Snapshot) string {
			a := s.Ahead[0]
			w := ckpt.WaiterRecord{Slot: s.Window.Start, T: opts.Part.NodeAt(r, a.Slot/x), E: uint16(a.Slot % x)}
			s.Waiters = append(s.Waiters, w)
			return fmt.Sprintf("gives local node %d's edge %d a second answer", w.T, w.E)
		}},
		edit{"two local waiters of one edge", func(s *ckpt.Snapshot) string {
			i := slices.IndexFunc(s.Susp, func(sr ckpt.SuspRecord) bool {
				return !slices.ContainsFunc(s.Ahead, func(a ckpt.AheadRecord) bool { return a.Slot == sr.Idx*x+int64(sr.Edge) })
			})
			if i < 0 {
				t.Fatal("no suspended node without an answer for its frontier edge")
			}
			w := ckpt.WaiterRecord{Slot: s.Window.Start, T: opts.Part.NodeAt(r, s.Susp[i].Idx), E: uint16(s.Susp[i].Edge)}
			s.Waiters = append(s.Waiters, w, ckpt.WaiterRecord{Slot: w.Slot + 1, T: w.T, E: w.E})
			return fmt.Sprintf("gives local node %d's edge %d a second answer", w.T, w.E)
		}},
		edit{"a local waiter of a finished node", func(s *ckpt.Snapshot) string {
			w := ckpt.WaiterRecord{Slot: s.Window.Start, T: opts.Part.NodeAt(r, s.Window.Start/x-1), E: 0}
			s.Waiters = append(s.Waiters, w)
			return fmt.Sprintf("names local node %d's edge 0, which is not outstanding", w.T)
		}},
		edit{"a waiter of no node", func(s *ckpt.Snapshot) string {
			w := ckpt.WaiterRecord{Slot: s.Window.Start, T: opts.Params.N, E: 0}
			s.Waiters = append(s.Waiters, w)
			return fmt.Sprintf("names node %d outside the run's %d nodes", w.T, opts.Params.N)
		}},
	)
	for _, ed := range edits {
		s, err := ckpt.Read(path)
		if err != nil {
			t.Fatal(err)
		}
		want := ed.f(s)
		var enc ckpt.Encoder
		if _, _, err := ckpt.WriteEncoded(opts.Checkpoint.Dir, r, top, enc.Encode(s)); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(opts, false); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("resume with %s: err = %v, want one saying %q", ed.name, err, want)
		}
		if err := os.WriteFile(path, kept, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Run(opts, false); err != nil {
		t.Fatalf("resume from the kept snapshot: %v", err)
	}
}
