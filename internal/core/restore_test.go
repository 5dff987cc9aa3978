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
	"pagen/internal/partition"
	"pagen/internal/seq"
	"pagen/internal/transport"
	"pagen/internal/xrand"
)

// streamedLibrary runs a streamed, checkpointed generation that keeps
// every epoch and returns the epochs rank 0 holds. The epoch count is
// schedule-bound, so it retries across intervals until one published.
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

// shardSlots reads a finished shard's records back as a flat table (-1
// where the shard holds no record).
func shardSlots(t *testing.T, path string, slots int64) []int64 {
	t.Helper()
	r, err := esink.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	return iterSlots(t, r.Iter(0), slots)
}

// iterSlots drains it into a flat table of slots entries, -1 where it
// yields no record.
func iterSlots(t *testing.T, it *esink.Iter, slots int64) []int64 {
	t.Helper()
	f := make([]int64, slots)
	for i := range f {
		f[i] = -1
	}
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

// resumedEngine positions rank's engine where run calls restore, and
// returns it with the snapshot: the epoch's snapshot loaded (the rank's
// newest when epoch is 0), bootstrap done. The caller owns no cleanup.
func resumedEngine(t *testing.T, opts Options, rank int, epoch int64) (*engine, *ckpt.Snapshot) {
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
	var snap *ckpt.Snapshot
	if epoch == 0 {
		snap, _, err = ckpt.Latest(opts.Checkpoint.Dir, rank)
	} else {
		snap, err = ckpt.Read(ckpt.Path(opts.Checkpoint.Dir, rank, epoch))
	}
	if err != nil || snap == nil {
		t.Fatalf("rank %d epoch %d: no snapshot (err %v)", rank, epoch, err)
	}
	e.bootstrap()
	return e, snap
}

// bootRecords is the number of shard records of rank r's bootstrap
// nodes: t for a clique node t < x, x for node x.
func bootRecords(part partition.Scheme, r int, x int64) int64 {
	var n int64
	for t := int64(0); t <= x; t++ {
		if part.Owner(t) == r {
			n += t
		}
	}
	return n
}

// The restore property: whatever the scheme, rank count, x and shard
// block size, every retained epoch of a streamed run restores from its
// snapshot plus the marked shard prefix alone — the prefix ends on a node
// boundary, the rebuilt table holds every slot below it with its final
// value and nothing above it but bootstrap's nodes, left as bootstrap
// wrote them, the cursor sits at the frontier's node and unresolved
// counts exactly the NILL slots — and the resumed run completes the
// sequential model's graph. Each step drops every rank's newest epoch, so
// ranks step back through their own epochs independently.
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
	ckptDir, streamDir, _ := streamedLibrary(t, opts)
	opts.StreamDir = streamDir
	opts.Checkpoint = &CheckpointOptions{Dir: ckptDir, Keep: 1000, Resume: true}
	sameEdgeSet(t, "uninterrupted", streamEdges(t, streamDir, ranks), want)

	x64 := int64(x)
	final := make([][]int64, ranks)
	for r := range final {
		final[r] = shardSlots(t, esink.ShardPath(streamDir, r, ranks), part.Size(r)*x64)
	}

	for step := 0; ; step++ {
		// Tear the tails as a crash would have.
		for r := 0; r < ranks; r++ {
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
			if len(rankEpochs(t, ckptDir, r)) == 0 {
				continue
			}
			e, snap := resumedEngine(t, opts, r, 0)
			boot := ftabSlots(e.f)
			if err := e.restore(snap); err != nil {
				t.Fatalf("step %d rank %d epoch %d: %v", step, r, snap.Epoch, err)
			}
			label := fmt.Sprintf("step %d rank %d epoch %d", step, r, snap.Epoch)
			if e.frontier%x64 != 0 || e.cursor != e.frontier/x64 {
				t.Fatalf("%s: frontier %d, cursor %d: not a node boundary and its node", label, e.frontier, e.cursor)
			}
			var below, nills int64
			for s, v := range ftabSlots(e.f) {
				switch {
				case part.NodeAt(r, int64(s)/x64) <= x64:
					if v != boot[s] {
						t.Fatalf("%s: bootstrap slot %d changed %d -> %d", label, s, boot[s], v)
					}
				case int64(s) >= e.frontier:
					if v != -1 {
						t.Fatalf("%s: slot %d at or above the frontier %d holds %d", label, s, e.frontier, v)
					}
					nills++
				case v != final[r][s]:
					t.Fatalf("%s: slot %d restored as %d, finished table holds %d", label, s, v, final[r][s])
				default:
					below++
				}
			}
			if got := below + bootRecords(part, r, x64); got != snap.Sink.Edges {
				t.Fatalf("%s: %d resolved below the frontier + %d bootstrap records, mark says %d", label, below, bootRecords(part, r, x64), snap.Sink.Edges)
			}
			if e.unresolved != nills {
				t.Fatalf("%s: unresolved %d, the table holds %d NILL slots", label, e.unresolved, nills)
			}
		}

		if _, err := Run(opts, false); err != nil {
			t.Fatalf("resume at step %d: %v", step, err)
		}
		sameEdgeSet(t, fmt.Sprintf("resumed at step %d", step), streamEdges(t, streamDir, ranks), want)
		if !dropEachNewest(t, ckptDir, ranks) {
			return
		}
	}
}

// A snapshot is the run's identity, the rank's counters and its sink
// mark: a few dozen bytes whatever n, the rank count or how far the
// ranks drift apart — it holds no records and no window.
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
				t.Fatalf("ranks=%d: rank %d published no epoch", ranks, st.Rank)
			}
			if per := st.CkptBytes / st.CkptEpochs; per > 128 {
				t.Errorf("ranks=%d: rank %d wrote %d snapshot bytes per epoch, want at most 128", ranks, st.Rank, per)
			}
			for _, ep := range rankEpochs(t, ckptDir, st.Rank) {
				path := ckpt.Path(ckptDir, st.Rank, ep)
				if fi, err := os.Stat(path); err != nil || fi.Size() > 128 {
					t.Errorf("%s: %v bytes (err %v), want at most 128", path, fi.Size(), err)
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
	resume := func(t *testing.T, shard []byte, mark ckpt.SinkMark) (string, error) {
		t.Helper()
		ck, st := t.TempDir(), t.TempDir()
		path := esink.ShardPath(st, 0, 1)
		if err := os.WriteFile(path, shard, 0o644); err != nil {
			t.Fatal(err)
		}
		s := *snap
		s.Sink = mark
		if _, _, err := ckpt.WriteEncoded(ck, s.Meta.Rank, s.Epoch, ckpt.Encode(&s)); err != nil {
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
		w, err := esink.Open(dir, esink.Meta{N: pr.N, X: pr.X, P: pr.P, Seed: opts.Seed, Rank: 0, Ranks: 1, Scheme: part.Name()}, 8)
		if err != nil {
			t.Fatal(err)
		}
		it, err := w.Recover(esink.Mark{Offset: snap.Sink.Offset, Blocks: snap.Sink.Blocks, Edges: snap.Sink.Edges})
		if err != nil {
			t.Fatal(err)
		}
		for s, v := range iterSlots(t, it, part.Size(0)*int64(pr.X)) {
			if v >= 0 {
				recs = append(recs, rec{uint64(s), v})
			}
		}
		w.Abort()
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
		if _, err := w.Recover(esink.Mark{Offset: m.Offset, Blocks: m.Blocks, Edges: m.Edges}); err != nil {
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
		// anyway fails the resume. The slot is one whose value the
		// block stores.
		stored := storedSlots(pr, part, opts.Seed)
		at := mid
		for !stored(recs[at].key) {
			at++
		}
		b, m := crafted(t, recs)
		mustFail(t, withValue(t, b, stored, recs[at].key, uint64(pr.N)), m, fmt.Sprintf("slot %d holds value %d past the run's", recs[at].key, pr.N))
	})
	t.Run("bootstrap record missing", func(t *testing.T) {
		b, m := crafted(t, recs[1:])
		mustFail(t, b, m, "bootstrap")
	})

	// The prefix must hold every slot of the nodes below a node boundary.
	x := int64(pr.X)
	t.Run("prefix ending inside a node", func(t *testing.T) {
		b, m := crafted(t, recs[:len(recs)-1])
		last := int64(recs[len(recs)-2].key)
		mustFail(t, b, m, fmt.Sprintf("prefix resolves F up to slot %d and holds slot %d", last+1, last))
		if (last+1)%x == 0 {
			t.Fatalf("slot %d opens a node; the case needs a prefix that stops inside one", last+1)
		}
	})
	t.Run("gap below the last record", func(t *testing.T) {
		b, m := crafted(t, append(slices.Clone(recs[:mid]), recs[mid+1:]...))
		mustFail(t, b, m, fmt.Sprintf("prefix resolves F up to slot %d and holds slot %d", recs[mid].key, recs[len(recs)-1].key))
	})
}

// storedSlots reports whether a one-rank shard of the run stores the
// value of slot key: a bootstrap row's slot, or one whose first attempt
// is a copy (docs/SHARD_FORMAT.md).
func storedSlots(pr model.Params, part partition.Scheme, seed uint64) func(key uint64) bool {
	return func(key uint64) bool {
		x := uint64(pr.X)
		t := part.NodeAt(0, int64(key/x))
		if t <= int64(x) {
			return true
		}
		d := pr.NewDrawer(t)
		var rng xrand.Rand
		return !d.Attempt(&rng, seed, int(key%x), 0).Direct
	}
}

// withValue returns a copy of the shard b, complete blocks only, whose
// record at slot key — a slot whose value the block stores — holds v,
// its block's CRC resealed (docs/SHARD_FORMAT.md is the layout).
func withValue(t *testing.T, b []byte, stored func(key uint64) bool, key, v uint64) []byte {
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
		first, count, explicit, exceptions := uv(), uv(), uv(), uv()
		pay := off
		end := off + int((explicit*uint64(w)+7)/8) + int((exceptions*uint64(esink.ValueBits(int64(count))+w)+7)/8)
		if key >= first && key < first+count {
			j := uint64(0) // key's value is the block's j-th
			for k := first; k < key; k++ {
				if stored(k) {
					j++
				}
			}
			for i, bit := uint(0), j*uint64(w); i < w; i, bit = i+1, bit+1 {
				b[pay+int(bit/8)] &^= 1 << (bit % 8)
				b[pay+int(bit/8)] |= byte(v>>i&1) << (bit % 8)
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
