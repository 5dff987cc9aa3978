package esink

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/seq"
)

// testMeta builds a single-rank UCP meta where slot key k maps to node
// k/x directly, so expected U values are easy to compute in tests.
func testMeta(n int64, x int) Meta {
	return Meta{N: n, X: x, P: 0.5, Seed: 42, Rank: 0, Ranks: 1, Scheme: "UCP"}
}

// modelRecs returns the records rank meta.Rank writes in the run meta
// describes, as seq.CopyModel generates it: every slot of the rank's
// nodes, in key order — records the format stores only where the draws
// do not reproduce them.
func modelRecs(tb testing.TB, meta Meta) []rec {
	tb.Helper()
	g, _, err := seq.CopyModel(model.Params{N: meta.N, X: meta.X, P: meta.P}, meta.Seed, seq.CopyModelOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	c := newRefCodec(meta)
	// CopyModel adds each node's edges together, nodes ascending.
	at := make([]int, meta.N+1)
	for _, e := range g.Edges {
		at[e.U+1]++
	}
	for u := int64(0); u < meta.N; u++ {
		at[u+1] += at[u]
	}
	var recs []rec
	x := uint64(meta.X)
	for idx := int64(0); idx < c.part.Size(meta.Rank); idx++ {
		u := c.part.NodeAt(meta.Rank, idx)
		for j, e := range g.Edges[at[u]:at[u+1]] {
			recs = append(recs, rec{key: uint64(idx)*x + uint64(j), v: e.V})
		}
	}
	return recs
}

// writeShard writes the given (key, v) records through a fresh writer
// with the given block size and closes it, returning the shard path.
func writeShard(t *testing.T, dir string, meta Meta, blockEdges int, recs []rec) string {
	t.Helper()
	w, err := Open(dir, meta, blockEdges)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Emit(r.key, r.v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return ShardPath(dir, meta.Rank, meta.Ranks)
}

// readAll drains a shard through a strict reader, returning edges in
// iteration order.
func readAll(t *testing.T, path string, budget int) []graph.Edge {
	t.Helper()
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	it := r.Iter(budget)
	var out []graph.Edge
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, e)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRoundtripSorted(t *testing.T) {
	const n, x = 100, 2
	meta := testMeta(n, x)
	// Emit every post-bootstrap slot key of the run, in key order as the
	// engine does; reading back must yield the same records whatever
	// the block size.
	var recs []rec
	for k := int64(x * x); k < n*x; k++ {
		recs = append(recs, rec{key: uint64(k), v: k % 7})
	}

	for _, blockEdges := range []int{3, 16, 1 << 16} {
		dir := t.TempDir()
		path := writeShard(t, dir, meta, blockEdges, recs)
		got := readAll(t, path, 1)
		if len(got) != len(recs) {
			t.Fatalf("blockEdges=%d: read %d edges, wrote %d", blockEdges, len(got), len(recs))
		}
		for i, e := range got {
			k := int64(x*x) + int64(i)
			want := graph.Edge{U: k / x, V: k % 7}
			if e != want {
				t.Fatalf("blockEdges=%d: edge %d = %+v, want %+v", blockEdges, i, e, want)
			}
		}
	}
}

func TestReaderDerivesUFromPartition(t *testing.T) {
	// A 4-rank LCP shard for rank 2: U must come from the partition, not
	// from any single-rank shortcut.
	const n, x, ranks, rank = 1000, 3, 4, 2
	meta := Meta{N: n, X: x, P: 0.5, Seed: 9, Rank: rank, Ranks: ranks, Scheme: "LCP"}
	part, err := partition.New(partition.KindLCP, n, ranks)
	if err != nil {
		t.Fatal(err)
	}
	recs := []rec{{key: 5 * x, v: 1}, {key: 5*x + 1, v: 2}, {key: 17*x + 2, v: 3}}
	dir := t.TempDir()
	path := writeShard(t, dir, meta, 2, recs)
	got := readAll(t, path, 0)
	want := []graph.Edge{
		{U: part.NodeAt(rank, 5), V: 1},
		{U: part.NodeAt(rank, 5), V: 2},
		{U: part.NodeAt(rank, 17), V: 3},
	}
	if len(got) != len(want) {
		t.Fatalf("read %d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestStrictRejectsMissingEOS(t *testing.T) {
	dir := t.TempDir()
	meta := testMeta(10, 1)
	w, err := Open(dir, meta, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 8; k++ {
		if err := w.Emit(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Abort instead of Close: complete blocks, no EOS — a crashed run.
	w.Abort()
	path := ShardPath(dir, 0, 1)
	if _, err := OpenReader(path); err == nil {
		t.Fatal("strict open accepted a shard without an end-of-stream record")
	}
	r, err := OpenReaderTolerant(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.sc.complete {
		t.Fatal("tolerant reader reports complete without EOS")
	}
	if r.Edges() != 8 {
		t.Fatalf("tolerant reader sees %d edges, want 8", r.Edges())
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	meta := testMeta(100, 1)
	var recs []rec
	for k := uint64(0); k < 50; k++ {
		recs = append(recs, rec{key: k, v: int64(k)})
	}
	path := writeShard(t, dir, meta, 8, recs)

	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop off the EOS record plus half of the final block: the reader
	// must fall back to the clean prefix (the first 5 full blocks).
	if err := os.Truncate(path, info.Size()-20); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReader(path); err == nil {
		t.Fatal("strict open accepted a torn shard")
	}
	r, err := OpenReaderTolerant(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.sc.complete {
		t.Fatal("torn shard reported complete")
	}
	if r.Edges() >= 50 || r.Edges()%8 != 0 {
		t.Fatalf("torn shard yields %d edges, want a complete-block multiple below 50", r.Edges())
	}
	it := r.Iter(0)
	for i := int64(0); i < r.Edges(); i++ {
		e, ok := it.Next()
		if !ok {
			t.Fatalf("iterator ended at edge %d of %d", i, r.Edges())
		}
		if e.U != i || e.V != i {
			t.Fatalf("edge %d = %+v", i, e)
		}
	}
	if _, ok := it.Next(); ok {
		t.Fatal("iterator yielded past the clean prefix")
	}
}

func TestCorruptBlockCRC(t *testing.T) {
	dir := t.TempDir()
	meta := testMeta(100, 1)
	var recs []rec
	for k := uint64(0); k < 32; k++ {
		recs = append(recs, rec{key: k, v: 3})
	}
	path := writeShard(t, dir, meta, 8, recs)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the last block's payload (the EOS record is the
	// trailing 7 bytes; the block's payload ends just before its 4-byte
	// CRC in front of that).
	raw[len(raw)-7-10] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReader(path); err == nil {
		t.Fatal("strict open accepted a corrupted block")
	}
	r, err := OpenReaderTolerant(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Edges() != 24 {
		t.Fatalf("tolerant reader yields %d edges past corruption, want 24 (three clean blocks)", r.Edges())
	}
}

func TestRecoverToMark(t *testing.T) {
	dir := t.TempDir()
	meta := testMeta(1000, 1)
	w, err := Open(dir, meta, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 10; k++ {
		if err := w.Emit(k, int64(k)); err != nil {
			t.Fatal(err)
		}
	}
	mark, err := w.Mark() // flushes the partial third block too
	if err != nil {
		t.Fatal(err)
	}
	if mark.Edges != 10 || mark.Blocks != 3 {
		t.Fatalf("mark = %+v, want 10 edges / 3 blocks", mark)
	}
	// Post-cut writes that the "kill" loses half of: more edges, then a
	// torn tail simulated by appending garbage.
	for k := uint64(10); k < 17; k++ {
		if err := w.Emit(k, int64(k)); err != nil {
			t.Fatal(err)
		}
	}
	w.Abort()
	path := ShardPath(dir, 0, 1)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{'B', 0x7f, 0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Recover: the shard must come back to exactly the mark.
	w2, err := Open(dir, meta, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Recover(mark); err != nil {
		t.Fatal(err)
	}
	// Resume the stream: re-emit the post-mark suffix, close cleanly.
	for k := uint64(10); k < 20; k++ {
		if err := w2.Emit(k, int64(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, path, 0)
	if len(got) != 20 {
		t.Fatalf("recovered shard has %d edges, want 20", len(got))
	}
	for i, e := range got {
		if e.U != int64(i) || e.V != int64(i) {
			t.Fatalf("edge %d = %+v", i, e)
		}
	}
}

func TestRecoverRejectsMetaMismatch(t *testing.T) {
	dir := t.TempDir()
	meta := testMeta(100, 1)
	w, err := Open(dir, meta, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.Emit(0, 1); err != nil {
		t.Fatal(err)
	}
	mark, err := w.Mark()
	if err != nil {
		t.Fatal(err)
	}
	w.Abort()
	other := meta
	other.Seed = 43
	w2, err := Open(dir, other, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Recover(mark); err == nil {
		t.Fatal("Recover accepted a shard from a different run")
	}
	w2.Abort()
}

func TestRecoverRejectsShortShard(t *testing.T) {
	dir := t.TempDir()
	meta := testMeta(100, 1)
	w, err := Open(dir, meta, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 8; k++ {
		if err := w.Emit(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	mark, err := w.Mark()
	if err != nil {
		t.Fatal(err)
	}
	w.Abort()
	// Truncate below the mark: the durable prefix the checkpoint named
	// is gone, so Recover must refuse (resume would drop edges).
	if err := os.Truncate(ShardPath(dir, 0, 1), mark.Offset-3); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, meta, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Recover(mark); err == nil {
		t.Fatal("Recover accepted a shard shorter than its mark")
	}
	w2.Abort()
}

func TestDirReaderMergesRankMajor(t *testing.T) {
	const n, x, ranks = 40, 1, 2
	dir := t.TempDir()
	part, err := partition.New(partition.KindUCP, n, ranks)
	if err != nil {
		t.Fatal(err)
	}
	var want []graph.Edge
	for r := 0; r < ranks; r++ {
		meta := Meta{N: n, X: x, P: 0, Seed: 7, Rank: r, Ranks: ranks, Scheme: "UCP"}
		var recs []rec
		for i := int64(0); i < 5; i++ {
			recs = append(recs, rec{key: uint64(i), v: int64(r*10) + i})
			want = append(want, graph.Edge{U: part.NodeAt(r, i), V: int64(r*10) + i})
		}
		writeShard(t, dir, meta, 2, recs)
	}
	d, err := OpenDir(dir, ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Edges() != int64(len(want)) {
		t.Fatalf("DirReader sees %d edges, want %d", d.Edges(), len(want))
	}
	it := d.Iter(0)
	for i, w := range want {
		e, ok := it.Next()
		if !ok {
			t.Fatalf("merged stream ended at edge %d", i)
		}
		if e != w {
			t.Fatalf("merged edge %d = %+v, want %+v", i, e, w)
		}
	}
	if _, ok := it.Next(); ok {
		t.Fatal("merged stream yielded extra edges")
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDirRejectsMixedRuns(t *testing.T) {
	dir := t.TempDir()
	writeShard(t, dir, Meta{N: 10, X: 1, P: 0, Seed: 1, Rank: 0, Ranks: 2, Scheme: "UCP"}, 4, []rec{{0, 1}})
	writeShard(t, dir, Meta{N: 10, X: 1, P: 0, Seed: 2, Rank: 1, Ranks: 2, Scheme: "UCP"}, 4, []rec{{0, 1}})
	if _, err := OpenDir(dir, 2); err == nil {
		t.Fatal("OpenDir accepted shards with different seeds")
	}
}

func TestWriteBinaryStreamMatchesInMemory(t *testing.T) {
	// The streamed PAGB export must be byte-identical to WriteBinary on
	// the same edges.
	const n = 30
	dir := t.TempDir()
	meta := testMeta(n, 1)
	var recs []rec
	g := graph.New(n)
	for k := int64(1); k < n; k++ {
		v := k / 2
		recs = append(recs, rec{key: uint64(k), v: v})
		g.AddEdge(k, v)
	}
	path := writeShard(t, dir, meta, 4, recs)
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var streamed, inMem bytes.Buffer
	if err := graph.WriteBinaryStream(&streamed, n, r.Edges(), r.Iter(0)); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(&inMem, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), inMem.Bytes()) {
		t.Fatal("WriteBinaryStream output differs from WriteBinary")
	}
}

func TestShardPath(t *testing.T) {
	got := ShardPath("out", 3, 8)
	want := filepath.Join("out", "shard-3-of-8.pags")
	if got != want {
		t.Fatalf("ShardPath = %q, want %q", got, want)
	}
}

// Opening a shard fsyncs its directory once the file exists, so a shard
// created by this run keeps its name across a power loss; a failed
// directory sync fails Open.
func TestShardOpenSyncsDir(t *testing.T) {
	dir := t.TempDir()
	defer func(orig func(string) error) { syncDir = orig }(syncDir)
	meta := testMeta(100, 2)
	var synced []string
	syncDir = func(d string) error {
		synced = append(synced, d)
		if _, err := os.Stat(ShardPath(dir, meta.Rank, meta.Ranks)); err != nil {
			t.Errorf("directory synced before the shard was created: %v", err)
		}
		return nil
	}
	w, err := Open(dir, meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("synced %q, want the shard directory once", synced)
	}

	syncDir = func(string) error { return os.ErrPermission }
	if _, err := Open(dir, meta, 0); err == nil {
		t.Fatal("Open with a failing directory sync succeeded")
	}
}
