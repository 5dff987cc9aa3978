package esink

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
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

// recoverPrefix scans the shard of meta under dir, recovers it to the
// end of the clean block prefix the scan kept, and returns that mark,
// the records Recover hands back and the damage the scan met.
func recoverPrefix(t *testing.T, dir string, meta Meta) (Mark, []rec, error) {
	t.Helper()
	f, err := os.Open(ShardPath(dir, meta.Rank, meta.Ranks))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scanShard(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	mark := Mark{Offset: sc.headerLen, Blocks: int64(len(sc.blocks)), Edges: sc.edges}
	if n := len(sc.blocks); n > 0 {
		mark.Offset = sc.blocks[n-1].off + sc.blocks[n-1].size
	}
	w, err := Open(dir, meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	it, err := w.Recover(mark)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := slots(it)
	if err != nil {
		t.Fatal(err)
	}
	return mark, recs, sc.damage
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
	_, recs, damage := recoverPrefix(t, dir, meta)
	if damage == nil {
		t.Fatal("the scan reports no damage without EOS")
	}
	if len(recs) != 8 {
		t.Fatalf("Recover keeps %d edges, want 8", len(recs))
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
	mark, got, damage := recoverPrefix(t, dir, meta)
	if damage == nil {
		t.Fatal("the scan reports no damage in a torn shard")
	}
	if mark.Edges >= 50 || mark.Edges%8 != 0 || int64(len(got)) != mark.Edges {
		t.Fatalf("torn shard keeps %d edges and yields %d, want a complete-block multiple below 50", mark.Edges, len(got))
	}
	for i, r := range got {
		if r != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, r, recs[i])
		}
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
	if _, got, _ := recoverPrefix(t, dir, meta); len(got) != 24 {
		t.Fatalf("Recover keeps %d edges before the corruption, want 24 (three clean blocks)", len(got))
	}
}

// TestScanDamageEveryByte: one walk decides every damaged shard. A small
// finished shard of several blocks is cut at every byte offset and has
// one byte flipped in each block's payload or CRC: OpenReader refuses
// each copy with the message of the damage the scan meets first, and
// Recover at every block-boundary mark at or below the damage keeps
// exactly the blocks before the mark — the records they hold, and the
// file cut to the mark — while a mark past the damage is refused.
func TestScanDamageEveryByte(t *testing.T) {
	meta := Meta{N: 200, X: 2, P: 0.5, Seed: 1, Rank: 0, Ranks: 1, Scheme: "UCP"}
	recs := modelRecs(t, meta)[:40]
	finished := writeShard(t, t.TempDir(), meta, 7, recs)
	whole, err := os.ReadFile(finished)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(finished)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scanShard(f)
	f.Close()
	if err != nil || sc.damage != nil || len(sc.blocks) < 5 {
		t.Fatalf("the finished shard scans to %d blocks, err %v, damage %v; want 5 or more, clean", len(sc.blocks), err, sc.damage)
	}
	// marks[i] ends the first i blocks; kept[i] are their records.
	marks := []Mark{{Offset: sc.headerLen}}
	kept := [][]rec{nil}
	for i, b := range sc.blocks {
		marks = append(marks, Mark{Offset: b.off + b.size, Blocks: int64(i + 1), Edges: marks[i].Edges + b.count})
		kept = append(kept, recs[:marks[i+1].Edges])
	}
	eos := marks[len(marks)-1].Offset

	// check writes data, expects OpenReader to refuse it saying want,
	// and Recover to keep the blocks before every mark at or below
	// damage and to refuse every mark past it.
	check := func(label string, data []byte, damage int64, want string) {
		t.Helper()
		refusal := "durable prefix"
		if damage < sc.headerLen {
			refusal = want
		}
		dir := t.TempDir()
		path := ShardPath(dir, 0, 1)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := OpenReader(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: OpenReader %v, err %v; want a refusal saying %q", label, r, err, want)
		}
		for i, m := range marks {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			w, err := Open(dir, meta, 7)
			if err != nil {
				t.Fatal(err)
			}
			it, err := w.Recover(m)
			switch {
			case m.Offset > damage:
				if err == nil || !strings.Contains(err.Error(), refusal) {
					t.Fatalf("%s: Recover past the damage at %d to %+v: err %v", label, damage, m, err)
				}
			case err != nil:
				t.Fatalf("%s: Recover to %+v: %v", label, m, err)
			default:
				got, err := slots(it)
				if err != nil || !slices.Equal(got, kept[i]) {
					t.Fatalf("%s: Recover to %+v kept %d records (err %v), want the %d before it", label, m, len(got), err, len(kept[i]))
				}
				if fi, err := os.Stat(path); err != nil || fi.Size() != m.Offset {
					t.Fatalf("%s: Recover to %+v left the file at %v bytes (err %v)", label, m, fi.Size(), err)
				}
			}
			w.Abort()
		}
	}
	for c := int64(0); c < int64(len(whole)); c++ {
		want := "shard header"
		switch {
		case c < sc.headerLen:
		case c == eos || slices.ContainsFunc(sc.blocks, func(b blockInfo) bool { return b.off == c }):
			want = fmt.Sprintf("shard ends without end-of-stream record (torn tail at offset %d)", c)
		case c > eos:
			want = fmt.Sprintf("torn end-of-stream record at offset %d", eos)
		default:
			i := slices.IndexFunc(sc.blocks, func(b blockInfo) bool { return c < b.off+b.size })
			b := sc.blocks[i]
			want = fmt.Sprintf("torn or corrupted block at offset %d", b.off)
			if c >= b.payOff && c < b.payOff+b.payLen {
				want = fmt.Sprintf("block at offset %d claims %d payload bytes", b.off, b.payLen)
			}
		}
		check(fmt.Sprintf("cut at %d", c), whole[:c], c, want)
	}
	for _, b := range sc.blocks {
		bad := slices.Clone(whole)
		bad[b.payOff+(b.payLen+4)/2] ^= 0x20
		check(fmt.Sprintf("block at %d flipped", b.off), bad, b.off, fmt.Sprintf("torn or corrupted block at offset %d", b.off))
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
	it, err := w2.Recover(mark)
	if err != nil {
		t.Fatal(err)
	}
	if kept, err := slots(it); err != nil || len(kept) != 10 || kept[9] != (rec{9, 9}) {
		t.Fatalf("Recover hands back %v (err %v), want the 10 records before the mark", kept, err)
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
	if _, err := w2.Recover(mark); err == nil {
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
	if _, err := w2.Recover(mark); err == nil {
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
