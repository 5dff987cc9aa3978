package esink_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pagen"
	"pagen/internal/esink"
	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/seq"
)

// download writes the PAGB graph of the ranks shards under dir: through
// the block lanes when lanes is set, else through Iter one edge at a
// time (the DirIter hidden behind a plain EdgeIterator).
func download(dir string, ranks int, lanes bool) ([]byte, error) {
	d, err := esink.OpenDir(dir, ranks)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	var it graph.EdgeIterator = d.Iter(0)
	if !lanes {
		it = struct{ graph.EdgeIterator }{it}
	}
	var b bytes.Buffer
	err = graph.WriteBinaryStream(&b, d.Meta().N, d.Edges(), it)
	return b.Bytes(), err
}

// TestDownloadMatchesIter: a streamed run's download through the block
// lanes is byte-identical to the one-lane Iter path and to the file the
// same run writes in memory, across rank counts, schemes, block sizes
// down to one record, and one or two lanes.
func TestDownloadMatchesIter(t *testing.T) {
	for _, procs := range []int{1, 2} {
		for _, ranks := range []int{1, 2, 3} {
			for _, scheme := range []string{"RRP", "UCP"} {
				for _, block := range []int{1, 7, 0} {
					t.Run(fmt.Sprintf("procs%d/ranks%d/%s/block%d", procs, ranks, scheme, block), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						cfg := pagen.Config{N: 3000, X: 3, Ranks: ranks, Workers: 1, Seed: 5, Scheme: scheme}
						mem, err := pagen.Generate(cfg)
						if err != nil {
							t.Fatal(err)
						}
						var want bytes.Buffer
						if err := graph.WriteBinary(&want, mem.Graph); err != nil {
							t.Fatal(err)
						}
						cfg.StreamDir, cfg.StreamBlockEdges = t.TempDir(), block
						if _, err := pagen.Generate(cfg); err != nil {
							t.Fatal(err)
						}
						viaIter, err := download(cfg.StreamDir, ranks, false)
						if err != nil {
							t.Fatal(err)
						}
						viaLanes, err := download(cfg.StreamDir, ranks, true)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(viaIter, want.Bytes()) {
							t.Fatalf("Iter download: %d bytes that differ from the in-memory run's %d", len(viaIter), want.Len())
						}
						if !bytes.Equal(viaLanes, want.Bytes()) {
							t.Fatalf("lane download: %d bytes that differ from the in-memory run's %d", len(viaLanes), want.Len())
						}
					})
				}
			}
		}
	}
}

// writeRun writes the shards of a ranks-rank RRP run of n nodes and x
// edges a node, the records seq.CopyModel makes of each rank's slots
// under the shards' own (n, x, p, seed), in blocks of blockEdges records
// (0 for the default).
func writeRun(tb testing.TB, dir string, n int64, x, ranks, blockEdges int) {
	tb.Helper()
	pr := model.Params{N: n, X: x, P: 0.5}
	g, _, err := seq.CopyModel(pr, 1, seq.CopyModelOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	part, err := partition.New(partition.KindRRP, n, ranks)
	if err != nil {
		tb.Fatal(err)
	}
	// CopyModel adds each node's edges together, nodes ascending.
	at := make([]int, n+1)
	for _, e := range g.Edges {
		at[e.U+1]++
	}
	for u := int64(0); u < n; u++ {
		at[u+1] += at[u]
	}
	for r := 0; r < ranks; r++ {
		w, err := esink.Open(dir, esink.Meta{N: n, X: x, P: pr.P, Seed: 1, Rank: r, Ranks: ranks, Scheme: "RRP"}, blockEdges)
		if err != nil {
			tb.Fatal(err)
		}
		if err := w.Reset(); err != nil {
			tb.Fatal(err)
		}
		for idx := int64(0); idx < part.Size(r); idx++ {
			u := part.NodeAt(r, idx)
			for j, e := range g.Edges[at[u]:at[u+1]] {
				if err := w.Emit(uint64(idx)*uint64(x)+uint64(j), e.V); err != nil {
					tb.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestDownloadAllocsBounded: a two-rank download on two lanes — opening
// the shards, the lanes' windows and the writer's ring — allocates at
// most 1.25 MiB whatever n.
func TestDownloadAllocsBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, n := range []int64{1e5, 1e6} {
		dir := t.TempDir()
		writeRun(t, dir, n, 4, 2, 0)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		d, err := esink.OpenDir(dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		err = graph.WriteBinaryStream(io.Discard, n, d.Edges(), d.Iter(0))
		d.Close()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1280<<10 {
			t.Errorf("n = %d: the download allocated %d bytes, want at most 1.25 MiB", n, grew)
		}
	}
}

// BenchmarkDownload measures the download of a two-rank run at n = 10⁶,
// x = 4 into a file, through the block lanes and through Iter.
func BenchmarkDownload(b *testing.B) {
	const n, x = 1_000_000, 4
	dir := b.TempDir()
	writeRun(b, dir, n, x, 2, 0)
	out := filepath.Join(b.TempDir(), "g.bin")
	for _, lanes := range []bool{true, false} {
		b.Run(fmt.Sprintf("lanes=%v", lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := esink.OpenDir(dir, 2)
				if err != nil {
					b.Fatal(err)
				}
				f, err := os.Create(out)
				if err != nil {
					b.Fatal(err)
				}
				var it graph.EdgeIterator = d.Iter(0)
				if !lanes {
					it = struct{ graph.EdgeIterator }{it}
				}
				err = graph.WriteBinaryStream(f, n, d.Edges(), it)
				d.Close()
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*x), "ns/edge")
		})
	}
}
