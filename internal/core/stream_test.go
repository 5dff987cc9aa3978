package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pagen/internal/ckpt"
	"pagen/internal/esink"
	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/partition"
)

// streamEdges reads back the merged canonical edge stream of a streamed
// run's shard directory.
func streamEdges(t *testing.T, dir string, ranks int) []graph.Edge {
	t.Helper()
	g, err := esink.ReadGraph(dir, ranks)
	if err != nil {
		t.Fatal(err)
	}
	return g.Edges
}

// The core streaming property: a run with StreamDir set produces, after
// the shard merge, exactly the edge list the in-memory path produces —
// across rank counts, worker counts, and tiny block sizes that force
// many partial sorted blocks per shard.
func TestStreamMatchesInMemory(t *testing.T) {
	pr := model.Params{N: 8_000, X: 2, P: 0.5}
	for _, ranks := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("ranks=%d_workers=%d", ranks, workers), func(t *testing.T) {
				part, err := partition.New(partition.KindRRP, pr.N, ranks)
				if err != nil {
					t.Fatal(err)
				}
				base, err := Run(Options{Params: pr, Part: part, Seed: 21, Workers: workers}, false)
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				res, err := Run(Options{
					Params: pr, Part: part, Seed: 21, Workers: workers,
					StreamDir: dir, StreamBlockEdges: 512,
				}, false)
				if err != nil {
					t.Fatal(err)
				}
				if res.Graph != nil {
					t.Fatal("streamed run returned an in-memory graph")
				}
				for _, st := range res.Ranks {
					if st.SinkBlocks < 1 || st.SinkBytes <= 0 {
						t.Fatalf("rank %d: blocks=%d bytes=%d, want positive", st.Rank, st.SinkBlocks, st.SinkBytes)
					}
				}
				equalEdges(t, t.Name(), streamEdges(t, dir, ranks), base.Graph.Edges)

				// Re-running into the same directory must discard the
				// stale shards (Reset) and reproduce the same output.
				if _, err := Run(Options{
					Params: pr, Part: part, Seed: 21, Workers: workers,
					StreamDir: dir, StreamBlockEdges: 512,
				}, false); err != nil {
					t.Fatal(err)
				}
				equalEdges(t, t.Name()+"/rerun", streamEdges(t, dir, ranks), base.Graph.Edges)
			})
		}
	}
}

// x = 1 output is a pure function of (n, p, seed): read back from disk,
// streamed runs at any rank count and scheme attach every node exactly
// where the one-rank in-memory run does.
func TestStreamMatchesInMemoryX1(t *testing.T) {
	pr := model.Params{N: 2_000, X: 1, P: 0.5}
	one, err := partition.New(partition.KindUCP, pr.N, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(Options{Params: pr, Part: one, Seed: 9}, false)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int64]int64, len(base.Graph.Edges))
	for _, e := range base.Graph.Edges {
		want[e.U] = e.V
	}
	for _, c := range []struct {
		kind  partition.Kind
		ranks int
	}{{partition.KindUCP, 3}, {partition.KindLCP, 2}, {partition.KindRRP, 4}} {
		part, err := partition.New(c.kind, pr.N, c.ranks)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, err := Run(Options{Params: pr, Part: part, Seed: 9, StreamDir: dir}, false); err != nil {
			t.Fatal(err)
		}
		got := streamEdges(t, dir, c.ranks)
		if int64(len(got)) != pr.M() {
			t.Fatalf("%s/%d ranks: %d edges on disk, want %d", part.Name(), c.ranks, len(got), pr.M())
		}
		for _, e := range got {
			if want[e.U] != e.V {
				t.Fatalf("%s/%d ranks: F_%d on disk %d, in memory %d", part.Name(), c.ranks, e.U, e.V, want[e.U])
			}
		}
	}
}

// A shard directory that cannot be created fails the run up front —
// before any rank starts (a rank's failure would read "core: rank N:")
// — and leaves no file behind.
func TestStreamDirUnwritable(t *testing.T) {
	pr := model.Params{N: 1_000, X: 3, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 2)
	if err != nil {
		t.Fatal(err)
	}
	parent := t.TempDir()
	blocker := filepath.Join(parent, "not-a-dir")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Run(Options{Params: pr, Part: part, Seed: 1, StreamDir: filepath.Join(blocker, "shards")}, false)
	if err == nil || !strings.HasPrefix(err.Error(), "core: stream dir:") {
		t.Fatalf("err = %v, want the up-front stream dir error", err)
	}
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "not-a-dir" {
		t.Fatalf("run left files behind: %v", entries)
	}
}

// The headline restart property for streamed runs: kill after any
// published epoch — with the torn shard tail a kill mid-flush leaves —
// and the resumed run's merged shards are identical edge-for-edge to an
// uninterrupted run. Exercised at 2 and 4 ranks.
func TestStreamCheckpointResume(t *testing.T) {
	pr := model.Params{N: 20_000, X: 3, P: 0.5}
	for _, ranks := range []int{2, 4} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			newPart := func() partition.Scheme {
				part, err := partition.New(partition.KindRRP, pr.N, ranks)
				if err != nil {
					t.Fatal(err)
				}
				return part
			}
			base, err := Run(Options{Params: pr, Part: newPart(), Seed: 7, Workers: 2}, false)
			if err != nil {
				t.Fatal(err)
			}

			// Build the snapshot library. The epoch count is schedule-bound
			// (each epoch costs a pause, and a fast run can end before a
			// second trigger is looked at), so retry across a spread of
			// intervals until at least two epochs published.
			var ckptDir, streamDir string
			var epochs []int64
			for _, every := range []int64{2000, 1500, 1000, 500, 250, 2000, 1500, 1000, 500, 250} {
				ckptDir, streamDir = t.TempDir(), t.TempDir()
				if _, err := Run(Options{
					Params: pr, Part: newPart(), Seed: 7, Workers: 2,
					StreamDir: streamDir, StreamBlockEdges: 512,
					Checkpoint: &CheckpointOptions{Dir: ckptDir, Every: every, Keep: 1000},
				}, false); err != nil {
					t.Fatal(err)
				}
				var err error
				if epochs, err = ckpt.Epochs(ckptDir, 0); err != nil {
					t.Fatal(err)
				}
				if len(epochs) >= 2 {
					break
				}
			}
			if len(epochs) < 2 {
				t.Fatalf("only %d epochs published across all retry intervals", len(epochs))
			}
			equalEdges(t, "uninterrupted streamed", streamEdges(t, streamDir, ranks), base.Graph.Edges)

			resume := func(label string, workers int) {
				res, err := Run(Options{
					Params: pr, Part: newPart(), Seed: 7, Workers: workers,
					StreamDir: streamDir, StreamBlockEdges: 512,
					Checkpoint: &CheckpointOptions{Dir: ckptDir, Keep: 1000, Resume: true},
				}, false)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Graph != nil {
					t.Fatalf("%s: streamed resume returned an in-memory graph", label)
				}
				equalEdges(t, label, streamEdges(t, streamDir, ranks), base.Graph.Edges)
			}

			// tear simulates the kill's torn tail: garbage appended past
			// the durable prefix, which Recover must scan past and drop.
			tear := func() {
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
			}

			// Newest epochs, same and different worker counts.
			tear()
			resume("newest workers=2", 2)
			resume("newest workers=1", 1)

			// Every earlier epoch, trimming each rank's snapshots as a
			// crash would have, tearing the shard tails each time.
			for step := 1; dropEachNewest(t, ckptDir, ranks); step++ {
				tear()
				resume(fmt.Sprintf("%d epochs back", step), 2)
			}

			// With every snapshot gone, Resume must fall back to a fresh
			// streamed run (Reset discards the stale shards).
			resume("empty dir fresh start", 2)
		})
	}
}

// A resume must find the shard its snapshots mark. Resuming with another
// StreamDir than the checkpointed run's — none, which streams under the
// checkpoint directory, included — fails loudly in the shard recovery
// rather than regenerating edges the first shard already holds.
func TestStreamResumeModeMismatch(t *testing.T) {
	pr := model.Params{N: 6_000, X: 3, P: 0.5}
	part, err := partition.New(partition.KindUCP, pr.N, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(streamDir, ckptDir string, resume bool) error {
		_, err := Run(Options{
			Params: pr, Part: part, Seed: 4, Workers: 1,
			StreamDir:  streamDir,
			Checkpoint: &CheckpointOptions{Dir: ckptDir, Every: 500, Resume: resume},
		}, false)
		return err
	}

	streamedCkpt := t.TempDir()
	if err := run(t.TempDir(), streamedCkpt, false); err != nil {
		t.Fatal(err)
	}
	if epochs, err := ckpt.Epochs(streamedCkpt, 0); err != nil || len(epochs) == 0 {
		t.Fatalf("streamed run published no epochs (err=%v)", err)
	}
	if err := run("", streamedCkpt, true); err == nil || !strings.Contains(err.Error(), "recover") {
		t.Fatalf("resume without the snapshots' StreamDir: err = %v, want a shard recovery failure", err)
	}

	plainCkpt := t.TempDir()
	if err := run("", plainCkpt, false); err != nil {
		t.Fatal(err)
	}
	if err := run(t.TempDir(), plainCkpt, true); err == nil || !strings.Contains(err.Error(), "recover") {
		t.Fatalf("resume with a StreamDir the snapshots never marked: err = %v, want a shard recovery failure", err)
	}
}

// StreamDir and Sink are mutually exclusive edge destinations.
func TestStreamSinkExclusive(t *testing.T) {
	pr := model.Params{N: 1_000, X: 3, P: 0.5}
	part, err := partition.New(partition.KindUCP, pr.N, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Options{
		Params: pr, Part: part, Seed: 1,
		Sink:      func(int, graph.Edge) {},
		StreamDir: t.TempDir(),
	}, false)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v, want mutual-exclusion error", err)
	}
}
