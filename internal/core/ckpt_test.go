package core

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"pagen/internal/ckpt"
	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/seq"
	"pagen/internal/transport"
)

// equalEdges compares two edge lists element for element — the in-core
// analogue of the CLI fingerprint check, since collectEdges emits a
// deterministic order for a fixed (params, seed, partition).
func equalEdges(t *testing.T, label string, got, want []graph.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d is (%d,%d), want (%d,%d)",
				label, i, got[i].U, got[i].V, want[i].U, want[i].V)
		}
	}
}

// A checkpointed run must produce exactly the sequential edge set while
// actually committing epochs along the way, and the per-rank stats must
// report them.
func TestCheckpointRunMatchesSequential(t *testing.T) {
	pr := model.Params{N: 6_000, X: 3, P: 0.5}
	sg, _, err := seq.CopyModel(pr, 5, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := edgeSet(t, sg.Edges)
	part, err := partition.New(partition.KindRRP, pr.N, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch count is schedule-bound (a fast run can complete before a
	// pending trigger opens its epoch), so retry at smaller intervals
	// until at least one epoch committed.
	var res *Result
	for every := int64(1000); every >= 50; every /= 2 {
		res, err = Run(Options{
			Params: pr, Part: part, Seed: 5, Workers: 2,
			Checkpoint: &CheckpointOptions{Dir: t.TempDir(), Every: every, Keep: 100},
		}, false)
		if err != nil {
			t.Fatal(err)
		}
		sameEdgeSet(t, "checkpointed", res.Graph.Edges, want)
		if res.Ranks[0].CkptEpochs >= 1 {
			break
		}
	}
	for _, st := range res.Ranks {
		if st.CkptEpochs < 1 {
			t.Fatalf("rank %d committed %d epochs, want >= 1", st.Rank, st.CkptEpochs)
		}
		if st.CkptEpochs != res.Ranks[0].CkptEpochs {
			t.Fatalf("rank %d committed %d epochs, rank 0 committed %d",
				st.Rank, st.CkptEpochs, res.Ranks[0].CkptEpochs)
		}
		if st.CkptBytes <= 0 || st.CkptPauseTime <= 0 {
			t.Fatalf("rank %d: bytes=%d pause=%v, want positive", st.Rank, st.CkptBytes, st.CkptPauseTime)
		}
	}
}

// The headline restart property: killing the run after ANY committed
// epoch and resuming — at the same or a different worker count — yields
// output identical edge-for-edge to the uninterrupted run. Simulated by
// trimming the snapshot directory down to each epoch in turn (snapshot
// files are immutable once committed, so the on-disk state after epoch
// E is exactly the state a crash after epoch E leaves behind).
func TestCheckpointResumeEveryEpoch(t *testing.T) {
	// Large enough that the run comfortably spans several epochs: the
	// epoch count is schedule-dependent (each epoch costs a pause), so a
	// short run can legitimately commit fewer.
	pr := model.Params{N: 20_000, X: 3, P: 0.5}
	const ranks = 3
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

	// The number of committed epochs is schedule-dependent (each epoch
	// costs a pause, and a fast run may finish before a second trigger
	// is observed), so build the snapshot library with retries at ever
	// smaller intervals until at least two epochs exist.
	var dir string
	var epochs []int64
	for every := int64(500); every >= 50; every /= 2 {
		dir = t.TempDir()
		if _, err := Run(Options{
			Params: pr, Part: newPart(), Seed: 7, Workers: 2,
			Checkpoint: &CheckpointOptions{Dir: dir, Every: every, Keep: 1000},
		}, false); err != nil {
			t.Fatal(err)
		}
		var err error
		if epochs, err = ckpt.Epochs(dir, 0); err != nil {
			t.Fatal(err)
		}
		if len(epochs) >= 2 {
			break
		}
	}
	if len(epochs) < 2 {
		t.Fatalf("only %d epochs committed even at Every=50", len(epochs))
	}

	resume := func(label string, workers int, every int64) {
		res, err := Run(Options{
			Params: pr, Part: newPart(), Seed: 7, Workers: workers,
			Checkpoint: &CheckpointOptions{Dir: dir, Every: every, Keep: 1000, Resume: true},
		}, false)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		equalEdges(t, label, res.Graph.Edges, base.Graph.Edges)
	}

	// Newest epoch: same worker count, more workers, and one worker
	// restoring a two-worker run's snapshot. The
	// continued-checkpointing variant (every > 0) also exercises epoch
	// numbering and tag resumption after a restart.
	top := epochs[len(epochs)-1]
	resume(fmt.Sprintf("epoch %d workers=2", top), 2, 0)
	resume(fmt.Sprintf("epoch %d workers=4", top), 4, 0)
	resume(fmt.Sprintf("epoch %d workers=1", top), 1, 0)
	resume(fmt.Sprintf("epoch %d continued", top), 2, 500)

	// Then every earlier epoch, trimming the directory as a crash at
	// that epoch would have left it.
	for i := len(epochs) - 2; i >= 0; i-- {
		for r := 0; r < ranks; r++ {
			if err := os.Remove(ckpt.Path(dir, r, epochs[i+1])); err != nil {
				t.Fatal(err)
			}
		}
		resume(fmt.Sprintf("epoch %d", epochs[i]), 2, 0)
	}

	// With every snapshot gone, Resume must fall back to a fresh run.
	for r := 0; r < ranks; r++ {
		if err := os.Remove(ckpt.Path(dir, r, epochs[0])); err != nil {
			t.Fatal(err)
		}
	}
	resume("empty dir fresh start", 2, 0)
}

// A torn snapshot (crash mid-write, detected by CRC) on one rank must
// pull the whole job back to the previous committed epoch rather than
// resuming a mix of epochs or failing.
func TestCheckpointTornLatestFallsBack(t *testing.T) {
	pr := model.Params{N: 20_000, X: 3, P: 0.5}
	const ranks = 2
	newPart := func() partition.Scheme {
		part, err := partition.New(partition.KindUCP, pr.N, ranks)
		if err != nil {
			t.Fatal(err)
		}
		return part
	}
	base, err := Run(Options{Params: pr, Part: newPart(), Seed: 11, Workers: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	// As in TestCheckpointResumeEveryEpoch, retry at smaller intervals
	// until two epochs are on disk (the epoch count is schedule-bound).
	var dir string
	var epochs []int64
	for every := int64(600); every >= 50; every /= 2 {
		dir = t.TempDir()
		if _, err := Run(Options{
			Params: pr, Part: newPart(), Seed: 11, Workers: 2,
			Checkpoint: &CheckpointOptions{Dir: dir, Every: every, Keep: 3},
		}, false); err != nil {
			t.Fatal(err)
		}
		var err error
		if epochs, err = ckpt.Epochs(dir, 1); err != nil {
			t.Fatal(err)
		}
		if len(epochs) >= 2 {
			break
		}
	}
	if len(epochs) < 2 {
		t.Fatalf("only %d epochs on disk even at Every=50", len(epochs))
	}
	// Corrupt rank 1's newest snapshot mid-file.
	path := ckpt.Path(dir, 1, epochs[len(epochs)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Rank 1's Latest must skip the torn file, and the min-reduce must
	// drag rank 0 back with it.
	snap, skipped, err := ckpt.Latest(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 {
		t.Fatalf("Latest skipped %v, want exactly the torn file", skipped)
	}
	if snap.Epoch != epochs[len(epochs)-2] {
		t.Fatalf("Latest fell back to epoch %d, want %d", snap.Epoch, epochs[len(epochs)-2])
	}
	res, err := Run(Options{
		Params: pr, Part: newPart(), Seed: 11, Workers: 2,
		Checkpoint: &CheckpointOptions{Dir: dir, Every: 0, Keep: 3, Resume: true},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	equalEdges(t, "torn fallback", res.Graph.Edges, base.Graph.Edges)
}

// Checkpoint epochs under a single rank — where the whole protocol
// (begin, rounds, cut, commit) runs against the rank itself, including
// the transport self-send of the cut — with and without helper lanes.
func TestCheckpointSingleRank(t *testing.T) {
	pr := model.Params{N: 4_000, X: 3, P: 0.5}
	sg, _, err := seq.CopyModel(pr, 3, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := edgeSet(t, sg.Edges)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			part, err := partition.New(partition.KindUCP, pr.N, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Retry at smaller intervals: the run can legitimately
			// finish before a pending trigger opens its epoch.
			// PollEvery 41 pauses the pass off the batchNodes grid (at one
			// worker the cut's frontier is a multiple of 41, and which one
			// is deterministic).
			var res *Result
			var dir string
			for every := int64(700); every >= 50; every /= 2 {
				dir = t.TempDir()
				res, err = Run(Options{
					Params: pr, Part: part, Seed: 3, Workers: workers, PollEvery: 41,
					Checkpoint: &CheckpointOptions{Dir: dir, Every: every},
				}, false)
				if err != nil {
					t.Fatal(err)
				}
				sameEdgeSet(t, t.Name(), res.Graph.Edges, want)
				if res.Ranks[0].CkptEpochs >= 1 {
					break
				}
			}
			if res.Ranks[0].CkptEpochs < 1 {
				t.Fatalf("committed %d epochs even at Every=50, want >= 1", res.Ranks[0].CkptEpochs)
			}

			// Kill after the newest epoch and resume. The restored pass
			// walks from index 0 in batches of batchNodes; the
			// cut's frontier falls inside one, so that batch admits only
			// its uninitiated nodes. One rank emits in node order, so
			// the resumed edge list must equal the sequential one.
			snap, _, err := ckpt.Latest(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			x := int64(pr.X)
			var initiated int64
			for idx := int64(0); idx < pr.N; idx++ {
				if snap.F[idx*x+x-1] >= 0 {
					initiated++
				}
			}
			if workers == 1 && (initiated == pr.N || initiated%batchNodes == 0) {
				t.Fatalf("cut frontier %d is not inside a batch", initiated)
			}
			resumed, err := Run(Options{
				Params: pr, Part: part, Seed: 3, Workers: workers,
				Checkpoint: &CheckpointOptions{Dir: dir, Resume: true},
			}, false)
			if err != nil {
				t.Fatal(err)
			}
			equalEdges(t, "resumed", resumed.Graph.Edges, sg.Edges)
		})
	}
}

// Epochs must survive a hostile message schedule: a chaos transport
// delaying 30% of frames stretches the quiescence rounds (messages
// linger in flight), and the cut must still be consistent.
func TestCheckpointChaosTransport(t *testing.T) {
	pr := model.Params{N: 6_000, X: 3, P: 0.5}
	sg, _, err := seq.CopyModel(pr, 9, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := edgeSet(t, sg.Edges)
	const p = 4
	part, err := partition.New(partition.KindRRP, pr.N, p)
	if err != nil {
		t.Fatal(err)
	}
	// Retry at smaller intervals: even under chaos delays the run can
	// finish before a pending trigger opens its epoch.
	var results []*RankResult
	for every := int64(1000); every >= 50; every /= 2 {
		group, err := transport.NewLocalGroup(p)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		results = make([]*RankResult, p)
		errs := make([]error, p)
		done := make(chan int, p)
		for r := 0; r < p; r++ {
			go func(r int) {
				tr := transport.NewChaos(group.Endpoint(r), transport.ChaosConfig{
					Seed:      700 + uint64(r),
					DelayProb: 0.3,
					MaxDelay:  500 * time.Microsecond,
				})
				results[r], errs[r] = RunRank(tr, Options{
					Params: pr, Part: part, Seed: 9, Workers: 2,
					Checkpoint: &CheckpointOptions{Dir: dir, Every: every},
				})
				done <- r
			}(r)
		}
		for i := 0; i < p; i++ {
			<-done
		}
		var all []graph.Edge
		for r := 0; r < p; r++ {
			if errs[r] != nil {
				t.Fatalf("rank %d: %v", r, errs[r])
			}
			all = append(all, results[r].Edges...)
		}
		sameEdgeSet(t, "chaos checkpoint", all, want)
		if results[0].Stats.CkptEpochs >= 1 {
			break
		}
	}
	if results[0].Stats.CkptEpochs < 1 {
		t.Fatalf("committed %d epochs under chaos even at Every=50, want >= 1", results[0].Stats.CkptEpochs)
	}
}

// Resuming against the wrong run parameters must fail loudly instead of
// silently generating a different graph.
func TestCheckpointResumeValidation(t *testing.T) {
	pr := model.Params{N: 3_000, X: 3, P: 0.5}
	part, err := partition.New(partition.KindUCP, pr.N, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Run(Options{
		Params: pr, Part: part, Seed: 4, Workers: 1,
		Checkpoint: &CheckpointOptions{Dir: dir, Every: 500},
	}, false); err != nil {
		t.Fatal(err)
	}
	_, err = Run(Options{
		Params: pr, Part: part, Seed: 5, Workers: 1,
		Checkpoint: &CheckpointOptions{Dir: dir, Resume: true},
	}, false)
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("resume with wrong seed: err = %v, want seed mismatch", err)
	}
}

// Checkpointing is incompatible with streaming/tracing side effects a
// snapshot cannot capture, and with a missing directory.
func TestCheckpointIncompatibleOptions(t *testing.T) {
	pr := model.Params{N: 1_000, X: 3, P: 0.5}
	part, err := partition.New(partition.KindUCP, pr.N, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"no dir", Options{Params: pr, Part: part, Seed: 1, Checkpoint: &CheckpointOptions{}}, "directory"},
		{"sink", Options{Params: pr, Part: part, Seed: 1,
			Sink:       func(int, graph.Edge) {},
			Checkpoint: &CheckpointOptions{Dir: "x"}}, "sink"},
		{"node load", Options{Params: pr, Part: part, Seed: 1, CollectNodeLoad: true,
			Checkpoint: &CheckpointOptions{Dir: "x"}}, "node-load"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.opts, false)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}
