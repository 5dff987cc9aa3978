package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

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

// rankEpochs lists the epochs rank holds a snapshot of in dir, oldest
// first; none when the directory does not exist.
func rankEpochs(t *testing.T, dir string, rank int) []int64 {
	t.Helper()
	eps, err := ckpt.Epochs(dir, rank)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return eps
}

// dropNewest removes the n newest snapshots of rank in dir (all of them
// when it holds fewer), as a crash that lost them would leave the
// directory.
func dropNewest(t *testing.T, dir string, rank, n int) {
	t.Helper()
	eps := rankEpochs(t, dir, rank)
	for _, ep := range eps[len(eps)-min(n, len(eps)):] {
		if err := os.Remove(ckpt.Path(dir, rank, ep)); err != nil {
			t.Fatal(err)
		}
	}
}

// dropEachNewest removes every rank's newest snapshot and reports whether
// some rank still holds one.
func dropEachNewest(t *testing.T, dir string, ranks int) bool {
	t.Helper()
	left := false
	for r := 0; r < ranks; r++ {
		dropNewest(t, dir, r, 1)
		left = left || len(rankEpochs(t, dir, r)) > 0
	}
	return left
}

// A checkpointed run must produce exactly the sequential edge set while
// publishing epochs along the way on every rank, each at its own
// trigger, and the per-rank stats must count exactly the files written.
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
	// pending trigger is looked at), so retry at smaller intervals until
	// every rank published one.
	var res *Result
	var dir string
	for every := int64(1000); every >= 50; every /= 2 {
		dir = t.TempDir()
		res, err = Run(Options{
			Params: pr, Part: part, Seed: 5, Workers: 2,
			Checkpoint: &CheckpointOptions{Dir: dir, Every: every, Keep: 100},
		}, false)
		if err != nil {
			t.Fatal(err)
		}
		sameEdgeSet(t, "checkpointed", res.Graph.Edges, want)
		if !slices.ContainsFunc(res.Ranks, func(st RankStats) bool { return st.CkptEpochs < 1 }) {
			break
		}
	}
	for _, st := range res.Ranks {
		if st.CkptEpochs < 1 || st.CkptFailed != 0 {
			t.Fatalf("rank %d published %d epochs and failed %d, want >= 1 and none", st.Rank, st.CkptEpochs, st.CkptFailed)
		}
		if n := int64(len(rankEpochs(t, dir, st.Rank))); n != st.CkptEpochs {
			t.Fatalf("rank %d holds %d snapshots, its stats count %d epochs", st.Rank, n, st.CkptEpochs)
		}
		if st.CkptBytes <= 0 || st.CkptPauseTime <= 0 {
			t.Fatalf("rank %d: bytes=%d pause=%v, want positive", st.Rank, st.CkptBytes, st.CkptPauseTime)
		}
	}
}

// The headline restart property: killing the run after ANY published
// epoch and resuming — at the same or a different worker count — yields
// output identical edge-for-edge to the uninterrupted run. Simulated by
// trimming the snapshot directory back one epoch per rank at a time
// (snapshot files are immutable once published, so the on-disk state
// after a rank's epoch E is exactly the state a crash after it leaves).
func TestCheckpointResumeEveryEpoch(t *testing.T) {
	// Large enough that the run comfortably spans several epochs: the
	// epoch count is schedule-dependent (each epoch costs a pause), so a
	// short run can legitimately publish fewer.
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

	// The number of published epochs is schedule-dependent (each epoch
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
		if epochs = rankEpochs(t, dir, 0); len(epochs) >= 2 {
			break
		}
	}
	if len(epochs) < 2 {
		t.Fatalf("only %d epochs published even at Every=50", len(epochs))
	}

	libTop := make([]int64, ranks)
	for r := range libTop {
		libTop[r] = -1
		if eps := rankEpochs(t, dir, r); len(eps) > 0 {
			libTop[r] = eps[len(eps)-1]
		}
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

	// Newest epochs: same worker count, more workers, and one worker
	// restoring a two-worker run's snapshot. The continued-checkpointing
	// variant (every > 0) also exercises epoch numbering after a restart.
	resume("newest workers=2", 2, 0)
	resume("newest workers=4", 4, 0)
	resume("newest workers=1", 1, 0)
	resume("newest continued", 2, 500)

	// Then every earlier epoch, trimming the directory as a crash at that
	// epoch would have left it. The continued resume above published
	// epochs past the library's; drop those first.
	for r := 0; r < ranks; r++ {
		eps := rankEpochs(t, dir, r)
		dropNewest(t, dir, r, len(eps)-slices.Index(eps, libTop[r])-1)
	}
	for step := 1; dropEachNewest(t, dir, ranks); step++ {
		resume(fmt.Sprintf("%d epochs back", step), 2, 0)
	}

	// With every snapshot gone, Resume must fall back to a fresh run.
	resume("empty dir fresh start", 2, 0)
}

// A torn snapshot (crash mid-write, detected by CRC) on one rank sends
// that rank back to its previous epoch while the others resume from
// their newest, and the run still writes the uninterrupted graph.
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
		if epochs = rankEpochs(t, dir, 1); len(epochs) >= 2 {
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
	// Rank 1's Latest must skip the torn file; rank 0 keeps its newest.
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

// Ranks resume from different epochs, or from none: each reads its own
// newest snapshot and regenerates everything above its mark, so the
// output is the model's whatever its peers come back from. Under
// round-robin and uniform consecutive partitions at 2 and 4 ranks, rank
// r < p−1 resumes from its r-th newest epoch and the last rank from no
// snapshot at all. The library comes from a simulated-network run at a
// pinned schedule seed and the resume runs on one too, so a resume that
// loses its way fails as a deadlock rather than a hang.
func TestCheckpointResumeMixedEpochs(t *testing.T) {
	pr := model.Params{N: 12_000, X: 3, P: 0.5}
	sg, _, err := seq.CopyModel(pr, 29, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []partition.Kind{partition.KindRRP, partition.KindUCP} {
		for _, p := range []int{2, 4} {
			label := fmt.Sprintf("%v ranks=%d", kind, p)
			part := mustScheme(t, kind, pr.N, p)
			ckptDir, streamDir := t.TempDir(), t.TempDir()
			opts := Options{Params: pr, Part: part, Seed: 29, Workers: 1, StreamDir: streamDir, StreamBlockEdges: 256,
				Checkpoint: &CheckpointOptions{Dir: ckptDir, Every: pr.N / int64(4*p), Keep: 1000}}
			if _, _, err := simGroup(p, simSched{seed: 29, deliver: 0.3}, func(int) Options { return opts }); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var from []int64
			for r := 0; r < p; r++ {
				eps := rankEpochs(t, ckptDir, r)
				if r < p-1 && len(eps) <= r {
					t.Fatalf("%s: rank %d holds %d epochs, want more than %d", label, r, len(eps), r)
				}
				if r == p-1 {
					dropNewest(t, ckptDir, r, len(eps))
					from = append(from, 0)
					continue
				}
				dropNewest(t, ckptDir, r, r)
				from = append(from, eps[len(eps)-1-r])
			}
			if p > 2 && from[0] == from[1] && from[1] == from[2] {
				t.Fatalf("%s: ranks resume from epochs %v, want them to differ", label, from)
			}
			opts.Checkpoint = &CheckpointOptions{Dir: ckptDir, Keep: 1000, Resume: true}
			_, results, err := simGroup(p, simSched{seed: 30, deliver: 0.3}, func(int) Options { return opts })
			if err != nil {
				t.Fatalf("%s: resume from epochs %v: %v", label, from, err)
			}
			for r, res := range results {
				if want := rankEdges(part, r, pr.X); res.Stats.Edges != want {
					t.Fatalf("%s: rank %d's shard holds %d records, its nodes have %d edges", label, r, res.Stats.Edges, want)
				}
			}
			edges := streamEdges(t, streamDir, p)
			slices.SortStableFunc(edges, func(a, b graph.Edge) int { return int(a.U - b.U) })
			equalEdges(t, fmt.Sprintf("%s resumed from epochs %v", label, from), edges, sg.Edges)
		}
	}
}

// A cut writes the frontier before it takes the mark, so the epoch keeps
// every node finished by then: here a node that finished after the last
// window's frontier write (as an answer arriving in a drain would finish
// it) is in the marked prefix, and a resume from the snapshot starts
// past it.
func TestCheckpointCutStreamsBeforeMark(t *testing.T) {
	e := cutEngine(t)
	if err := e.stream.Reset(); err != nil {
		t.Fatal(err)
	}
	e.bootstrap()
	if err := e.streamFrontier(); err != nil {
		t.Fatal(err)
	}
	before := e.frontier
	// Finish the first node past bootstrap's by hand, as settle would.
	for j := range e.x {
		e.resolveSlot(before+int64(j), int64(j))
	}
	if err := e.ckptCut(); err != nil {
		t.Fatal(err)
	}
	e.ck.writer.shutdown()
	snap, _, err := ckpt.Latest(e.ck.writer.dir, e.rank)
	if err != nil || snap == nil {
		t.Fatalf("no snapshot after the cut (err %v)", err)
	}
	if want := bootRecords(e.part, e.rank, e.x64) + e.x64; snap.Sink.Edges != want {
		t.Fatalf("the cut marks %d records, want %d: bootstrap's and the node finished since the last frontier write", snap.Sink.Edges, want)
	}
	if e.frontier != before+e.x64 {
		t.Fatalf("frontier %d after the cut, want %d", e.frontier, before+e.x64)
	}
}

// Checkpoint epochs under a single rank, with and without helper lanes,
// and a resume whose cursor lands off the batch grid.
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
			// finish before a pending trigger is looked at.
			// pollEvery 41 cuts the pass off the batchNodes grid (at one
			// worker the cut's frontier is a multiple of 41, and which one
			// is deterministic).
			var res *Result
			var dir string
			for every := int64(700); every >= 50; every /= 2 {
				dir = t.TempDir()
				res, err = Run(Options{
					Params: pr, Part: part, Seed: 3, Workers: workers, pollEvery: 41,
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
				t.Fatalf("published %d epochs even at Every=50, want >= 1", res.Ranks[0].CkptEpochs)
			}

			// Kill after the newest epoch and resume. The restored pass
			// walks from the frontier in batches of batchNodes; one rank
			// finishes every node of a window before the next poll, so the
			// cut's frontier is the poll point, off the batch grid. One
			// rank emits in node order, so the resumed edge list must equal
			// the sequential one.
			e, snap := resumedEngine(t, Options{
				Params: pr, Part: part, Seed: 3, Workers: workers, StreamDir: filepath.Join(dir, "shards"),
				Checkpoint: &CheckpointOptions{Dir: dir, Resume: true},
			}, 0, 0)
			if err := e.restore(snap); err != nil {
				t.Fatal(err)
			}
			initiated := e.cursor // every node below it, bootstrap's included
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

// Epochs must survive a hostile message schedule: seeded schedules that
// keep many frames in flight leave ranks far apart at their cuts, and
// every retained snapshot must still mark a node boundary of a run whose
// output is the model's.
func TestCheckpointChaosTransport(t *testing.T) {
	c := simConfig{N: 6_000, X: 3, P: 0.5, Seed: 9, Scheme: partition.KindRRP, Ranks: 4, Workers: 2,
		Stream: true, Every: 500, Deliver: 0.1}
	for _, sched := range []uint64{700, 701} {
		c.Sched = sched
		if o := checkSims(t, c)[0]; o.epochs < 1 {
			t.Fatalf("schedule %d: %d epochs retained, want >= 1", sched, o.epochs)
		}
	}
}

// Killing a rank mid-run — with epochs publishing and background
// writes in flight — must leave a directory a resume can always use:
// the relaunched cluster produces output identical to an uninterrupted
// run. The kill needs the TCP transport (crash detection lives in its
// failure model), and bufferCap 1 puts the kill budget mid-protocol.
func TestCheckpointKillDuringBackgroundWrite(t *testing.T) {
	pr := model.Params{N: 10_000, X: 3, P: 0.5}
	const ranks = 3
	part, err := partition.New(partition.KindRRP, pr.N, ranks)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(Options{Params: pr, Part: part, Seed: 31, Workers: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	for ki, killAfter := range []int{60, 600} {
		dir, streamDir := t.TempDir(), t.TempDir()
		runCluster := func(basePort int, kill int, resume bool) []error {
			addrs := make([]string, ranks)
			for i := range addrs {
				addrs[i] = fmt.Sprintf("127.0.0.1:%d", basePort+i)
			}
			opts := Options{
				Params: pr, Part: part, Seed: 31, Workers: 1, bufferCap: 1, StreamDir: streamDir,
				Checkpoint: &CheckpointOptions{Dir: dir, Every: 300, Keep: 1000, Resume: resume},
			}
			errs := make([]error, ranks)
			done := make(chan int, ranks)
			for r := 0; r < ranks; r++ {
				go func(r int) {
					defer func() { done <- r }()
					tr, err := transport.NewTCP(r, addrs)
					if err != nil {
						errs[r] = err
						return
					}
					defer tr.Close()
					if kill > 0 && r == ranks-1 {
						_, errs[r] = RunRank(&abortAfter{TCP: tr, sends: kill}, opts)
						return
					}
					_, errs[r] = RunRank(tr, opts)
				}(r)
			}
			for i := 0; i < ranks; i++ {
				<-done
			}
			return errs
		}
		// Kill pass: outcomes don't matter (the kill may land anywhere,
		// including inside a background publish); the directory must
		// stay restorable regardless.
		runCluster(43600+ki*2*ranks, killAfter, false)
		// Resume pass on fresh ports; must succeed and match.
		for r, err := range runCluster(43600+ki*2*ranks+ranks, 0, true) {
			if err != nil {
				t.Fatalf("killAfter=%d: resume rank %d: %v", killAfter, r, err)
			}
		}
		equalEdges(t, fmt.Sprintf("killAfter=%d resume", killAfter), streamEdges(t, streamDir, ranks), base.Graph.Edges)
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

// Kill and resume while nodes wait on several edges at once: with many
// frames in flight, ranks cut with nodes suspended past their frontier,
// answers held ahead of it and requests queued for them, none of which a
// snapshot keeps. Resuming from every retained epoch — newest first, each
// older one as a crash right after it leaves the directory — regenerates
// all of it and writes the uninterrupted run's edges, under round-robin
// and uniform consecutive partitions with the hub cache on and off. The
// snapshots come from a simulated-network run at a pinned schedule seed,
// so what each cut leaves behind is a function of the seed, not of the
// goroutine schedule.
func TestCheckpointResumeAheadBlocks(t *testing.T) {
	pr := model.Params{N: 20_000, X: 4, P: 0.5}
	for _, kind := range []partition.Kind{partition.KindRRP, partition.KindUCP} {
		for _, hub := range []int64{-1, 0} {
			label := fmt.Sprintf("%v hub=%d", kind, hub)
			part := mustScheme(t, kind, pr.N, 2)
			opts := Options{Params: pr, Part: part, Seed: 13, Workers: 1, HubPrefix: hub}
			base, err := Run(opts, false)
			if err != nil {
				t.Fatal(err)
			}
			ckptDir, streamDir := t.TempDir(), t.TempDir()
			lib := opts
			lib.StreamDir = streamDir
			lib.Checkpoint = &CheckpointOptions{Dir: ckptDir, Every: pr.N / 8, Keep: 1000}
			_, results, err := simGroup(2, simSched{seed: 13, deliver: 0.1}, func(int) Options { return lib })
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if r := slices.IndexFunc(results, func(res *RankResult) bool { return res.Stats.MaxSuspended >= 2 && res.Stats.CkptEpochs > 0 }); r < 0 {
				t.Fatalf("%s: no rank parked two nodes and published an epoch; the resumes exercise no regeneration of suspended nodes", label)
			}
			for step := 0; ; step++ {
				ropts := opts
				ropts.StreamDir = streamDir
				ropts.Checkpoint = &CheckpointOptions{Dir: ckptDir, Keep: 1000, Resume: true}
				if _, err := Run(ropts, false); err != nil {
					t.Fatalf("%s: resume %d epochs back: %v", label, step, err)
				}
				equalEdges(t, fmt.Sprintf("%s %d epochs back", label, step), streamEdges(t, streamDir, 2), base.Graph.Edges)
				if !dropEachNewest(t, ckptDir, 2) {
					break
				}
			}
		}
	}
}
