package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pagen/internal/ckpt"
	"pagen/internal/coll"
	"pagen/internal/comm"
	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/msg"
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

// Checkpoint epochs under a single rank — where an epoch opens and
// closes at the rank's own cut, with no marker to wait for and its own
// vote the whole tally — with and without helper lanes.
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
				t.Fatalf("committed %d epochs even at Every=50, want >= 1", res.Ranks[0].CkptEpochs)
			}

			// Kill after the newest epoch and resume. The restored pass
			// walks from index 0 in batches of batchNodes; the
			// cut's frontier falls inside one, so that batch admits only
			// its uninitiated nodes. One rank emits in node order, so
			// the resumed edge list must equal the sequential one. The
			// frontier is read from the table the marked shard prefix
			// restores.
			snap, _, err := ckpt.Latest(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			e := resumedEngine(t, Options{
				Params: pr, Part: part, Seed: 3, Workers: workers, StreamDir: filepath.Join(dir, "shards"),
				Checkpoint: &CheckpointOptions{Dir: dir, Resume: true},
			}, 0, snap.Epoch)
			if err := e.restore(); err != nil {
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
// keep many frames in flight put more of them across each cut, and
// every retained epoch must still be a consistent cut of a run whose output
// is the model's.
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

// Killing a rank mid-run — with epochs committing and background
// publishes in flight — must leave a directory a resume can always use:
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

// cutMismatches lists what one epoch's snapshots disagree on. At a
// consistent cut every outstanding edge (t, e) of a suspended node — its
// frontier edge, and each later edge without an answer held ahead — is
// owed an answer: it is a waiter, on its own rank or at the owner of the
// slot it copies. And everything owed an answer is such an outstanding
// edge.
func cutMismatches(part partition.Scheme, snaps []*ckpt.Snapshot) []string {
	type slot struct {
		t int64
		e int
	}
	owed, susp := map[slot]bool{}, map[slot]bool{}
	for r, s := range snaps {
		for _, w := range s.Waiters {
			owed[slot{w.T, int(w.E)}] = true
		}
		x := int64(s.Meta.X)
		ahead := map[int64]bool{}
		for _, ar := range s.Ahead {
			ahead[ar.Slot] = true
		}
		for _, sr := range s.Susp {
			t := part.NodeAt(r, sr.Idx)
			for e := sr.Edge; e < s.Meta.X; e++ {
				if !ahead[sr.Idx*x+int64(e)] {
					susp[slot{t, e}] = true
				}
			}
		}
	}
	var out []string
	for k := range susp {
		if !owed[k] {
			out = append(out, fmt.Sprintf("node %d waits on edge %d and nothing answers it", k.t, k.e))
		}
	}
	for k := range owed {
		if !susp[k] {
			out = append(out, fmt.Sprintf("node %d is owed an answer for edge %d but does not wait on it", k.t, k.e))
		}
	}
	return out
}

// ckptEpoch reports whether ms carries a checkpoint message of op, and
// for which epoch.
func ckptEpoch(ms []msg.Message, op msg.CkptOp) (int64, bool) {
	for _, m := range ms {
		if m.Kind == msg.KindCkpt && msg.CkptOp(m.E) == op {
			return m.K, true
		}
	}
	return 0, false
}

// Rank 0 sends the cut marker on its own channels, so a peer that cut
// first can resume and reach a rank whose marker is still in flight.
// The schedule holds rank 0's channel to rank 2 whenever a marker heads
// it, until rank 1 has cut, relayed and sent rank 2 post-cut traffic:
// every epoch must still be a consistent cut (the smokes' restart hang
// was rank 2 handling rank 1's post-cut answers, moving on and sending
// requests no snapshot holds), and a resume from the newest epoch must
// finish the graph.
func TestCheckpointCutMarkerOvertaken(t *testing.T) {
	pr := model.Params{N: 20_000, X: 3, P: 0.5}
	const p = 3
	part, err := partition.New(partition.KindRRP, pr.N, p)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(Options{Params: pr, Part: part, Seed: 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Params: pr, Part: part, Seed: 5, Workers: 1, StreamDir: t.TempDir(),
		Checkpoint: &CheckpointOptions{Dir: t.TempDir(), Every: 2_000, Keep: 1000},
	}
	// cut1 is the latest epoch rank 1 has cut (its vote went out),
	// resumed those it has since sent rank 2 traffic in, and marked
	// those whose marker from rank 0 rank 2 has taken.
	var cut1 int64
	resumed, marked := map[int64]bool{}, map[int64]bool{}
	overtook := 0
	sched := simSched{
		seed: 5,
		sent: func(src, dst int, ms []msg.Message) {
			if ep, ok := ckptEpoch(ms, msg.CkptVote); ok && src == 1 {
				cut1 = ep
			} else if src == 1 && dst == 2 && cut1 > 0 && slices.ContainsFunc(ms, func(m msg.Message) bool { return m.Kind != msg.KindCkpt }) {
				resumed[cut1] = true
			}
		},
		hold: func(src, dst int, ms []msg.Message) bool {
			ep, ok := ckptEpoch(ms, msg.CkptCut)
			return src == 0 && dst == 2 && ok && !resumed[ep]
		},
		received: func(src, dst int, ms []msg.Message) {
			if ep, ok := ckptEpoch(ms, msg.CkptCut); ok && src == 0 && dst == 2 {
				marked[ep] = true
			} else if src == 1 && dst == 2 && resumed[cut1] && !marked[cut1] {
				overtook++
			}
		},
	}
	if _, _, err := simGroup(p, sched, func(int) Options { return opts }, nil); err != nil {
		t.Fatal(err)
	}
	epochs, err := ckpt.Epochs(opts.Checkpoint.Dir, 0)
	if err != nil || len(epochs) < 2 {
		t.Fatalf("%d epochs committed (err=%v), want >= 2", len(epochs), err)
	}
	for _, ep := range epochs {
		snaps := make([]*ckpt.Snapshot, p)
		for r := range snaps {
			if snaps[r], err = ckpt.Read(ckpt.Path(opts.Checkpoint.Dir, r, ep)); err != nil {
				t.Fatal(err)
			}
		}
		if bad := cutMismatches(part, snaps); len(bad) > 0 {
			t.Fatalf("epoch %d is not a consistent cut: %d mismatches, e.g. %s", ep, len(bad), bad[0])
		}
	}
	if overtook == 0 {
		t.Fatal("rank 1's post-cut traffic never reached rank 2 ahead of rank 0's marker; the hold exercised nothing")
	}
	opts.Checkpoint.Resume = true
	if _, _, err := simGroup(p, simSched{seed: 6}, func(int) Options { return opts }, nil); err != nil {
		t.Fatal(err)
	}
	equalEdges(t, "resumed from the newest epoch", streamEdges(t, opts.StreamDir, p), base.Graph.Edges)
}

// channelShapes reports whether snapshot s holds the two records only a
// marker cut's channel recording produces: a waiter of a slot that is
// already final (in the shard prefix or the window), and an answer held
// for a suspended node's frontier edge.
func channelShapes(s *ckpt.Snapshot) (finalWaiter, frontierAnswer bool) {
	final := map[int64]bool{}
	s.Window.Each(func(slot, v int64) error {
		final[slot] = v >= 0
		return nil
	})
	for _, w := range s.Waiters {
		finalWaiter = finalWaiter || w.Slot < s.Window.Start || final[w.Slot]
	}
	frontier := map[int64]bool{}
	for _, sr := range s.Susp {
		frontier[sr.Idx*int64(s.Meta.X)+int64(sr.Edge)] = true
	}
	for _, ar := range s.Ahead {
		frontierAnswer = frontierAnswer || frontier[ar.Slot]
	}
	return finalWaiter, frontierAnswer
}

// A rank that cuts before a peer records what the peer's channel still
// delivers ahead of its marker, as the records those messages become.
// The schedule holds rank 1's channel to rank 0 from the close of each
// epoch until rank 0 cuts the next, so rank 0 cuts with rank 1's
// requests and answers in flight and takes them, ahead of rank 1's
// marker, into its capture: a request for a slot already final as a
// waiter of it, an answer for a node's frontier edge as the value held
// for it. Every epoch must still be a consistent cut, and a resume from
// the newest epoch holding both must write the model's graph.
func TestCheckpointRecordsChannelState(t *testing.T) {
	pr := model.Params{N: 20_000, X: 3, P: 0.5}
	const p = 2
	part := mustScheme(t, partition.KindRRP, pr.N, p)
	sg, _, err := seq.CopyModel(pr, 21, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Params: pr, Part: part, Seed: 21, Workers: 1, HubPrefix: -1, StreamDir: t.TempDir(),
		Checkpoint: &CheckpointOptions{Dir: t.TempDir(), Every: pr.N / 8, Keep: 1000},
	}
	open := false // rank 0 has cut, and rank 1's marker has yet to reach it
	sched := simSched{
		seed: 21,
		sent: func(src, dst int, ms []msg.Message) {
			if _, ok := ckptEpoch(ms, msg.CkptCut); ok && src == 0 {
				open = true
			}
		},
		hold: func(src, dst int, ms []msg.Message) bool { return src == 1 && dst == 0 && !open },
		received: func(src, dst int, ms []msg.Message) {
			if _, ok := ckptEpoch(ms, msg.CkptCut); ok && src == 1 {
				open = false
			}
		},
	}
	if _, _, err := simGroup(p, sched, func(int) Options { return opts }, nil); err != nil {
		t.Fatal(err)
	}
	dir := opts.Checkpoint.Dir
	epochs, err := ckpt.Epochs(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var both int64
	for _, ep := range epochs {
		snaps := make([]*ckpt.Snapshot, p)
		var waiter, answer bool
		for r := range snaps {
			if snaps[r], err = ckpt.Read(ckpt.Path(dir, r, ep)); err != nil {
				t.Fatal(err)
			}
			w, a := channelShapes(snaps[r])
			waiter, answer = waiter || w, answer || a
		}
		if bad := cutMismatches(part, snaps); len(bad) > 0 {
			t.Fatalf("epoch %d is not a consistent cut: %d mismatches, e.g. %s", ep, len(bad), bad[0])
		}
		if waiter && answer {
			both = ep
		}
	}
	if both == 0 {
		t.Fatalf("none of %d epochs holds both a waiter of a final slot and an answer for a frontier edge", len(epochs))
	}
	for _, ep := range epochs {
		for r := 0; ep > both && r < p; r++ {
			if err := os.Remove(ckpt.Path(dir, r, ep)); err != nil {
				t.Fatal(err)
			}
		}
	}
	opts.Checkpoint.Resume = true
	if _, _, err := simGroup(p, simSched{seed: 22}, func(int) Options { return opts }, nil); err != nil {
		t.Fatalf("resume from epoch %d: %v", both, err)
	}
	edges := streamEdges(t, opts.StreamDir, p)
	slices.SortStableFunc(edges, func(a, b graph.Edge) int { return int(a.U - b.U) })
	equalEdges(t, fmt.Sprintf("resumed from epoch %d", both), edges, sg.Edges)
}

// Rank 0 leaves the engine when it broadcasts stop, and every other rank
// when stop and its owed markers have arrived; the first of them to run
// pa-tcp's post-run collectives sends rank 0 a gather. Rank 0 must not be
// receiving by then: neither still draining the batch whose last vote
// it stopped on, nor waiting for its own cut marker after cutting at a
// peer's relay.
func TestCheckpointCollectivesRightAfterStop(t *testing.T) {
	pr := model.Params{N: 6_000, X: 3, P: 0.5}
	const p = 3
	part, err := partition.New(partition.KindRRP, pr.N, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		every   int64
		deliver float64
		seed    uint64
	}{
		{3_500, 0.5, 3}, // stop broadcast mid-drain, the gather next in line
		{4_500, 0.1, 8}, // cut at rank 1's relay, rank 0's own marker behind the gather
	} {
		opts := Options{
			Params: pr, Part: part, Seed: 9, Workers: 1, HubPrefix: -1, StreamDir: t.TempDir(),
			Checkpoint: &CheckpointOptions{Dir: t.TempDir(), Every: c.every},
		}
		_, _, err := simGroup(p, simSched{seed: c.seed, deliver: c.deliver}, func(int) Options { return opts }, func(r int, tr transport.Transport, res *RankResult) error {
			cs := coll.New(comm.New(tr, comm.Config{}))
			if _, err := cs.Gather(res.Stats.Edges); err != nil {
				return err
			}
			_, err := cs.AllReduceSum(res.Stats.Comm.RequestsSent)
			return err
		})
		if err != nil {
			t.Errorf("every %d, deliver %v, schedule seed %d: %v", c.every, c.deliver, c.seed, err)
		}
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

// Kill and resume while nodes wait on several edges at once: a cut's
// snapshots hold suspended nodes with answers held ahead of their
// frontier and with more than one edge outstanding, and resuming from
// every retained epoch — newest first, each older one as a crash right
// after it leaves the directory — writes the uninterrupted run's edges,
// under round-robin and uniform consecutive partitions with the hub
// cache on and off. The snapshots come from a simulated-network run at a
// pinned schedule seed, so what each cut holds is a function of the
// seed, not of the goroutine schedule.
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
			if _, _, err := simGroup(2, simSched{seed: 13, deliver: 0.1}, func(int) Options { return lib }, nil); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			epochs, err := ckpt.Epochs(ckptDir, 0)
			if err != nil || len(epochs) == 0 {
				t.Fatalf("%s: %d epochs retained (err %v)", label, len(epochs), err)
			}
			var ahead, several bool
			for _, ep := range epochs {
				for r := 0; r < 2; r++ {
					s, err := ckpt.Read(ckpt.Path(ckptDir, r, ep))
					if err != nil {
						t.Fatal(err)
					}
					held := map[int64]int{}
					for _, ar := range s.Ahead {
						held[ar.Slot/int64(pr.X)]++
					}
					ahead = ahead || len(s.Ahead) > 0
					for _, sr := range s.Susp {
						several = several || pr.X-1-sr.Edge-held[sr.Idx] > 0
					}
				}
			}
			if !ahead || !several {
				t.Fatalf("%s: no cut holds a node with an answer ahead (%v) or several edges outstanding (%v)", label, ahead, several)
			}
			for i := len(epochs) - 1; i >= 0; i-- {
				ropts := opts
				ropts.StreamDir = streamDir
				ropts.Checkpoint = &CheckpointOptions{Dir: ckptDir, Keep: 1000, Resume: true}
				if _, err := Run(ropts, false); err != nil {
					t.Fatalf("%s: resume from epoch %d: %v", label, epochs[i], err)
				}
				equalEdges(t, fmt.Sprintf("%s epoch %d", label, epochs[i]), streamEdges(t, streamDir, 2), base.Graph.Edges)
				for r := 0; r < 2; r++ {
					if err := os.Remove(ckpt.Path(ckptDir, r, epochs[i])); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}
