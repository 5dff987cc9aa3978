package core

import (
	"fmt"
	"os"
	"testing"

	"pagen/internal/ckpt"
	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/transport"
)

// deltaLibrary runs a checkpointed generation with FullEvery until the
// directory holds at least one delta epoch on every rank, and returns
// the directory plus rank 0's epoch list. Whether a second (delta)
// epoch commits before the run finishes is schedule-bound on a small
// problem, so this retries across cadences and repeated attempts —
// each run re-rolls the schedule. BufferCap 1 stretches the run over
// many protocol rounds, which makes a second (delta) epoch near
// certain; the library run's own output is discarded, so the cap does
// not constrain the resume runs under test.
func deltaLibrary(t *testing.T, pr model.Params, ranks int, seed uint64, fullEvery int) (string, []int64) {
	t.Helper()
	newPart := func() partition.Scheme {
		part, err := partition.New(partition.KindRRP, pr.N, ranks)
		if err != nil {
			t.Fatal(err)
		}
		return part
	}
	for attempt := 0; attempt < 12; attempt++ {
		every := []int64{500, 250, 125, 62}[attempt%4]
		dir := t.TempDir()
		if _, err := Run(Options{
			Params: pr, Part: newPart(), Seed: seed, Workers: 2, BufferCap: 1,
			Checkpoint: &CheckpointOptions{Dir: dir, Every: every, Keep: 1000, FullEvery: fullEvery},
		}, false); err != nil {
			t.Fatal(err)
		}
		epochs, err := ckpt.Epochs(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		allRanksHaveDelta := true
		for r := 0; r < ranks && allRanksHaveDelta; r++ {
			rankEpochs, err := ckpt.Epochs(dir, r)
			if err != nil {
				t.Fatal(err)
			}
			deltas := 0
			for _, e := range rankEpochs {
				h, err := ckpt.ReadHeader(ckpt.Path(dir, r, e))
				if err != nil {
					t.Fatal(err)
				}
				if h.Kind == ckpt.KindDelta {
					deltas++
				}
			}
			if deltas == 0 {
				allRanksHaveDelta = false
			}
		}
		if allRanksHaveDelta {
			return dir, epochs
		}
	}
	t.Skip("no run committed a delta epoch on every rank in 12 attempts (schedule too fast)")
	return "", nil
}

// trimAfter removes every snapshot newer than epoch on all ranks, as a
// crash right after that epoch committed would have left the directory.
// The library run may well have committed a later full epoch; with it in
// place a damaged older chain is simply not on the newest chain any
// more, and Latest has nothing to skip.
func trimAfter(t *testing.T, dir string, ranks int, epoch int64) {
	t.Helper()
	for r := 0; r < ranks; r++ {
		epochs, err := ckpt.Epochs(dir, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range epochs {
			if e <= epoch {
				continue
			}
			if err := os.Remove(ckpt.Path(dir, r, e)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Resuming over a base+delta chain must reproduce the uninterrupted
// output exactly — at the same worker count, a different one, and one
// worker — for every retained epoch, full or delta.
func TestCheckpointDeltaChainResume(t *testing.T) {
	pr := model.Params{N: 20_000, X: 3, P: 0.5}
	const ranks, fullEvery = 3, 3
	newPart := func() partition.Scheme {
		part, err := partition.New(partition.KindRRP, pr.N, ranks)
		if err != nil {
			t.Fatal(err)
		}
		return part
	}
	base, err := Run(Options{Params: pr, Part: newPart(), Seed: 21, Workers: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	dir, epochs := deltaLibrary(t, pr, ranks, 21, fullEvery)

	resume := func(label string, workers int) {
		res, err := Run(Options{
			Params: pr, Part: newPart(), Seed: 21, Workers: workers,
			Checkpoint: &CheckpointOptions{Dir: dir, Keep: 1000, FullEvery: fullEvery, Resume: true},
		}, false)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		equalEdges(t, label, res.Graph.Edges, base.Graph.Edges)
	}

	// Newest epoch (usually a delta) at several worker counts — the
	// chain replay feeding the cross-worker state redistribution.
	resume("newest workers=2", 2)
	resume("newest workers=4", 4)
	resume("newest workers=1", 1)

	// Then every earlier epoch, trimming as a crash would have.
	for i := len(epochs) - 2; i >= 0; i-- {
		for r := 0; r < ranks; r++ {
			if err := os.Remove(ckpt.Path(dir, r, epochs[i+1])); err != nil {
				t.Fatal(err)
			}
		}
		resume(fmt.Sprintf("epoch %d", epochs[i]), 2)
	}
}

// A torn delta snapshot must pull its rank back to the previous
// restorable epoch (its chain prefix is still intact), and the cluster
// min-reduce must drag the others back with it — output unchanged.
func TestCheckpointTornDeltaFallsBack(t *testing.T) {
	pr := model.Params{N: 20_000, X: 3, P: 0.5}
	const ranks, fullEvery = 2, 3
	newPart := func() partition.Scheme {
		part, err := partition.New(partition.KindRRP, pr.N, ranks)
		if err != nil {
			t.Fatal(err)
		}
		return part
	}
	base, err := Run(Options{Params: pr, Part: newPart(), Seed: 23, Workers: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	dir, epochs := deltaLibrary(t, pr, ranks, 23, fullEvery)

	// Tear rank 1's newest delta mid-file.
	torn := int64(-1)
	for i := len(epochs) - 1; i >= 0; i-- {
		h, err := ckpt.ReadHeader(ckpt.Path(dir, 1, epochs[i]))
		if err != nil {
			t.Fatal(err)
		}
		if h.Kind == ckpt.KindDelta {
			torn = epochs[i]
			break
		}
	}
	if torn < 0 {
		t.Skip("rank 1 committed no delta epoch")
	}
	trimAfter(t, dir, ranks, torn)
	path := ckpt.Path(dir, 1, torn)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, skipped, err := ckpt.Latest(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) == 0 {
		t.Fatalf("Latest skipped nothing; want the torn delta among %v", skipped)
	}
	if snap == nil || snap.Epoch >= torn {
		t.Fatalf("Latest returned epoch %v, want one before torn epoch %d", snap, torn)
	}
	res, err := Run(Options{
		Params: pr, Part: newPart(), Seed: 23, Workers: 2,
		Checkpoint: &CheckpointOptions{Dir: dir, Keep: 1000, FullEvery: fullEvery, Resume: true},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	equalEdges(t, "torn delta fallback", res.Graph.Edges, base.Graph.Edges)
}

// Deleting the full snapshot a delta chain is anchored to must strand
// every epoch of that chain: restore falls back past the whole chain to
// the previous full epoch (or a fresh start), never replaying against a
// missing or wrong base.
func TestCheckpointMissingBaseFallsBack(t *testing.T) {
	pr := model.Params{N: 20_000, X: 3, P: 0.5}
	const ranks, fullEvery = 2, 3
	newPart := func() partition.Scheme {
		part, err := partition.New(partition.KindRRP, pr.N, ranks)
		if err != nil {
			t.Fatal(err)
		}
		return part
	}
	base, err := Run(Options{Params: pr, Part: newPart(), Seed: 29, Workers: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	dir, epochs := deltaLibrary(t, pr, ranks, 29, fullEvery)

	// Find the newest full epoch on rank 0 that anchors at least one
	// later delta, make its chain the newest one, and delete it.
	kinds := make([]int, len(epochs))
	for i, e := range epochs {
		h, err := ckpt.ReadHeader(ckpt.Path(dir, 0, e))
		if err != nil {
			t.Fatal(err)
		}
		kinds[i] = h.Kind
	}
	var missing int64 = -1
	for i := len(epochs) - 2; i >= 0; i-- {
		if kinds[i] == ckpt.KindFull && kinds[i+1] == ckpt.KindDelta {
			missing = epochs[i]
			end := i + 1
			for end+1 < len(epochs) && kinds[end+1] == ckpt.KindDelta {
				end++
			}
			trimAfter(t, dir, ranks, epochs[end])
			break
		}
	}
	if missing < 0 {
		t.Skip("no full epoch anchors a later delta on rank 0")
	}
	if err := os.Remove(ckpt.Path(dir, 0, missing)); err != nil {
		t.Fatal(err)
	}
	snap, _, err := ckpt.Latest(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil && snap.Epoch >= missing {
		t.Fatalf("Latest returned epoch %d, want one before the missing base %d", snap.Epoch, missing)
	}
	res, err := Run(Options{
		Params: pr, Part: newPart(), Seed: 29, Workers: 2,
		Checkpoint: &CheckpointOptions{Dir: dir, Keep: 1000, FullEvery: fullEvery, Resume: true},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	equalEdges(t, "missing base fallback", res.Graph.Edges, base.Graph.Edges)
}

// Killing a rank mid-run — with epochs committing and background
// publishes in flight — must leave a directory a resume can always use:
// the relaunched cluster produces output identical to an uninterrupted
// run. The kill needs the TCP transport (crash detection lives in its
// failure model), and BufferCap 1 puts the kill budget mid-protocol.
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
	for ki, killAfter := range []int64{60, 600} {
		dir := t.TempDir()
		runCluster := func(basePort int, kill int64, resume bool) ([]*RankResult, []error) {
			addrs := make([]string, ranks)
			for i := range addrs {
				addrs[i] = fmt.Sprintf("127.0.0.1:%d", basePort+i)
			}
			opts := Options{
				Params: pr, Part: part, Seed: 31, Workers: 1, BufferCap: 1,
				Checkpoint: &CheckpointOptions{Dir: dir, Every: 300, Keep: 1000, FullEvery: 2, Resume: resume},
			}
			results := make([]*RankResult, ranks)
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
					if kill > 0 && r == ranks-1 {
						chaotic := transport.NewChaos(tr, transport.ChaosConfig{
							Seed: 31, KillAfterSends: kill,
						})
						results[r], errs[r] = RunRank(chaotic, opts)
						chaotic.Close()
						return
					}
					defer tr.Close()
					results[r], errs[r] = RunRank(tr, opts)
				}(r)
			}
			for i := 0; i < ranks; i++ {
				<-done
			}
			return results, errs
		}
		// Kill pass: outcomes don't matter (the kill may land anywhere,
		// including inside a background publish); the directory must
		// stay restorable regardless.
		runCluster(43600+ki*2*ranks, killAfter, false)
		// Resume pass on fresh ports; must succeed and match.
		results, errs := runCluster(43600+ki*2*ranks+ranks, 0, true)
		var all []graph.Edge
		for r := 0; r < ranks; r++ {
			if errs[r] != nil {
				t.Fatalf("killAfter=%d: resume rank %d: %v", killAfter, r, errs[r])
			}
			all = append(all, results[r].Edges...)
		}
		sameEdgeSet(t, fmt.Sprintf("killAfter=%d resume", killAfter), all, edgeSet(t, base.Graph.Edges))
	}
}
