package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pagen/internal/ckpt"
	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/seq"
)

// edgeKey is a canonical edge for set comparison.
type edgeKey struct{ u, v int64 }

func edgeSet(t *testing.T, edges []graph.Edge) map[edgeKey]struct{} {
	t.Helper()
	s := make(map[edgeKey]struct{}, len(edges))
	for _, e := range edges {
		c := e.Canonical()
		k := edgeKey{c.U, c.V}
		if _, dup := s[k]; dup {
			t.Fatalf("duplicate edge (%d,%d)", c.U, c.V)
		}
		s[k] = struct{}{}
	}
	return s
}

func sameEdgeSet(t *testing.T, label string, got []graph.Edge, want map[edgeKey]struct{}) {
	t.Helper()
	gs := edgeSet(t, got)
	if len(gs) != len(want) {
		t.Fatalf("%s: %d edges, want %d", label, len(gs), len(want))
	}
	for k := range gs {
		if _, ok := want[k]; !ok {
			t.Fatalf("%s: edge (%d,%d) not in sequential output", label, k.u, k.v)
		}
	}
}

// The headline determinism property at every worker count: for every
// (workers, ranks) combination the output edge set equals the
// sequential copy model's, node for node. Per-node streams plus strict
// per-node edge sequencing (suspension/resume) make the output a pure
// function of (n, x, p, seed) — independent of worker count, rank
// count, partition and message schedule.
func TestWorkersMatchSequential(t *testing.T) {
	pr := model.Params{N: 12_000, X: 4, P: 0.5}
	sg, _, err := seq.CopyModel(pr, 11, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := edgeSet(t, sg.Edges)
	for _, ranks := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("ranks=%d/workers=%d", ranks, workers), func(t *testing.T) {
				part, err := partition.New(partition.KindRRP, pr.N, ranks)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(Options{Params: pr, Part: part, Seed: 11, Workers: workers}, false)
				if err != nil {
					t.Fatal(err)
				}
				sameEdgeSet(t, t.Name(), res.Graph.Edges, want)
			})
		}
	}
}

// Same property under every partition scheme at a fixed worker count —
// the partition changes which rank computes each node, and the edge set
// must not notice.
func TestWorkersAllSchemes(t *testing.T) {
	pr := model.Params{N: 6_000, X: 3, P: 0.5}
	sg, _, err := seq.CopyModel(pr, 5, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := edgeSet(t, sg.Edges)
	kinds := []partition.Kind{partition.KindUCP, partition.KindLCP, partition.KindRRP, partition.KindExactCP}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			part, err := partition.New(kind, pr.N, 4)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Options{Params: pr, Part: part, Seed: 5, Workers: 3}, false)
			if err != nil {
				t.Fatal(err)
			}
			sameEdgeSet(t, kind.String(), res.Graph.Edges, want)
		})
	}
}

// Determinism must survive a hostile message schedule: seeded simNet
// schedules that keep many frames in flight reorder resolution arrivals
// across ranks (DESIGN.md §8.1), and the output must still be the
// sequential model's, trace and edge for edge.
func TestWorkersChaosDeterministic(t *testing.T) {
	c := simConfig{N: 6_000, X: 3, P: 0.5, Seed: 9, Scheme: partition.KindRRP, Ranks: 4, Workers: 2, Deliver: 0.1}
	for _, sched := range []uint64{900, 901, 902} {
		c.Sched = sched
		checkSims(t, c)
	}
}

// The streaming sink contract: each rank calls the sink from one
// goroutine at every worker count, so plain per-rank state is enough.
// Run under -race this is the pin — the counters below are deliberately
// unsynchronised — and the streamed edges are exactly the sequential
// edge set.
func TestWorkersSinkConcurrent(t *testing.T) {
	pr := model.Params{N: 8_000, X: 3, P: 0.5}
	sg, _, err := seq.CopyModel(pr, 21, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 2
	part, err := partition.New(partition.KindUCP, pr.N, ranks)
	if err != nil {
		t.Fatal(err)
	}
	var count, sum [ranks]int64
	res, err := Run(Options{
		Params: pr, Part: part, Seed: 21, Workers: 3,
		Sink: func(rank int, e graph.Edge) {
			count[rank]++
			sum[rank] += e.U ^ (e.V << 1)
		},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph != nil {
		t.Fatal("sink run materialised a graph")
	}
	if got := count[0] + count[1]; got != pr.M() {
		t.Fatalf("sink saw %d edges, want %d", got, pr.M())
	}
	var wantSum int64
	for _, e := range sg.Edges {
		wantSum += e.U ^ (e.V << 1)
	}
	if got := sum[0] + sum[1]; got != wantSum {
		t.Fatalf("sink edge checksum %d, want sequential %d", got, wantSum)
	}
}

// StreamDir with workers: each rank's lock-free esink writer is fed by
// its one rank goroutine while helpers draw and gather (-race pins it);
// the shard directory, created by the run, merges to exactly the
// in-memory edge list.
func TestWorkersToShards(t *testing.T) {
	pr := model.Params{N: 5_000, X: 3, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 2)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(Options{Params: pr, Part: part, Seed: 3, Workers: 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "shards")
	if _, err := Run(Options{Params: pr, Part: part, Seed: 3, Workers: 4, StreamDir: dir}, false); err != nil {
		t.Fatal(err)
	}
	equalEdges(t, "workers=4 streamed", streamEdges(t, dir, 2), base.Graph.Edges)
}

// Worker-count resolution: more workers than the local nodes can give a
// stripe clamps instead of building idle lanes, and stats still add up.
func TestWorkersClampAndStats(t *testing.T) {
	pr := model.Params{N: 40, X: 3, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Params: pr, Part: part, Seed: 2, Workers: 64}, false)
	if err != nil {
		t.Fatal(err)
	}
	var edges int64
	for _, st := range res.Ranks {
		edges += st.Edges
		if st.BusyTime < 0 || st.BusyTime > st.WallTime {
			t.Fatalf("rank %d: busy %v outside [0, wall %v]", st.Rank, st.BusyTime, st.WallTime)
		}
	}
	if edges != pr.M() {
		t.Fatalf("ranks report %d edges, want %d", edges, pr.M())
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Trace collection with workers: per-slot decisions land in the shared
// trace without racing (each rank's goroutine writes its own slot
// ranges), and the copy fraction stays where p puts it.
func TestWorkersTrace(t *testing.T) {
	pr := model.Params{N: 8_000, X: 4, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Params: pr, Part: part, Seed: 17, Workers: 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace collected")
	}
	copied := 0
	for _, c := range res.Trace.Copied {
		if c {
			copied++
		}
	}
	frac := float64(copied) / float64(res.Trace.Slots())
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("copied fraction %.3f outside [0.35, 0.65]", frac)
	}
}

// The output edge set is a pure function of (n, x, p, seed) at every
// ranks × workers × transport combination. The sweep also proves the shm
// transport (by-reference batches) and the local transport (byte codec)
// agree bit for bit.
func TestStealOutputInvariance(t *testing.T) {
	pr := model.Params{N: 12_000, X: 4, P: 0.5}
	sg, _, err := seq.CopyModel(pr, 11, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := edgeSet(t, sg.Edges)
	for _, ranks := range []int{1, 2, 4} {
		part, err := partition.New(partition.KindRRP, pr.N, ranks)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3} {
			for _, tr := range []string{"shm", "local"} {
				res, err := Run(Options{
					Params: pr, Part: part, Seed: 11,
					Workers: workers, Transport: tr,
				}, false)
				if err != nil {
					t.Fatalf("ranks=%d workers=%d transport=%s: %v", ranks, workers, tr, err)
				}
				label := fmt.Sprintf("ranks=%d workers=%d transport=%s", ranks, workers, tr)
				sameEdgeSet(t, label, res.Graph.Edges, want)
			}
		}
	}
}

// Seeded delay at 2 and 4 ranks with workers > 1: the simulated network
// speaks byte frames only, so this also runs the byte-codec path with
// helper lanes drawing inside their rank's turn.
func TestStealChaosDelayWorkers(t *testing.T) {
	for _, p := range []int{2, 4} {
		for _, workers := range []int{2, 3} {
			checkSims(t, simConfig{N: 6_000, X: 3, P: 0.5, Seed: 9, Scheme: partition.KindRRP,
				Ranks: p, Workers: workers, Sched: uint64(700 + 10*p), Deliver: 0.1})
		}
	}
}

// Checkpoint snapshots are worker-count-agnostic: a snapshot library
// built by a 3-worker run restores at any worker count — a snapshot
// names a shard prefix and nothing else. Also emulates the crash case by
// trimming each rank's newest epoch and resuming from the one before it.
func TestStealCheckpointRestoreWorkerCounts(t *testing.T) {
	pr := model.Params{N: 20_000, X: 3, P: 0.5}
	const ranks = 3
	newPart := func() partition.Scheme {
		part, err := partition.New(partition.KindRRP, pr.N, ranks)
		if err != nil {
			t.Fatal(err)
		}
		return part
	}
	base, err := Run(Options{Params: pr, Part: newPart(), Seed: 23, Workers: 3}, false)
	if err != nil {
		t.Fatal(err)
	}

	// Epoch count is schedule-dependent; retry at smaller intervals
	// until the library holds two.
	var dir string
	var epochs []int64
	for every := int64(500); every >= 50; every /= 2 {
		dir = t.TempDir()
		if _, err := Run(Options{
			Params: pr, Part: newPart(), Seed: 23, Workers: 3,
			Checkpoint: &CheckpointOptions{Dir: dir, Every: every, Keep: 1000},
		}, false); err != nil {
			t.Fatal(err)
		}
		if epochs, err = ckpt.Epochs(dir, 0); err != nil {
			t.Fatal(err)
		}
		if len(epochs) >= 2 {
			break
		}
	}
	if len(epochs) < 2 {
		t.Skip("no run left 2+ epochs; schedule-dependent, nothing to assert")
	}

	resume := func(label string, workers int) {
		res, err := Run(Options{
			Params: pr, Part: newPart(), Seed: 23, Workers: workers,
			Checkpoint: &CheckpointOptions{Dir: dir, Keep: 1000, Resume: true},
		}, false)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		equalEdges(t, label, res.Graph.Edges, base.Graph.Edges)
	}
	resume("newest workers=3", 3)
	resume("newest workers=1", 1)
	resume("newest workers=4", 4)

	// Crash emulation: drop each rank's newest epoch (as a kill mid-epoch
	// would leave the directory) and restore the previous cut at a
	// different worker count.
	dropEachNewest(t, dir, ranks)
	resume("one epoch back workers=2", 2)
}

// An unknown transport name must fail loudly, not fall back.
func TestRunUnknownTransport(t *testing.T) {
	pr := model.Params{N: 1000, X: 2, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Options{Params: pr, Part: part, Seed: 1, Transport: "tcp"}, false); err == nil {
		t.Fatal("Run with Transport tcp succeeded; in-process runs cannot speak tcp")
	}
}

// parkedInCore counts the goroutines other than the caller that are
// parked inside this package: a helper lane waiting for a window that
// never comes, say. A goroutine on its way out is running or runnable,
// never parked, so the count needs no settling time.
func parkedInCore() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for i, g := range strings.Split(string(buf), "\n\n") {
		head, _, _ := strings.Cut(g, "\n")
		if i > 0 && strings.Contains(g, "pagen/internal/core.") &&
			!strings.Contains(head, "[running") && !strings.Contains(head, "[runnable") {
			n++
		}
	}
	return n
}

// Helper goroutines live exactly as long as the run that started them:
// after a successful run, after a construction error and after a rank
// crashes mid-protocol, no goroutine of this package is left parked.
func TestWorkersHelpersStopped(t *testing.T) {
	pr := model.Params{N: 20_000, X: 3, P: 0.5}
	base := parkedInCore()
	check := func(label string) {
		t.Helper()
		if n := parkedInCore(); n > base {
			t.Fatalf("%s: %d goroutines parked in the package, %d before", label, n, base)
		}
	}

	part, err := partition.New(partition.KindRRP, pr.N, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Options{Params: pr, Part: part, Seed: 1, Workers: 4}, false); err != nil {
		t.Fatal(err)
	}
	check("successful run")

	// Rejected after the lanes are built.
	_, err = Run(Options{
		Params: pr, Part: part, Seed: 1, Workers: 4,
		StreamDir: t.TempDir(), Sink: func(int, graph.Edge) {},
	}, false)
	if err == nil {
		t.Fatal("StreamDir with Sink accepted")
	}
	check("construction error")

	// Rank 1 crashes at its 60th transport call and the group aborts, as
	// Run does on a rank error. The pinned interval makes both ranks hand
	// windows to their helpers before the crash lands.
	part, err = partition.New(partition.KindRRP, pr.N, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = simGroup(2, simSched{seed: 7, crashRank: 1, crashAt: 60}, func(int) Options {
		return Options{Params: pr, Part: part, Seed: 1, Workers: 4, bufferCap: 1, pollEvery: 1024}
	})
	if !errors.Is(err, errSimCrash) {
		t.Fatalf("crashed run: err = %v, want the crash", err)
	}
	check("aborted run")
}
