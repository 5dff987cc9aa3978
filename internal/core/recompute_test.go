package core

import (
	"strings"
	"testing"

	"pagen/internal/ckpt"
	"pagen/internal/model"
	"pagen/internal/partition"
)

// The tentpole invariant: recomputation changes traffic, never output.
// For every rank count, worker count and hub setting, the edge list
// under -resolve=recompute must equal the wire-protocol edge list
// element for element (a replayed value is the same pure function of
// (n, x, p, seed) the owner computes).
func TestRecomputeOutputInvariance(t *testing.T) {
	pr := model.Params{N: 4_000, X: 3, P: 0.5}
	for _, ranks := range []int{1, 2, 4} {
		part, err := partition.New(partition.KindRRP, pr.N, ranks)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			for _, hub := range []int64{-1, 0} {
				run := func(mode ResolveMode) *Result {
					res, err := Run(Options{
						Params: pr, Part: part, Seed: 9,
						Workers: workers, HubPrefix: hub, Resolve: mode,
					}, false)
					if err != nil {
						t.Fatalf("ranks=%d workers=%d hub=%d mode=%v: %v", ranks, workers, hub, mode, err)
					}
					return res
				}
				wire := run(ResolveWire)
				rc := run(ResolveRecompute)
				equalEdges(t, "resolve mode matrix", rc.Graph.Edges, wire.Graph.Edges)

				var wireMsgs, rcMsgs, resolved int64
				for i, st := range rc.Ranks {
					rcMsgs += st.Comm.RequestsSent + st.Comm.ResolvedSent
					wireMsgs += wire.Ranks[i].Comm.RequestsSent + wire.Ranks[i].Comm.ResolvedSent
					resolved += st.RecomputeResolved
				}
				if ranks == 1 {
					if resolved != 0 {
						t.Errorf("single rank replayed %d chains; everything is local", resolved)
					}
					continue
				}
				if resolved == 0 {
					t.Errorf("ranks=%d workers=%d hub=%d: recompute mode never replayed a chain", ranks, workers, hub)
				}
				if rcMsgs >= wireMsgs {
					t.Errorf("ranks=%d workers=%d hub=%d: recompute sent %d data msgs, wire sent %d — no reduction",
						ranks, workers, hub, rcMsgs, wireMsgs)
				}
			}
		}
	}
}

// The depth cap bounds work, not correctness: a cap too small to chase
// real chains must fall back to the wire protocol and still produce the
// identical graph, and the observed chain depth must respect the cap.
func TestRecomputeDepthCapFallback(t *testing.T) {
	pr := model.Params{N: 6_000, X: 3, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 4)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := Run(Options{Params: pr, Part: part, Seed: 13, Workers: 2, HubPrefix: -1}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{1, 2, 64} {
		res, err := Run(Options{
			Params: pr, Part: part, Seed: 13, Workers: 2, HubPrefix: -1,
			Resolve: ResolveRecompute, recomputeDepth: depth,
		}, false)
		if err != nil {
			t.Fatalf("depth=%d: %v", depth, err)
		}
		equalEdges(t, "depth cap fallback", res.Graph.Edges, wire.Graph.Edges)
		var hits, fallbacks, maxDepth int64
		for _, st := range res.Ranks {
			hits += st.RecomputeResolved
			fallbacks += st.RecomputeFallback
			if st.ReplayDepth.Max > maxDepth {
				maxDepth = st.ReplayDepth.Max
			}
		}
		if maxDepth > int64(depth) {
			t.Errorf("depth=%d: observed chain depth %d exceeds the cap", depth, maxDepth)
		}
		if depth == 1 && fallbacks == 0 {
			t.Errorf("depth=1: no chain fell back to the wire protocol")
		}
		if depth == 64 && hits == 0 {
			t.Errorf("depth=64: no chain resolved by replay")
		}
	}
}

// Seeded reordering must not change recompute-mode output: replay never
// waits on a message, and the wire fallbacks a tiny depth cap keeps
// flowing are the same schedule-invariant protocol (DESIGN.md §8.1).
func TestRecomputeChaosDelay(t *testing.T) {
	c := simConfig{N: 6_000, X: 3, P: 0.5, Seed: 11, Scheme: partition.KindRRP, Ranks: 4, Workers: 1,
		Resolve: ResolveRecompute, Depth: 2, Deliver: 0.1}
	for _, sched := range []uint64{700, 701} {
		c.Sched = sched
		checkSims(t, c)
	}
}

// Kill-and-resume under recompute: the memo table is a pure cache and is
// never serialized, so a resumed run must re-derive replays on demand
// and still produce the uninterrupted run's exact graph. The snapshot
// pins the resolve mode; resuming it under the wire protocol must fail
// loudly naming the mismatch.
func TestRecomputeKillResume(t *testing.T) {
	pr := model.Params{N: 20_000, X: 3, P: 0.5}
	const ranks = 3
	newPart := func() partition.Scheme {
		part, err := partition.New(partition.KindRRP, pr.N, ranks)
		if err != nil {
			t.Fatal(err)
		}
		return part
	}
	opts := func() Options {
		return Options{Params: pr, Part: newPart(), Seed: 19, Workers: 2,
			HubPrefix: -1, Resolve: ResolveRecompute, recomputeDepth: 3}
	}
	base, err := Run(opts(), false)
	if err != nil {
		t.Fatal(err)
	}

	// Epoch count is schedule-dependent; retry at smaller intervals until
	// at least one published epoch exists (see TestCheckpointResumeEveryEpoch).
	var dir string
	var epochs []int64
	for every := int64(500); every >= 50; every /= 2 {
		dir = t.TempDir()
		o := opts()
		o.Checkpoint = &CheckpointOptions{Dir: dir, Every: every, Keep: 1000}
		if _, err := Run(o, false); err != nil {
			t.Fatal(err)
		}
		if epochs, err = ckpt.Epochs(dir, 0); err != nil {
			t.Fatal(err)
		}
		if len(epochs) >= 1 {
			break
		}
	}
	if len(epochs) < 1 {
		t.Fatal("no epoch published even at Every=50")
	}

	o := opts()
	o.Checkpoint = &CheckpointOptions{Dir: dir, Every: 0, Keep: 1000, Resume: true}
	res, err := Run(o, false)
	if err != nil {
		t.Fatal(err)
	}
	equalEdges(t, "resume under recompute", res.Graph.Edges, base.Graph.Edges)

	// Mode pinning: the snapshot says recompute, the run says wire.
	o = opts()
	o.Resolve = ResolveWire
	o.Checkpoint = &CheckpointOptions{Dir: dir, Every: 0, Keep: 1000, Resume: true}
	if _, err := Run(o, false); err == nil || !strings.Contains(err.Error(), "resolve") {
		t.Fatalf("resume with mismatched resolve mode: err = %v, want resolve mismatch", err)
	}
}

// Flag-surface units: mode parsing round-trips, unknown modes are
// rejected, and the depth cap tracks 2*log2(n) with a floor.
func TestRecomputeModeAndDepthValidation(t *testing.T) {
	for _, mode := range []ResolveMode{ResolveWire, ResolveRecompute} {
		got, err := ParseResolveMode(mode.String())
		if err != nil || got != mode {
			t.Errorf("ParseResolveMode(%q) = %v, %v; want %v", mode.String(), got, err, mode)
		}
	}
	if _, err := ParseResolveMode("rpc"); err == nil {
		t.Error("ParseResolveMode(\"rpc\") succeeded, want error")
	}
	if d := DefaultRecomputeDepth(4); d != 8 {
		t.Errorf("DefaultRecomputeDepth(4) = %d, want the floor 8", d)
	}
	if d := DefaultRecomputeDepth(1 << 20); d != 42 {
		t.Errorf("DefaultRecomputeDepth(2^20) = %d, want 42", d)
	}

	pr := model.Params{N: 1_000, X: 3, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Options{Params: pr, Part: part, Seed: 1,
		Resolve: ResolveMode(99)}, false); err == nil {
		t.Error("unknown ResolveMode accepted, want error")
	}
}
