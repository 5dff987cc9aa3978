package core

import (
	"fmt"
	"os"
	"testing"

	"pagen/internal/ckpt"
	"pagen/internal/comm"
	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/msg"
	"pagen/internal/partition"
	"pagen/internal/seq"
)

// The hub-prefix cache changes traffic, never output (DESIGN.md §8.1):
// for these schemes, rank and worker counts the edge list with the
// cache off, auto-sized, and at a fixed size must be identical element
// for element — and the cache must actually hit on every multi-rank
// run, the four-rank UCP one included.
func TestHubCacheOutputInvariance(t *testing.T) {
	pr := model.Params{N: 4_000, X: 3, P: 0.5}
	configs := []struct {
		kind  partition.Kind
		ranks int
	}{
		{partition.KindRRP, 1},
		{partition.KindRRP, 2},
		{partition.KindRRP, 4},
		{partition.KindUCP, 4},
	}
	for _, tc := range configs {
		part, err := partition.New(tc.kind, pr.N, tc.ranks)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			run := func(hub int64) *Result {
				res, err := Run(Options{
					Params: pr, Part: part, Seed: 9,
					Workers: workers, HubPrefix: hub,
				}, false)
				if err != nil {
					t.Fatalf("%v ranks=%d workers=%d hub=%d: %v", tc.kind, tc.ranks, workers, hub, err)
				}
				return res
			}
			base := run(-1)
			for _, hub := range []int64{0, 64} {
				res := run(hub)
				label := tc.kind.String() + " ranks/workers/hub matrix"
				equalEdges(t, label, res.Graph.Edges, base.Graph.Edges)
				var hits int64
				for _, st := range res.Ranks {
					hits += st.HubCacheHits
				}
				if tc.ranks > 1 {
					if hits == 0 {
						t.Errorf("%v ranks=%d workers=%d hub=%d: cache never hit", tc.kind, tc.ranks, workers, hub)
					}
				} else if hits != 0 {
					t.Errorf("single rank engaged the cache: hits=%d", hits)
				}
			}
		}
	}
}

// The Lemma 3.4 census must stay exact with the cache on: every copy
// query is counted exactly once, either at the owner (Load) or at the
// requester as elided (replica hit or coalesced ride-along), so the
// per-node sum Load+Elided equals the cache-off Load — an equality, not
// an approximation, because the census is part of the determinism
// contract (DESIGN.md §8.1).
func TestHubCacheNodeLoadSplit(t *testing.T) {
	pr := model.Params{N: 4_000, X: 3, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 4)
	if err != nil {
		t.Fatal(err)
	}
	run := func(hub int64) *Result {
		res, err := Run(Options{
			Params: pr, Part: part, Seed: 21,
			Workers: 2, HubPrefix: hub, CollectNodeLoad: true,
		}, false)
		if err != nil {
			t.Fatalf("hub=%d: %v", hub, err)
		}
		return res
	}
	off, on := run(-1), run(0)
	if len(off.NodeLoad) != len(on.NodeLoad) {
		t.Fatalf("%d load samples with cache on, want %d", len(on.NodeLoad), len(off.NodeLoad))
	}
	var elided int64
	for i, want := range off.NodeLoad {
		got := on.NodeLoad[i]
		if got.K != want.K {
			t.Fatalf("sample %d is node %d, want %d", i, got.K, want.K)
		}
		if want.Elided != 0 {
			t.Fatalf("node %d: cache-off run reports %d elided queries", want.K, want.Elided)
		}
		elided += got.Elided
		if got.Load+got.Elided != want.Load {
			t.Fatalf("node %d: load %d + elided %d with cache on, want %d total",
				got.K, got.Load, got.Elided, want.Load)
		}
	}
	if elided == 0 {
		t.Fatal("cache elided no queries at 4 ranks")
	}
	var hits, coalesced int64
	for _, st := range on.Ranks {
		hits += st.HubCacheHits
		coalesced += st.ReqCoalesced
	}
	if hits+coalesced != elided {
		t.Fatalf("counters report %d hits + %d coalesced, node-load curve reports %d elided",
			hits, coalesced, elided)
	}
}

// Seeded reordering with the cache enabled must not change the output
// or the accounting: the edges are the model's, and so is every query
// the replicas did not elide.
func TestHubCacheChaosDelay(t *testing.T) {
	c := simConfig{N: 6_000, X: 3, P: 0.5, Seed: 11, Scheme: partition.KindRRP, Ranks: 4, Workers: 1, Deliver: 0.1}
	for _, sched := range []uint64{300, 301, 302} {
		c.Sched = sched
		checkSims(t, c)
	}
}

// Every rank computes the hub prefix before its first window, so on any
// schedule a remote read below h always hits: no request frame names a
// prefix node, nothing misses or coalesces, and no message of the former
// publish and fence kinds (7 and 8) travels. The edges are the model's.
func TestHubCacheNoPrefixRequests(t *testing.T) {
	pr := model.Params{N: 6_000, X: 3, P: 0.5}
	for _, kind := range []partition.Kind{partition.KindRRP, partition.KindUCP} {
		for _, p := range []int{2, 4} {
			part := mustScheme(t, kind, pr.N, p)
			h := partition.HubPrefixAutoSize(pr.N, pr.X, p)
			base, err := Run(Options{Params: pr, Part: part, Seed: 5, HubPrefix: -1}, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []uint64{1, 2, 3} {
				label := fmt.Sprintf("%v ranks=%d sched=%d", kind, p, seed)
				var reqs, prefix, former int64
				sched := simSched{seed: seed, deliver: 0.3, sent: func(src, dst int, ms []msg.Message) {
					for _, m := range ms {
						switch {
						case m.Kind == msg.KindRequest:
							reqs++
							if m.K < h {
								prefix++
							}
						case m.Kind > msg.KindCkpt:
							former++
						}
					}
				}}
				_, results, err := simGroup(p, sched, func(int) Options {
					return Options{Params: pr, Part: part, Seed: 5, Workers: 1}
				}, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				var edges []graph.Edge
				var hits, misses, coalesced int64
				for _, res := range results {
					edges = append(edges, res.Edges...)
					hits += res.Stats.HubCacheHits
					misses += res.Stats.HubCacheMisses
					coalesced += res.Stats.ReqCoalesced
				}
				equalEdges(t, label, edges, base.Graph.Edges)
				if reqs == 0 || hits == 0 {
					t.Fatalf("%s: %d requests, %d replica hits; the run exercised nothing", label, reqs, hits)
				}
				if prefix != 0 || former != 0 || misses != 0 || coalesced != 0 {
					t.Fatalf("%s: %d of %d requests name a node below h = %d, %d messages of kind 7 or 8, %d misses, %d coalesced",
						label, prefix, reqs, h, former, misses, coalesced)
				}
			}
		}
	}
}

// Hub settings are rank-local: ranks with the replica off, auto-sized
// and at different explicit sizes run together, and the edges are the
// ones every rank at one setting writes.
func TestHubCacheMismatchedSettingsAgree(t *testing.T) {
	pr := model.Params{N: 4_000, X: 3, P: 0.5}
	for _, hubs := range [][]int64{{0, -1}, {-1, 64}, {64, 0, 200}, {-1, 0, -1, 9}} {
		p := len(hubs)
		part := mustScheme(t, partition.KindRRP, pr.N, p)
		base, err := Run(Options{Params: pr, Part: part, Seed: 3}, false)
		if err != nil {
			t.Fatal(err)
		}
		_, results, err := simGroup(p, simSched{seed: uint64(p)}, func(r int) Options {
			return Options{Params: pr, Part: part, Seed: 3, Workers: 1, HubPrefix: hubs[r]}
		}, nil)
		if err != nil {
			t.Fatalf("hubs %v: %v", hubs, err)
		}
		var edges []graph.Edge
		for _, res := range results {
			edges = append(edges, res.Edges...)
		}
		equalEdges(t, fmt.Sprintf("hubs %v", hubs), edges, base.Graph.Edges)
	}
}

// Replica internals: a fresh replica covers h*x slots, all unknown, and
// fill writes the model's attachments for every node in [x, h) and
// leaves the clique rows NILL.
func TestHubCacheInstallIdempotentAndPeers(t *testing.T) {
	c := newHubCache(4, 3, 1000)
	if got := c.f.len(); got != 12 {
		t.Fatalf("replica has %d slots, want 12", got)
	}
	for s, v := range ftabSlots(c.f) {
		if v != -1 {
			t.Fatalf("fresh slot %d reads %d, want -1", s, v)
		}
	}

	for _, pr := range []model.Params{{N: 3_000, X: 3, P: 0.5}, {N: 3_000, X: 1, P: 0.2}, {N: 500, X: 8, P: 0.9}} {
		const h, seed = 400, 21
		g, _, err := seq.CopyModel(pr, seed, seq.CopyModelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := map[int64][]int64{}
		for _, e := range g.Edges {
			if e.U >= int64(pr.X) && e.U < h {
				want[e.U] = append(want[e.U], e.V)
			}
		}
		c := newHubCache(h, int64(pr.X), pr.N)
		c.fill(pr, seed)
		x := int64(pr.X)
		for k := int64(0); k < h; k++ {
			for l := int64(0); l < x; l++ {
				got := c.f.get(k*x + l)
				switch {
				case k < x && got != -1:
					t.Fatalf("%+v: clique slot (%d, %d) reads %d, want NILL", pr, k, l, got)
				case k >= x && got != want[k][l]:
					t.Fatalf("%+v: replica slot (%d, %d) reads %d, the model's is %d", pr, k, l, got, want[k][l])
				}
			}
		}
	}
}

// Kill-and-resume with the cache on: the replica is never serialized, so
// a resumed rank computes it again before its first window. The resumed
// output is compared edge for edge with the uninterrupted run — with the
// cache on, and with it off, since a snapshot holds nothing that depends
// on the hub setting.
func TestHubCacheKillResumeRebuildsReplica(t *testing.T) {
	pr := model.Params{N: 20_000, X: 3, P: 0.5}
	const ranks = 3
	newPart := func() partition.Scheme {
		part, err := partition.New(partition.KindRRP, pr.N, ranks)
		if err != nil {
			t.Fatal(err)
		}
		return part
	}
	base, err := Run(Options{Params: pr, Part: newPart(), Seed: 19, Workers: 2, HubPrefix: 0}, false)
	if err != nil {
		t.Fatal(err)
	}

	// Epoch count is schedule-dependent; retry at smaller intervals until
	// at least one committed epoch exists (see TestCheckpointResumeEveryEpoch).
	var dir string
	var epochs []int64
	for every := int64(500); every >= 50; every /= 2 {
		dir = t.TempDir()
		if _, err := Run(Options{
			Params: pr, Part: newPart(), Seed: 19, Workers: 2, HubPrefix: 0,
			Checkpoint: &CheckpointOptions{Dir: dir, Every: every, Keep: 1000},
		}, false); err != nil {
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
		t.Fatal("no epoch committed even at Every=50")
	}

	// Resume from the first epoch, so most prefix queries come after it.
	// A resume that checkpoints nothing leaves the snapshots as they
	// were, and truncates the shards back to their marks, so both resumes
	// start from it.
	for _, ep := range epochs[1:] {
		for r := 0; r < ranks; r++ {
			if err := os.Remove(ckpt.Path(dir, r, ep)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, hub := range []int64{0, -1} {
		res, err := Run(Options{
			Params: pr, Part: newPart(), Seed: 19, Workers: 2, HubPrefix: hub,
			Checkpoint: &CheckpointOptions{Dir: dir, Every: 0, Keep: 1000, Resume: true},
		}, false)
		if err != nil {
			t.Fatalf("resume with hub=%d: %v", hub, err)
		}
		equalEdges(t, fmt.Sprintf("resume with hub=%d", hub), res.Graph.Edges, base.Graph.Edges)
		var hits int64
		for _, st := range res.Ranks {
			hits += st.HubCacheHits
		}
		if (hits > 0) != (hub == 0) {
			t.Fatalf("resume with hub=%d: %d replica hits", hub, hits)
		}
	}
}

// Four workers against one at two ranks, hub cache off and on, edge list
// for edge list, with enough cross-rank traffic that every send buffer
// fills and flushes many times; any lost or doubled message shows up as
// a wrong edge list or a hang. (Named for the per-worker send scratch
// whose capacity boundary it first guarded; sends now go straight to
// comm.)
func TestWorkerScratchCapBoundary(t *testing.T) {
	pr := model.Params{N: 20_000, X: 4, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, hub := range []int64{-1, 0} {
		base, err := Run(Options{Params: pr, Part: part, Seed: 23, Workers: 1, HubPrefix: hub}, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Options{Params: pr, Part: part, Seed: 23, Workers: 4, HubPrefix: hub}, false)
		if err != nil {
			t.Fatal(err)
		}
		equalEdges(t, "scratch boundary", res.Graph.Edges, base.Graph.Edges)
		var reqs int64
		for _, st := range res.Ranks {
			reqs += st.Comm.RequestsSent
		}
		// Sanity: enough per-destination traffic that the capacity
		// flush fired constantly.
		if reqs < 10*comm.DefaultBufferCap {
			t.Fatalf("only %d requests crossed the wire; the flush path was barely exercised", reqs)
		}
	}
}
