package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"pagen/internal/ckpt"
	"pagen/internal/comm"
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/transport"
)

// The hub-prefix cache changes traffic, never output (DESIGN.md §8.1):
// for these schemes, rank and worker counts the edge list with the
// cache off, auto-sized, and at a fixed size must be identical element
// for element — and the cache must actually hit, and leave no publish in
// flight, on every multi-rank run, the four-rank UCP one included.
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
				var hits, pubSent, pubRecv int64
				for _, st := range res.Ranks {
					hits += st.HubCacheHits
					pubSent += st.Comm.PublishSent
					pubRecv += st.Comm.PublishRecv
				}
				if tc.ranks > 1 {
					if hits == 0 {
						t.Errorf("%v ranks=%d workers=%d hub=%d: cache never hit", tc.kind, tc.ranks, workers, hub)
					}
					// Fences trail publishes on each pairwise FIFO channel
					// and a rank only exits after collecting every fence, so
					// at run end no publish is in flight.
					if pubSent != pubRecv {
						t.Errorf("%v ranks=%d workers=%d hub=%d: %d publishes sent, %d received",
							tc.kind, tc.ranks, workers, hub, pubSent, pubRecv)
					}
				} else if hits != 0 || pubSent != 0 {
					t.Errorf("single rank engaged the cache: hits=%d publishes=%d", hits, pubSent)
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

// Seeded reordering with the cache enabled must not change the output:
// publishes arriving late just turn hits into misses, and the wire
// answer installs the same value. The edges are the model's, and so is
// every query the replicas did not elide.
func TestHubCacheChaosDelay(t *testing.T) {
	c := simConfig{N: 6_000, X: 3, P: 0.5, Seed: 11, Scheme: partition.KindRRP, Ranks: 4, Workers: 1, Deliver: 0.1}
	for _, sched := range []uint64{300, 301, 302} {
		c.Sched = sched
		checkSims(t, c)
	}
}

// Losing every publish in flight must degrade the cache to a no-op, not
// corrupt the run: requests fall back to the wire (answers still install
// locally), fences still arrive, and the output is the model's.
// Duplicated publishes must be equally harmless (idempotent installs).
// Publishes are the one message kind the protocol may lose (DESIGN.md
// §10.1).
func TestHubCachePublishDropAndDup(t *testing.T) {
	c := simConfig{N: 6_000, X: 3, P: 0.5, Seed: 17, Scheme: partition.KindRRP, Ranks: 4, Workers: 1, Sched: 17}
	c.PubDrop = 1
	dropped := checkSims(t, c)[0]
	if !dropped.pubFaults {
		t.Fatal("no publish dropped; the run never exercised the loss path")
	}
	if dropped.pubRecv != 0 {
		t.Fatalf("%d publishes were received, all were dropped", dropped.pubRecv)
	}
	c.PubDrop, c.PubDup = 0, 1
	if !checkSims(t, c)[0].pubFaults {
		t.Fatal("no publish duplicated; the run never exercised the duplicate path")
	}
}

// Mismatched hub-prefix settings across ranks must surface as an error
// naming the cause, never a hang or silent corruption.
func TestHubCacheMismatchedSettingsError(t *testing.T) {
	pr := model.Params{N: 4_000, X: 3, P: 0.5}
	const p = 2
	part, err := partition.New(partition.KindRRP, pr.N, p)
	if err != nil {
		t.Fatal(err)
	}
	group, err := transport.NewLocalGroup(p)
	if err != nil {
		t.Fatal(err)
	}
	// Mirror Run's abort broadcast: the erroring rank closes every
	// endpoint so its peers unwind instead of waiting on fences that
	// will never come.
	var closeOnce sync.Once
	abort := func() {
		closeOnce.Do(func() {
			for r := 0; r < p; r++ {
				group.Endpoint(r).Close()
			}
		})
	}
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		hub := int64(0)
		if r == 1 {
			hub = -1
		}
		wg.Add(1)
		go func(r int, hub int64) {
			defer wg.Done()
			_, errs[r] = RunRank(group.Endpoint(r), Options{
				Params: pr, Part: part, Seed: 3, HubPrefix: hub,
			})
			if errs[r] != nil {
				abort()
			}
		}(r, hub)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("mismatched hub settings hung the cluster")
	}
	found := false
	for _, err := range errs {
		if err != nil && strings.Contains(err.Error(), "hub") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no rank reported the mismatch: %v", errs)
	}
}

// Replica internals: a fresh replica covers h*x slots, all unknown, and
// the publish fan-out follows the request matrix — strictly
// lower-triangular under contiguous partitions, full mesh under
// round-robin.
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

	ucp, err := partition.New(partition.KindUCP, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	rrp, err := partition.New(partition.KindRRP, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := hubPeerRanks(ucp, 1, 4); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("UCP rank 1 publishes to %v, want [2 3]", got)
	}
	if got := hubPeerRanks(ucp, 3, 4); len(got) != 0 {
		t.Fatalf("UCP last rank publishes to %v, want none", got)
	}
	if got := hubPeerRanks(rrp, 1, 4); len(got) != 3 {
		t.Fatalf("RRP rank 1 publishes to %v, want all 3 peers", got)
	}
}

// Kill-and-resume with the cache on: the replica is never serialized, so
// a resumed rank must re-derive its contribution by republishing every
// resolved prefix slot it owns, and coalescing chains captured in the
// snapshot must come back. The resumed output is compared edge for edge
// with the uninterrupted run.
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

	res, err := Run(Options{
		Params: pr, Part: newPart(), Seed: 19, Workers: 2, HubPrefix: 0,
		Checkpoint: &CheckpointOptions{Dir: dir, Every: 0, Keep: 1000, Resume: true},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	equalEdges(t, "resume with cache on", res.Graph.Edges, base.Graph.Edges)
	var pubs int64
	for _, st := range res.Ranks {
		pubs += st.Comm.PublishSent
	}
	// The snapshot was taken mid-run, so some owned prefix slots were
	// already resolved; publishResolvedPrefix must have re-seeded them.
	if pubs == 0 {
		t.Fatal("resumed run published nothing; replica was not re-derived")
	}

	// Resuming a cache-on snapshot with the cache off either fails
	// loudly (the snapshot captured coalescing chains the cache-off
	// engine cannot host) or — when no chain happened to be in flight at
	// the cut — degrades cleanly to identical output. Both are correct;
	// a hang or divergent output is not.
	res, err = Run(Options{
		Params: pr, Part: newPart(), Seed: 19, Workers: 2, HubPrefix: -1,
		Checkpoint: &CheckpointOptions{Dir: dir, Every: 0, Keep: 1000, Resume: true},
	}, false)
	if err != nil {
		if !strings.Contains(err.Error(), "hub") {
			t.Fatalf("cache-off resume failed with an unrelated error: %v", err)
		}
	} else {
		equalEdges(t, "resume with cache off", res.Graph.Edges, base.Graph.Edges)
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
