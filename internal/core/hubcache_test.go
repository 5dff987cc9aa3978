package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"pagen/internal/ckpt"
	"pagen/internal/comm"
	"pagen/internal/model"
	"pagen/internal/msg"
	"pagen/internal/partition"
	"pagen/internal/transport"
)

// The tentpole invariant: the hub-prefix cache changes traffic, never
// output. For every partition scheme, rank count and worker count, the
// edge list with the cache off, auto-sized, and at a fixed size must be
// identical element for element (a replica hit returns the same
// immutable value a round trip would).
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
// per-node sum Load+Elided equals the cache-off Load. The draw sequence
// is schedule-invariant (attempts that are functions of their index, value-determined
// retries), which makes this an equality, not an approximation.
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

// Randomly delayed delivery with the cache enabled must not change the
// output: publishes arriving late just turn hits into misses, and the
// wire answer installs the same value. Per-rank edge lists are compared
// against an undisturbed run, not just counted.
func TestHubCacheChaosDelay(t *testing.T) {
	pr := model.Params{N: 6_000, X: 3, P: 0.5}
	const p = 4
	part, err := partition.New(partition.KindRRP, pr.N, p)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Params: pr, Part: part, Seed: 11, HubPrefix: 0}

	run := func(wrap func(r int, tr transport.Transport) transport.Transport) []*RankResult {
		group, err := transport.NewLocalGroup(p)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		results := make([]*RankResult, p)
		errs := make([]error, p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				tr := wrap(r, group.Endpoint(r))
				defer tr.Close()
				results[r], errs[r] = RunRank(tr, opts)
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		return results
	}

	clean := run(func(r int, tr transport.Transport) transport.Transport { return tr })
	chaotic := run(func(r int, tr transport.Transport) transport.Transport {
		return transport.NewChaos(tr, transport.ChaosConfig{
			Seed:      uint64(300 + r),
			DelayProb: 0.3,
			MaxDelay:  500 * time.Microsecond,
		})
	})
	for r := 0; r < p; r++ {
		equalEdges(t, "delay injection with cache on", chaotic[r].Edges, clean[r].Edges)
	}
}

// publishFilter is a transport wrapper that drops (and optionally
// duplicates) hub publishes in flight. Publishes are the one message
// kind the protocol may lose — a dropped publish only costs a replica
// miss, and installs are idempotent so a duplicated one is harmless.
// Fences and data messages pass through untouched.
type publishFilter struct {
	transport.Transport
	dup     bool // re-send surviving publish frames a second time
	dropped int64
}

func (f *publishFilter) Send(to int, data []byte) error {
	ms, err := msg.DecodeBatch(nil, data)
	if err != nil {
		return f.Transport.Send(to, data)
	}
	keep := ms[:0]
	var pubs []msg.Message
	for _, m := range ms {
		if m.Kind == msg.KindPublish {
			pubs = append(pubs, m)
			continue
		}
		keep = append(keep, m)
	}
	if len(pubs) == 0 {
		return f.Transport.Send(to, data)
	}
	if f.dup {
		// Deliver each publish twice instead of dropping it.
		keep = append(keep, pubs...)
		keep = append(keep, pubs...)
	} else {
		f.dropped += int64(len(pubs))
	}
	if len(keep) == 0 {
		transport.ReleaseFrame(data)
		return nil
	}
	frame := msg.AppendEncodeBatchV2(transport.LeaseFrame(len(data))[:0], keep)
	transport.ReleaseFrame(data)
	return f.Transport.Send(to, frame)
}

// runFiltered runs a p-rank job with every endpoint wrapped in a
// publishFilter and returns the per-rank results plus the filters.
func runFiltered(t *testing.T, opts Options, p int, dup bool) ([]*RankResult, []*publishFilter) {
	t.Helper()
	group, err := transport.NewLocalGroup(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]*RankResult, p)
	errs := make([]error, p)
	filters := make([]*publishFilter, p)
	for r := 0; r < p; r++ {
		filters[r] = &publishFilter{Transport: group.Endpoint(r), dup: dup}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer filters[r].Close()
			results[r], errs[r] = RunRank(filters[r], opts)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return results, filters
}

// Losing every publish in flight must degrade the cache to a no-op, not
// corrupt the run: requests fall back to the wire (answers still install
// locally), fences still arrive, and the output is identical to the
// cache-off run. Duplicated publishes must be equally harmless
// (idempotent installs).
func TestHubCachePublishDropAndDup(t *testing.T) {
	pr := model.Params{N: 6_000, X: 3, P: 0.5}
	const p = 4
	part, err := partition.New(partition.KindRRP, pr.N, p)
	if err != nil {
		t.Fatal(err)
	}
	baseline, _ := runFiltered(t, Options{Params: pr, Part: part, Seed: 17, HubPrefix: -1}, p, false)

	dropped, filters := runFiltered(t, Options{Params: pr, Part: part, Seed: 17, HubPrefix: 0}, p, false)
	var lost, pubRecv int64
	for r := 0; r < p; r++ {
		equalEdges(t, "all publishes dropped", dropped[r].Edges, baseline[r].Edges)
		lost += filters[r].dropped
		pubRecv += dropped[r].Stats.Comm.PublishRecv
	}
	if lost == 0 {
		t.Fatal("filter dropped no publishes; the run never exercised the loss path")
	}
	if pubRecv != 0 {
		t.Fatalf("%d publishes were received despite the drop filter", pubRecv)
	}

	duplicated, _ := runFiltered(t, Options{Params: pr, Part: part, Seed: 17, HubPrefix: 0}, p, true)
	for r := 0; r < p; r++ {
		equalEdges(t, "all publishes duplicated", duplicated[r].Edges, baseline[r].Edges)
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
