package core

import (
	"fmt"
	"testing"

	"pagen/internal/comm"
	"pagen/internal/model"
	"pagen/internal/msg"
	"pagen/internal/partition"
	"pagen/internal/seq"
	"pagen/internal/transport"
	"pagen/internal/xrand"
)

// runLayout runs pr at ranks x workers (RRP) and returns the result.
func runLayout(t *testing.T, pr model.Params, seed uint64, ranks, workers int) *Result {
	t.Helper()
	return runPolled(t, pr, seed, ranks, workers, 0)
}

// runPolled is runLayout with the poll interval pinned (0 = default).
func runPolled(t *testing.T, pr model.Params, seed uint64, ranks, workers, pollEvery int) *Result {
	t.Helper()
	res, err := Run(Options{
		Params: pr, Part: mustScheme(t, partition.KindRRP, pr.N, ranks),
		Seed: seed, Workers: workers, pollEvery: pollEvery,
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Nearly every node of a small, dense, copy-heavy run has a source inside
// its own batch (NILL at gather time) and duplicate retries, so almost
// every node leaves the straight-line path — and the output must still be
// the sequential one. (p = 0 is rejected for x > 1; 0.05 is as
// copy-heavy as the model allows without risking a livelock.)
func TestBatchIntraBatchSources(t *testing.T) {
	pr := model.Params{N: 64, X: 8, P: 0.05}
	for seed := uint64(1); seed <= 5; seed++ {
		sg, _, err := seq.CopyModel(pr, seed, seq.CopyModelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res := runLayout(t, pr, seed, 1, 1)
		equalEdges(t, fmt.Sprintf("seed %d 1x1", seed), res.Graph.Edges, sg.Edges)
		if st := res.Ranks[0]; st.Retries == 0 {
			t.Fatalf("seed %d: no duplicate retries; the case does not exercise the hand-over", seed)
		}
		want := edgeSet(t, sg.Edges)
		sameEdgeSet(t, fmt.Sprintf("seed %d 1x2", seed), runLayout(t, pr, seed, 1, 2).Graph.Edges, want)
		sameEdgeSet(t, fmt.Sprintf("seed %d 2x1", seed), runLayout(t, pr, seed, 2, 1).Graph.Edges, want)
	}
}

// The whole run is one window cut into two or three stripes, so nearly
// every node's copy source sits in another stripe of its own window —
// NILL when a helper gathers it, final by the time the node-order commit
// hands the reader to advance. The edge list must still be the
// sequential one at one rank, and the edge set at two (where pinning the
// poll interval to the rank size keeps each rank's range one window).
func TestBatchCrossStripeSources(t *testing.T) {
	pr := model.Params{N: 512, X: 8, P: 0.05}
	for seed := uint64(1); seed <= 5; seed++ {
		sg, _, err := seq.CopyModel(pr, seed, seq.CopyModelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := edgeSet(t, sg.Edges)
		for _, workers := range []int{2, 3} {
			res := runLayout(t, pr, seed, 1, workers)
			equalEdges(t, fmt.Sprintf("seed %d 1x%d", seed, workers), res.Graph.Edges, sg.Edges)
			if res.Ranks[0].Retries == 0 {
				t.Fatalf("seed %d 1x%d: no duplicate retries; the case does not exercise the hand-over", seed, workers)
			}
			res = runPolled(t, pr, seed, 2, workers, int(pr.N)/2)
			sameEdgeSet(t, fmt.Sprintf("seed %d 2x%d", seed, workers), res.Graph.Edges, want)
		}
	}
}

// A window too small to give two lanes a stripe runs inline: with the
// poll interval pinned to 1 every window is a single node, helpers never
// run, and the output is still the sequential edge list.
func TestBatchInlineWindows(t *testing.T) {
	pr := model.Params{N: 2_000, X: 4, P: 0.5}
	sg, _, err := seq.CopyModel(pr, 9, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	equalEdges(t, "pollEvery 1, workers 4", runPolled(t, pr, 9, 1, 4, 1).Graph.Edges, sg.Edges)
}

// A node whose second attempt duplicates its first must continue from
// the stream state saved before that attempt: the pre-drawn attempts for
// its later edges are void once the retry shifts the stream. Node 179 of
// (n = 200, x = 4, p = 0.5, seed = 1) is such a node — found by search,
// and re-verified here by replaying its stream against the sequential
// output — with both sources final at gather time, so the duplicate is
// caught by the commit phase's own value buffer.
func TestBatchDuplicateHandOver(t *testing.T) {
	pr := model.Params{N: 200, X: 4, P: 0.5}
	const seed, node = 1, int64(179)
	sg, _, err := seq.CopyModel(pr, seed, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// F_t(e) from the sequential edge list (node order, x edges per node
	// from node x on, after the clique's x(x-1)/2).
	x := int64(pr.X)
	f := func(t int64, e int) int64 { return sg.Edges[x*(x-1)/2+(t-x)*x+int64(e)].V }
	var rng xrand.Rand
	rng.SeedStream(seed, uint64(node))
	d := pr.NewDrawer(node)
	value := func(a model.Attempt) int64 {
		if a.Direct {
			return a.K
		}
		return f(a.K, a.L)
	}
	a0, a1 := d.Next(&rng), d.Next(&rng)
	if value(a0) != value(a1) || value(a0) != f(node, 0) {
		t.Fatalf("node %d: attempts %+v, %+v no longer collide; re-run the search", node, a0, a1)
	}
	if a0.K/batchNodes == node/batchNodes || a1.K/batchNodes == node/batchNodes {
		t.Fatalf("node %d: a source shares its batch; pick a node whose sources are final at gather time", node)
	}

	res := runLayout(t, pr, seed, 1, 1)
	equalEdges(t, "1x1", res.Graph.Edges, sg.Edges)
	if res.Ranks[0].Retries == 0 {
		t.Fatal("no retries counted")
	}
}

// The batch kernel counts a same-rank copy query exactly where the
// per-node kernel did — once per attempt that read the source, retried
// attempts included. Constants recorded on the commit before batched
// initiation (e472336).
func TestBatchNodeLoadUnchanged(t *testing.T) {
	pr := model.Params{N: 20_000, X: 4, P: 0.5}
	res, err := Run(Options{
		Params: pr, Part: mustScheme(t, partition.KindRRP, pr.N, 1),
		Seed: 42, Workers: 1, CollectNodeLoad: true,
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	load := res.Ranks[0].NodeLoad
	var sum int64
	for _, l := range load {
		sum += l
	}
	if sum != 39855 {
		t.Fatalf("sum of NodeLoad = %d, want 39855", sum)
	}
	// The three most-loaded nodes.
	for _, c := range []struct{ k, want int64 }{{7, 26}, {8, 26}, {4, 24}} {
		if load[c.k] != c.want {
			t.Fatalf("NodeLoad[%d] = %d, want %d", c.k, load[c.k], c.want)
		}
	}
	if got := res.Ranks[0].Retries; got != 90 {
		t.Fatalf("Retries = %d, want 90", got)
	}
}

// locate's single-rank shortcut rests on every scheme giving one
// rank the identity layout.
func TestBatchSingleRankIdentityIndex(t *testing.T) {
	const n = 1000
	for _, kind := range allKinds {
		part := mustScheme(t, kind, n, 1)
		for k := int64(0); k < n; k++ {
			if part.Owner(k) != 0 || part.Index(0, k) != k || part.NodeAt(0, k) != k {
				t.Fatalf("%v: node %d is not at local index %d of rank 0", kind, k, k)
			}
		}
	}
}

// gatheredRequestEngine builds rank 0 of a two-rank run with local node
// 10 (local index 5, x = 1, slot 5) suspended on edge 0 — waiting on an
// answer — and returns it with rank 1's communicator and the batch that
// rank 1 sends: the resolved message that finishes slot 5, then a
// request from rank 1's node 11 for that very slot.
func gatheredRequestEngine(t *testing.T) (*engine, *comm.Comm, []msg.Message) {
	t.Helper()
	pr := model.Params{N: 64, X: 1, P: 0.5}
	group, err := transport.NewShmGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(group.Endpoint(0), Options{
		Params: pr, Part: mustScheme(t, partition.KindRRP, pr.N, 2),
		Seed: 1, Workers: 1, HubPrefix: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.bootstrap()
	const node, idx = int64(10), int64(5)
	if got := e.part.Index(0, node); got != idx {
		t.Fatalf("node %d at local index %d, want %d", node, got, idx)
	}
	var st suspState
	st.key = -1
	st.rng.SeedStream(1, uint64(node))
	e.susp.put(idx, st)
	batch := []msg.Message{msg.Resolved(node, 0, 3), msg.Request(11, 0, node, 0)}
	return e, comm.New(group.Endpoint(1), comm.Config{}), batch
}

// checkGatheredAnswer asserts that the request of gatheredRequestEngine's
// batch was answered in the same pass — slot 5 resolved by the message
// before it — and never queued.
func checkGatheredAnswer(t *testing.T, e *engine, peer *comm.Comm) {
	t.Helper()
	if v := e.f.get(5); v != 3 {
		t.Fatalf("slot 5 = %d after the batch, want 3", v)
	}
	if e.stats.QueuedWaits != 0 || e.pendingWaiters != 0 || e.waiters.has(5) {
		t.Fatalf("request queued: QueuedWaits %d, pending %d", e.stats.QueuedWaits, e.pendingWaiters)
	}
	ms, err := peer.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := msg.Resolved(11, 0, 3); len(ms) != 1 || ms[0] != want {
		t.Fatalf("rank 1 received %+v, want [%+v]", ms, want)
	}
}

// A request is served from a gather of its batch, but a gathered -1 is
// not an answer: the resolved message ahead of it in the same batch
// finishes the slot, so the request must be answered in that drain, not
// queued on a slot nothing will resolve again.
func TestBatchRequestsGatheredAfterResolve(t *testing.T) {
	e, peer, batch := gatheredRequestEngine(t)
	for _, m := range batch {
		if err := peer.Send(0, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := peer.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := e.drain(true); err != nil {
		t.Fatal(err)
	}
	checkGatheredAnswer(t, e, peer)
}

// The same batch parked during a resume negotiation and flushed once the
// restored state exists.
func TestBatchRequestsGatheredHeldFlush(t *testing.T) {
	e, peer, batch := gatheredRequestEngine(t)
	e.ck = &ckptRun{held: batch}
	if err := e.ckptFlushHeld(); err != nil {
		t.Fatal(err)
	}
	checkGatheredAnswer(t, e, peer)
}
