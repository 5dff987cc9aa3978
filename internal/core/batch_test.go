package core

import (
	"fmt"
	"testing"

	"pagen/internal/comm"
	"pagen/internal/model"
	"pagen/internal/msg"
	"pagen/internal/obs"
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

// A node whose edge-1 first attempt duplicates its edge 0 retries edge 1
// alone: its other edges' first attempts, drawn by the window, stay the
// ones the sequential model evaluates. The node is found by search and
// must have both colliding sources final at gather time, so the
// duplicate is caught by the commit phase's own value buffer.
func TestBatchDuplicateHandOver(t *testing.T) {
	pr := model.Params{N: 200, X: 4, P: 0.5}
	const seed = 1
	sg, _, err := seq.CopyModel(pr, seed, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// F_t(e) from the sequential edge list (node order, x edges per node
	// from node x on, after the clique's x(x-1)/2).
	x := int64(pr.X)
	f := func(t int64, e int) int64 { return sg.Edges[x*(x-1)/2+(t-x)*x+int64(e)].V }
	var rng xrand.Rand
	found := false
	for node := pr.N - 1; node > x && !found; node-- {
		d := pr.NewDrawer(node)
		a0, a1 := d.Attempt(&rng, seed, 0, 0), d.Attempt(&rng, seed, 1, 0)
		value := func(a model.Attempt) int64 {
			if a.Direct {
				return a.K
			}
			return f(a.K, a.L)
		}
		found = value(a0) == value(a1) && value(a0) == f(node, 0) &&
			a0.K/batchNodes != node/batchNodes && a1.K/batchNodes != node/batchNodes
	}
	if !found {
		t.Fatal("no node's edge-1 first attempt duplicates its edge 0 with both sources outside its window")
	}
	res := runLayout(t, pr, seed, 1, 1)
	equalEdges(t, "1x1", res.Graph.Edges, sg.Edges)
	if res.Ranks[0].Retries == 0 {
		t.Fatal("no retries counted")
	}
}

// modelLoad replays the sequential model's attempts — every one it
// evaluates, duplicates included — and returns, per node, how many copy
// attempts read one of its slots, with the number of duplicate retries.
func modelLoad(t *testing.T, pr model.Params, seed uint64) (load []int64, retries int64) {
	t.Helper()
	sg, _, err := seq.CopyModel(pr, seed, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := int64(pr.X)
	f := func(t int64, e int) int64 { return sg.Edges[x*(x-1)/2+(t-x)*x+int64(e)].V }
	load = make([]int64, pr.N)
	var rng xrand.Rand
	for node := x + 1; node < pr.N; node++ {
		d := pr.NewDrawer(node)
		for e := 0; e < pr.X; e++ {
			for r := 0; ; r++ {
				a := d.Attempt(&rng, seed, e, r)
				v := a.K
				if !a.Direct {
					load[a.K]++
					v = f(a.K, a.L)
				}
				if v == f(node, e) {
					break
				}
				retries++
			}
		}
	}
	return load, retries
}

// binLoad bins a per-node load by b's edges, the way the engine counts
// it.
func binLoad(b *obs.LoadBins, load []int64) []int64 {
	out := make([]int64, len(b.Wire))
	for k, l := range load[b.Edges[0]:] {
		out[b.Bin(b.Edges[0]+int64(k))] += l
	}
	return out
}

// The batch kernel issues exactly the attempts the sequential model
// evaluates, so it counts a same-rank copy query once per attempt that
// read the source, retried attempts included: the node-load bins and the
// retry count are the model's, bin for bin — the bins are all the
// metrics export. The constants were recorded when attempts became
// counter-based draws.
func TestBatchNodeLoadUnchanged(t *testing.T) {
	pr := model.Params{N: 20_000, X: 4, P: 0.5}
	res, err := Run(Options{
		Params: pr, Part: mustScheme(t, partition.KindRRP, pr.N, 1),
		Seed: 42, Workers: 1, CollectNodeLoad: true,
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	bins := res.Ranks[0].NodeLoad
	load, retries := modelLoad(t, pr, 42)
	want := binLoad(bins, load)
	var sum int64
	for i, l := range bins.Wire {
		sum += l
		if l != want[i] || bins.Elided[i] != 0 {
			t.Fatalf("bin [%d,%d) counts %d (+%d elided), the model's attempts read it %d times",
				bins.Edges[i], bins.Edges[i+1], l, bins.Elided[i], want[i])
		}
	}
	if sum != 39848 {
		t.Fatalf("sum of NodeLoad = %d, want 39848", sum)
	}
	// The bins of the three most-loaded nodes: [4,5), [7,9) and [9,12).
	for _, c := range []struct{ k, want int64 }{{4, 24}, {8, 36}, {9, 52}} {
		if got := bins.Wire[bins.Bin(c.k)]; got != c.want {
			t.Fatalf("bin of node %d counts %d, want %d", c.k, got, c.want)
		}
	}
	if got := res.Ranks[0].Retries; got != 112 || got != retries {
		t.Fatalf("Retries = %d, want 112 (the model retried %d times)", got, retries)
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
	blk := e.ahead.alloc()
	e.ahead.block(blk)[0] = -1 // on no coalescing chain
	e.susp.put(idx, suspState{blk: blk})
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

// peerEngine returns rank 0 of a two-rank round-robin run, bootstrapped
// and with the hub cache off, and a communicator standing in for rank 1:
// the test answers rank 0's requests itself, from the sequential model's
// table f (f(k, l) = F_k(l)).
func peerEngine(t *testing.T, pr model.Params, seed uint64) (e *engine, peer *comm.Comm, f func(k int64, l int) int64) {
	t.Helper()
	sg, _, err := seq.CopyModel(pr, seed, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := int64(pr.X)
	f = func(k int64, l int) int64 { return sg.Edges[x*(x-1)/2+(k-x)*x+int64(l)].V }
	group, err := transport.NewShmGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	e, err = newEngine(group.Endpoint(0), Options{
		Params: pr, Part: mustScheme(t, partition.KindRRP, pr.N, 2),
		Seed: seed, Workers: 1, HubPrefix: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.bootstrap()
	return e, comm.New(group.Endpoint(1), comm.Config{}), f
}

// initiateThrough runs rank 0's windows until local index idx has been
// initiated, receiving nothing — generate's loop without its drains.
func initiateThrough(e *engine, idx int64) {
	for e.cursor <= idx {
		if e.sincePoll >= e.poll {
			e.sincePoll = 0
		}
		e.initiate()
	}
}

// received flushes rank 0 and returns every message the peer has.
func received(t *testing.T, e *engine, peer *comm.Comm) []msg.Message {
	t.Helper()
	if err := e.cm.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var all []msg.Message
	for {
		ms, err := peer.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) == 0 {
			return all
		}
		all = append(all, ms...)
	}
}

// A node's first attempts are all drawn by its window, so every remote
// copy among them is requested at once — not only the first, with the
// rest waiting for its answer — and the node holds one suspension record
// with every later remote edge outstanding in its ahead block.
func TestBatchRemoteFirstAttemptsTogether(t *testing.T) {
	pr := model.Params{N: 4_000, X: 4, P: 0.5}
	const seed = 3
	e, peer, _ := peerEngine(t, pr, seed)
	var rng xrand.Rand
	node, remote := int64(-1), map[int]model.Attempt{}
	for cand := int64(3_000); cand < pr.N && len(remote) < 3; cand += 2 { // rank 0's nodes are even
		node, remote = cand, map[int]model.Attempt{}
		d := pr.NewDrawer(cand)
		for edge := 0; edge < pr.X; edge++ {
			if a := d.Attempt(&rng, seed, edge, 0); !a.Direct && a.K%2 == 1 {
				remote[edge] = a
			}
		}
	}
	if len(remote) < 3 {
		t.Fatal("no node with three remote first attempts")
	}
	idx := e.part.Index(0, node)
	initiateThrough(e, idx)
	got := map[int]model.Attempt{}
	for _, m := range received(t, e, peer) {
		if m.Kind == msg.KindRequest && m.T == node {
			got[int(m.E)] = model.Attempt{K: m.K, L: int(m.L)}
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(remote) {
		t.Fatalf("node %d's window requested %v, want every remote first attempt %v", node, got, remote)
	}
	st, ok := e.susp.get(idx)
	if !ok {
		t.Fatalf("node %d holds no suspension record", node)
	}
	b := e.ahead.block(st.blk)
	for edge := range remote {
		if edge > int(st.e) && b[edge] != aheadWaiting {
			t.Fatalf("node %d: remote edge %d past frontier %d holds %d, want it outstanding", node, edge, st.e, b[edge])
		}
	}
	unfinished := 0
	for i := range e.cursor {
		if e.part.NodeAt(0, i) > e.x64 && e.f.get(i*e.x64+e.x64-1) < 0 {
			unfinished++
		}
	}
	if unfinished != e.susp.live {
		t.Fatalf("%d unfinished nodes hold %d suspension records, want one each", unfinished, e.susp.live)
	}
}

// An answer for a later edge can arrive before an earlier edge's answer
// turns out a duplicate: the later value waits in the ahead block while
// the earlier edge retries alone, and the node still commits the
// sequential model's attachments. The peer answers each batch of
// requests in reverse, so later edges answer first, and a node whose
// remote frontier-edge first attempt is a duplicate, with a remote edge
// after it, is found by search.
func TestBatchAnswerAheadOfRetry(t *testing.T) {
	pr := model.Params{N: 6_000, X: 4, P: 0.5}
	const seed = 5
	e, peer, f := peerEngine(t, pr, seed)
	var rng xrand.Rand
	found := false
	for cand := int64(2*pr.X + 2); cand < pr.N && !found; cand += 2 {
		d := pr.NewDrawer(cand)
		dupAt := -1
		for edge := 0; edge < pr.X; edge++ {
			a := d.Attempt(&rng, seed, edge, 0)
			if a.Direct || a.K%2 == 0 {
				continue
			}
			if dupAt >= 0 {
				found = true
				break
			}
			for j := 0; j < edge; j++ {
				if f(a.K, a.L) == f(cand, j) {
					dupAt = edge
				}
			}
		}
	}
	if !found {
		t.Fatal("no node whose remote first attempt is a duplicate with a remote edge after it")
	}
	for round := 0; e.unresolved > 0; round++ {
		if round > 100_000 {
			t.Fatalf("%d slots still unresolved", e.unresolved)
		}
		if e.cursor < e.size {
			initiateThrough(e, e.cursor)
		}
		ms := received(t, e, peer)
		for i := len(ms) - 1; i >= 0; i-- {
			if m := ms[i]; m.Kind == msg.KindRequest {
				if err := peer.Send(0, msg.Resolved(m.T, int(m.E), f(m.K, int(m.L)))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := peer.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if err := e.drain(false); err != nil {
			t.Fatal(err)
		}
	}
	for idx := range e.size {
		if node := e.part.NodeAt(0, idx); node > e.x64 {
			for edge := 0; edge < e.x; edge++ {
				if got, want := e.f.get(idx*e.x64+int64(edge)), f(node, edge); got != want {
					t.Fatalf("F_%d(%d) = %d, sequential %d", node, edge, got, want)
				}
			}
		}
	}
	if e.stats.Retries == 0 || e.susp.live != 0 {
		t.Fatalf("%d retries, %d suspension records left", e.stats.Retries, e.susp.live)
	}
}
