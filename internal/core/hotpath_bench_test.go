package core

import (
	"testing"

	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/transport"
)

// reopenAndInitiate re-opens the slots of the batchNodes nodes at local
// indices [lo, lo+batchNodes) and starts them again through the batch
// entry point, so the draw, gather and commit phases run exactly as at
// generation time.
func reopenAndInitiate(e *engine, lo int64) {
	for s := lo * e.x64; s < (lo+batchNodes)*e.x64; s++ {
		e.f.set(s, -1)
	}
	e.cursor = lo
	e.initiate()
}

// reportPerNode converts the per-iteration (one batch) time into the
// per-node figure the ledger rows are read in.
func reportPerNode(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchNodes), "ns/node")
}

// BenchmarkHotPathEngine measures the steady-state generation loop: one
// batch of batchNodes nodes' x attachment placements (initiate →
// drawGather → commit → resolveSlot) against a warm one-worker engine
// with a no-op sink. This is the zero-allocation claim of the hot path —
// after bootstrap, expect 0 allocs/op: the attempt generator and the
// stripe scratch live on the lane, the waiter table recycles its arena,
// and the sink bypasses the edge store.
func BenchmarkHotPathEngine(b *testing.B) {
	const (
		n = int64(1 << 16)
		x = 4
	)
	pr := model.Params{N: n, X: x, P: 0.5}
	part, err := partition.New(partition.KindRRP, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := transport.NewLocalGroup(1)
	if err != nil {
		b.Fatal(err)
	}
	e, err := newEngine(g.Endpoint(0), Options{
		Params:  pr,
		Part:    part,
		Seed:    1,
		Workers: 1,
		Sink:    func(int, graph.Edge) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	e.bootstrap()

	// First pass generates the graph; later passes re-open settled
	// nodes. Every earlier node stays resolved, so copy sources answer
	// immediately, as in a settled single-rank run (one rank: local
	// index = node id).
	lo := int64(x + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lo+batchNodes > n {
			lo = x + 1
		}
		reopenAndInitiate(e, lo)
		if e.err != nil {
			b.Fatal(e.err)
		}
		lo += batchNodes
	}
	reportPerNode(b)
}

// churnLive is the live entry count tableChurn holds its tables at.
const churnLive = 4096

// tableChurn drives a suspension table and a waiter table the way a
// multi-rank run does: node and slot ids only grow, and every step
// suspends a new node and resumes the oldest, queues two waiters on a
// new slot and answers the oldest slot's chain, so the live counts never
// move.
type tableChurn struct {
	susp    suspTable
	waiters waiterTable
	next    int64
	lost    int // entries a take did not find
}

func newTableChurn() *tableChurn {
	c := &tableChurn{}
	c.susp.init()
	c.waiters.init(0)
	for c.next < churnLive {
		c.add()
	}
	return c
}

func (c *tableChurn) add() {
	k := c.next
	c.susp.put(k, suspState{e: int32(k)})
	c.waiters.push(k, k, 0)
	c.waiters.push(k, k+1, 1)
	c.next++
}

func (c *tableChurn) step() {
	old := c.next - churnLive
	if st, ok := c.susp.take(old); !ok || st.e != int32(old) {
		c.lost++
	}
	n := 0
	for h := c.waiters.take(old); h != nilNode; n++ {
		w := c.waiters.arena[h]
		c.waiters.freeNode(h)
		h = w.next
	}
	if n != 2 {
		c.lost++
	}
	c.add()
}

// window replaces every live entry once.
func (c *tableChurn) window() {
	for i := 0; i < churnLive; i++ {
		c.step()
	}
}

// Once the protocol tables have reached their high-water size, churning
// them at a steady live count allocates nothing: deletion leaves no
// tombstones to force a rebuild, a table never shrinks, and the waiter
// arena recycles its nodes.
func TestHotPathTablesAllocateNothing(t *testing.T) {
	c := newTableChurn()
	c.window()
	if avg := testing.AllocsPerRun(5, c.window); avg != 0 {
		t.Errorf("a steady-state window of %d suspend/resume and queue/answer steps allocated %.1f times, want 0", churnLive, avg)
	}
	if c.lost != 0 {
		t.Fatalf("%d entries lost", c.lost)
	}
	if c.susp.live != churnLive || c.waiters.chains.live != churnLive {
		t.Fatalf("live counts %d and %d, want %d", c.susp.live, c.waiters.chains.live, churnLive)
	}
}

// BenchmarkHotPathTables measures one steady-state step of the protocol
// tables (a suspension taken and put, a two-waiter chain answered and
// queued) and fails if a warm window allocates.
func BenchmarkHotPathTables(b *testing.B) {
	c := newTableChurn()
	c.window()
	if avg := testing.AllocsPerRun(1, c.window); avg != 0 {
		b.Fatalf("a steady-state window allocated %.1f times, want 0", avg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.step()
	}
	if c.lost != 0 {
		b.Fatalf("%d entries lost", c.lost)
	}
}
