package core

import (
	"pagen/internal/model"
	"pagen/internal/xrand"
)

// Batched initiation: draw, gather, commit (DESIGN.md §8.5, §8.6).
//
// An attempt is a pure function of its index (model.Drawer.Attempt), so
// every node's x first attempts — each one the sequential model
// evaluates — can be drawn before any copy source has been read. The
// generation pass therefore starts nodes a window at a time: draw every
// node's first attempts, read all the window's local copy sources and
// hub-replica slots in one tight loop — independent loads of uniformly
// random slots, so their cache and TLB misses overlap — and then commit
// node by node. A node commits straight-line while its values are final
// and distinct; at its first other edge commit issues every remaining
// first attempt at once and hands the node to settle (resolve.go).
//
// Draw and gather write nothing but their own scratch, so Options.Workers
// is the width of a parallel-for over them: the window is cut into
// stripes, helper goroutines draw and gather stripes 1…k-1 while the rank
// goroutine does stripe 0, and after the barrier the rank goroutine alone
// commits every stripe in node order. F is written only between windows
// and the hub replica only before the first, so the helpers read them
// with plain loads; the hand-off and the barrier are the happens-before
// edges, and they are the only concurrent step in the engine. The output cannot depend on the
// stripe layout: a gathered value >= 0 is final (slots are write-once),
// and a gathered -1 — the source may sit in an earlier stripe of this
// very window — is read again when commit issues the attempt.

const (
	// batchNodes is a one-worker rank's stripe, and so its whole window;
	// sizes from 4 to 64 measured within noise of each other.
	batchNodes = 16
	// stripeNodes is a stripe's capacity when the rank has helpers: large
	// enough that a wake-up and a barrier are small beside the work they
	// buy, small enough that a stripe's scratch stays in cache. 256, 512
	// and 1024 were measured at one rank × two workers; 512 was fastest
	// in every round (DESIGN.md §8.6).
	stripeNodes = 512
	// minStripeNodes is the smallest stripe worth handing to a helper. A
	// window that cannot give two lanes this much (a short poll interval,
	// the tail of the node range) runs inline on the rank goroutine.
	minStripeNodes = 64
)

// Kinds of a drawn first attempt: direct, or a copy of a slot of this
// rank's F, of a remote slot the hub replica covers, of another one.
const (
	attDirect uint8 = iota
	attLocal
	attHub
	attRemote
)

// worker is one lane of the window's parallel-for: a stripe's scratch and
// the generator its draws are made with. Lane 0 belongs to the rank
// goroutine; every other lane has a helper goroutine parked on start. A
// lane owns no nodes and no protocol state — it never writes F, a table,
// a send buffer or the sink.
type worker struct {
	rng   xrand.Rand // re-seeded per attempt
	start chan struct{}

	// The stripe: nb admitted nodes; per-attempt arrays hold node i's
	// edge e at i*x + e.
	nb  int
	t   []int64 // admitted node ids
	idx []int64 // their local indices

	kind []uint8
	k    []int64 // drawn candidate
	l    []int32 // copied slot index
	src  []int64 // the copied slot, in F (attLocal) or the replica (attHub)
	val  []int64 // k if direct, else the gathered value (-1: NILL or none)
	gat  []int32 // attempt indices of the gathered copies, in draw order
}

func newWorker(nodes, x int) *worker {
	n := nodes * x
	return &worker{
		t:    make([]int64, nodes),
		idx:  make([]int64, nodes),
		kind: make([]uint8, n),
		k:    make([]int64, n),
		l:    make([]int32, n),
		src:  make([]int64, n),
		val:  make([]int64, n),
		gat:  make([]int32, 0, n),
	}
}

// startHelpers launches the helper goroutines of lanes 1…; stopHelpers
// must follow on every path.
func (e *engine) startHelpers() {
	for _, w := range e.workers[1:] {
		start := make(chan struct{}, 1)
		w.start = start
		e.helpers.Add(1)
		go func(w *worker) {
			defer e.helpers.Done()
			for range start {
				e.drawGather(w)
				e.gathered.Done()
			}
		}(w)
	}
}

// stopHelpers ends the helper goroutines and waits for them to exit.
// They are parked between windows when it runs: initiate does not return
// before its barrier.
func (e *engine) stopHelpers() {
	for _, w := range e.workers[1:] {
		close(w.start)
	}
	e.helpers.Wait()
}

// initiate admits the next window of local indices at the cursor — at
// most one stripe per lane, and never past the poll boundary, so the
// poll, checkpoint-pause and yield cadence count indices exactly as a
// one-node-at-a-time pass would — and starts their nodes. Clique and
// bootstrap nodes are stepped over; a restored run's cursor starts past
// every node its snapshot initiated. This is the only way a node's
// generation starts; a window is never interrupted, so a checkpoint cut
// still finds every node below the cursor suspended or finished and
// every node from it on untouched.
func (e *engine) initiate() {
	lo := e.cursor
	n := e.size - lo
	if room := int64(e.poll - e.sincePoll); n > room {
		n = room
	}
	// As many lanes as the window can give a worthwhile stripe, and no
	// more nodes than those lanes' scratch holds.
	lanes := int64(len(e.workers))
	if most := n / minStripeNodes; lanes > most {
		lanes = max(most, 1)
	}
	if most := lanes * int64(len(e.workers[0].t)); n > most {
		n = most
	}
	per := (n + lanes - 1) / lanes
	idx, end := lo, lo+n
	for _, w := range e.workers[:lanes] {
		hi := min(idx+per, end)
		w.nb = 0
		for ; idx < hi; idx++ {
			t := e.part.NodeAt(e.rank, idx)
			if t <= e.x64 {
				continue
			}
			w.t[w.nb], w.idx[w.nb] = t, idx
			w.nb++
			if e.ckTrig {
				e.ck.initiated++
			}
		}
	}
	e.cursor = end
	e.sincePoll += int(n)

	if lanes > 1 {
		e.gathered.Add(int(lanes) - 1)
		for _, w := range e.workers[1:lanes] {
			w.start <- struct{}{}
		}
	}
	e.drawGather(e.workers[0])
	if lanes > 1 {
		e.gathered.Wait()
	}
	for _, w := range e.workers[:lanes] {
		e.commit(w)
	}
}

// drawGather fills lane w's stripe scratch. It reads F and the hub
// replica and writes only w, so lanes run it concurrently.
func (e *engine) drawGather(w *worker) {
	x, hub := e.x, e.hub

	gat := w.gat[:0]
	for i := 0; i < w.nb; i++ {
		d := e.opts.Params.NewDrawer(w.t[i])
		for edge, j := 0, i*x; edge < x; edge, j = edge+1, j+1 {
			a := d.Attempt(&w.rng, e.seed, edge, 0)
			w.k[j] = a.K
			if a.Direct {
				w.kind[j], w.val[j] = attDirect, a.K
				continue
			}
			w.l[j], w.val[j] = int32(a.L), -1
			owner, kidx := e.locate(a.K)
			switch {
			case owner == e.rank:
				w.kind[j], w.src[j] = attLocal, kidx*e.x64+int64(a.L)
			case hub != nil && a.K < hub.h:
				w.kind[j], w.src[j] = attHub, a.K*e.x64+int64(a.L)
			default:
				w.kind[j] = attRemote
				continue
			}
			gat = append(gat, int32(j))
		}
	}

	// Gather: nothing between consecutive loads, so the misses overlap.
	w.gat = gat
	f := e.f
	for _, j := range gat {
		if w.kind[j] == attLocal {
			w.val[j] = f.get(w.src[j])
		} else {
			w.val[j] = hub.f.get(w.src[j])
		}
	}
}

// commit finalises lane w's stripe on the rank goroutine, in node order
// so that an intra-window source is final by the time its reader's
// attempt is issued again. From a node's first edge that cannot commit
// straight-line, every later first attempt is issued now and its value,
// if in hand, parked in the node's ahead block (DESIGN.md §8.5).
func (e *engine) commit(w *worker) {
	x := e.x
	for i := 0; i < w.nb; i++ {
		t, idx, o := w.t[i], w.idx[i], i*x
		base := idx * e.x64
		c := 0
		for ; c < x; c++ {
			j := o + c
			v := w.val[j]
			if v < 0 || contains(w.val[o:j], v) {
				break
			}
			e.answered(w, t, c, j)
			e.resolveSlot(t, c, base+int64(c), v)
		}
		if c == x {
			continue
		}
		st := suspState{e: int32(c), blk: e.ahead.alloc()}
		b := e.ahead.block(st.blk)
		for edge := c + 1; edge < x; edge++ {
			v, ok := e.issueDrawn(w, t, edge, o+edge)
			if !ok {
				v = aheadWaiting
			}
			b[edge] = v
		}
		if v, ok := e.issueDrawn(w, t, c, o+c); ok {
			e.settle(t, idx, st, v)
		} else {
			e.susp.put(idx, st)
		}
	}
}

// issueDrawn issues first attempt j, node t's edge, as the window drew
// it: a value in hand is counted and returned, a copy without one goes
// down the query path.
func (e *engine) issueDrawn(w *worker, t int64, edge, j int) (int64, bool) {
	if v := w.val[j]; v >= 0 {
		e.answered(w, t, edge, j)
		return v, true
	}
	return e.issue(t, edge, model.Attempt{K: w.k[j], L: int(w.l[j])})
}

// answered counts and traces first attempt j, whose value the window had
// in hand, when there is anything to count; it inlines into commit.
func (e *engine) answered(w *worker, t int64, edge, j int) {
	if w.kind[j] == attHub || e.trace != nil || e.nodeLoad != nil {
		e.observe(w, t, edge, j)
	}
}

// observe is answered's slow path: a replica hit counts as an elided
// query, a same-rank copy toward the source node's received load (Lemma
// 3.4's M_k).
func (e *engine) observe(w *worker, t int64, edge, j int) {
	switch w.kind[j] {
	case attLocal:
		if e.nodeLoad != nil {
			e.nodeLoad[w.src[j]/e.x64]++
		}
	case attHub:
		e.stats.HubCacheHits++
		e.noteElided(w.k[j])
	}
	e.record(t, edge, model.Attempt{K: w.k[j], L: int(w.l[j]), Direct: w.kind[j] == attDirect})
}

// contains reports whether v is among vs (a node's earlier attachments).
func contains(vs []int64, v int64) bool {
	for _, u := range vs {
		if u == v {
			return true
		}
	}
	return false
}
