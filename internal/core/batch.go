package core

import "pagen/internal/xrand"

// Batched initiation: draw, gather, commit (DESIGN.md §8.5, §8.6).
//
// A node's x first attempts depend only on its own random stream, so
// they can be drawn before any of its copy sources has been read. The
// generation pass therefore starts nodes a window at a time: draw every
// node's attempts, read all the window's copy sources in one tight loop —
// independent loads of uniformly random F slots, so their cache and TLB
// misses overlap instead of queueing behind each node's bookkeeping —
// and then commit node by node. Whatever cannot commit straight-line is
// handed to advance at that edge, with the stream state saved before the
// attempt, so the irregular cases (duplicate retry, unresolved or remote
// source) run the one continuation path at the exact stream position.
//
// Draw and gather write nothing but their own scratch, so Options.Workers
// is the width of a parallel-for over them: the window is cut into
// stripes, helper goroutines draw and gather stripes 1…k-1 while the rank
// goroutine does stripe 0, and after the barrier the rank goroutine alone
// commits every stripe in node order. F is written only between windows,
// so the helpers read it with plain loads; the hand-off and the barrier
// are the happens-before edges, and they are the only concurrent step in
// the engine. The output cannot depend on the stripe layout: a gathered
// value >= 0 is final (slots are write-once), and a gathered -1 — the
// source may sit in an earlier stripe of this very window — is re-read by
// advance after that node's commit, exactly as for a source inside one
// stripe.

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

// worker is one lane of the window's parallel-for: a stripe's scratch and
// the stream its draws are made with. Lane 0 belongs to the rank
// goroutine; every other lane has a helper goroutine parked on start. A
// lane owns no nodes and no protocol state — it never writes F, a table,
// a send buffer or the sink.
type worker struct {
	rng   xrand.Rand // re-seeded per node
	start chan struct{}

	// The stripe: nb admitted nodes; per-attempt arrays hold node i's
	// edge e at i*x + e.
	nb  int
	t   []int64 // admitted node ids
	idx []int64 // their local indices
	ne  []int   // edges drawn: x, or the edge of the first remote copy

	st  [][4]uint64 // stream state before the attempt
	k   []int64     // drawn candidate
	l   []int32     // copied slot index, -1 for a direct attempt
	src []int64     // flat F slot of a local copy's source
	val []int64     // attachment value: k if direct, the gathered F value (-1 = NILL) if copied
	gat []int32     // attempt indices of the local copies, in draw order
}

func newWorker(nodes, x int) *worker {
	n := nodes * x
	return &worker{
		t:   make([]int64, nodes),
		idx: make([]int64, nodes),
		ne:  make([]int, nodes),
		st:  make([][4]uint64, n),
		k:   make([]int64, n),
		l:   make([]int32, n),
		src: make([]int64, n),
		val: make([]int64, n),
		gat: make([]int32, 0, n),
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

// drawGather fills lane w's stripe scratch. It reads F and writes only w,
// so lanes run it concurrently.
func (e *engine) drawGather(w *worker) {
	x := e.x

	// Draw: each node's x first attempts from its own stream. They are
	// valid up to the node's first irregular edge — a retry there shifts
	// every later draw — so the state saved before each attempt is what
	// advance continues from. A remote copy always hands over, so drawing
	// stops there.
	gat := w.gat[:0]
	for i := 0; i < w.nb; i++ {
		t := w.t[i]
		w.rng.SeedStream(e.seed, uint64(t))
		d := e.opts.Params.NewDrawer(t)
		ne := x
		for edge, j := 0, i*x; edge < x; edge, j = edge+1, j+1 {
			w.st[j] = w.rng.State()
			a := d.Next(&w.rng)
			w.k[j] = a.K
			if a.Direct {
				w.l[j] = -1
				w.val[j] = a.K
				continue
			}
			w.l[j] = int32(a.L)
			owner, kidx := e.locate(a.K)
			if owner != e.rank {
				ne = edge
				break
			}
			w.src[j] = kidx*e.x64 + int64(a.L)
			gat = append(gat, int32(j))
		}
		w.ne[i] = ne
	}

	// Gather: nothing between consecutive loads, so the misses overlap.
	// A value >= 0 is final (slots are write-once); -1 is not an answer —
	// the source may be an earlier node of this very window.
	f := e.f
	for _, j := range gat {
		w.val[j] = f.get(w.src[j])
	}
}

// commit finalises lane w's stripe on the rank goroutine, in node order
// so that an intra-window source is final by the time its reader's
// hand-over re-reads it.
func (e *engine) commit(w *worker) {
	x := e.x
	for i := 0; i < w.nb; i++ {
		t, idx, o := w.t[i], w.idx[i], i*x
		base := idx * e.x64
		edge := 0
		for ; edge < w.ne[i]; edge++ {
			j := o + edge
			v := w.val[j]
			if v < 0 || contains(w.val[o:j], v) {
				break
			}
			if l := w.l[j]; l < 0 {
				if e.trace != nil {
					e.trace.RecordDirect(t, edge, v)
				}
			} else {
				// A same-rank copy query counts toward the source
				// node's received load (Lemma 3.4's M_k). Only here: a
				// handed-over attempt is re-drawn, and counted, by
				// advance.
				if e.nodeLoad != nil {
					e.nodeLoad[w.src[j]/e.x64]++
				}
				if e.trace != nil {
					e.trace.RecordCopy(t, edge, w.k[j], int(l))
				}
			}
			e.resolveSlot(t, edge, base+int64(edge), v)
		}
		if edge < x {
			w.rng.SetState(w.st[o+edge])
			e.advance(t, idx, edge, &w.rng)
		}
	}
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
