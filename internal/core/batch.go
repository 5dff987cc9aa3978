package core

// Batched initiation: draw, gather, commit (DESIGN.md §8.5).
//
// A node's x first attempts depend only on its own random stream, so
// they can be drawn before any of its copy sources has been read. The
// generation pass therefore starts nodes batchNodes at a time: draw every
// node's attempts, read all the batch's copy sources in one tight loop —
// independent loads of uniformly random F slots, so their cache and TLB
// misses overlap instead of queueing behind each node's bookkeeping —
// and then commit node by node. Whatever cannot commit straight-line is
// handed to advance at that edge, with the stream state saved before the
// attempt, so the irregular cases (duplicate retry, unresolved or remote
// source) run the one continuation path at the exact stream position.

// batchNodes is how many nodes are initiated together. It equals the
// smallest polling interval so a batch never has to straddle a poll
// point; sizes from 4 to 64 measured within noise of each other.
const batchNodes = adaptiveMinPoll

// nodeBatch is a worker's batch scratch, allocated once in newWorker.
// Per-attempt arrays hold node i's edge e at i*x + e.
type nodeBatch struct {
	t    [batchNodes]int64 // admitted node ids
	base [batchNodes]int64 // flat slot of each node's edge 0 (idx*x)
	ne   [batchNodes]int   // edges drawn: x, or the edge of the first remote copy

	st  [][4]uint64 // stream state before the attempt
	k   []int64     // drawn candidate
	l   []int32     // copied slot index, -1 for a direct attempt
	src []int64     // flat F slot of a local copy's source
	val []int64     // attachment value: k if direct, the gathered F value (-1 = NILL) if copied
	gat []int32     // attempt indices of the local copies, in draw order
}

func newNodeBatch(x int) *nodeBatch {
	n := batchNodes * x
	return &nodeBatch{
		st:  make([][4]uint64, n),
		k:   make([]int64, n),
		l:   make([]int32, n),
		src: make([]int64, n),
		val: make([]int64, n),
		gat: make([]int32, 0, n),
	}
}

// initiate admits the next local indices of [*cur, hi) — at most
// batchNodes, and never past the poll boundary, so the poll,
// checkpoint-pause and yield cadence count indices exactly as a
// one-node-at-a-time pass would — and starts their nodes through
// runBatch. Clique and bootstrap nodes, and nodes a restored snapshot
// already initiated, are stepped over. The range must lie inside one
// steal span (own block or stolen). This is the only way a node's
// generation starts; a batch is never interrupted, so a checkpoint cut
// still finds every node untouched, suspended or finished.
func (w *worker) initiate(cur *int64, hi int64) {
	e := w.e
	lo := *cur
	room := int64(w.poll - w.sincePoll)
	if room > batchNodes {
		room = batchNodes
	}
	if lo+room < hi {
		hi = lo + room
	}
	b := w.batch
	nb := 0
	for idx := lo; idx < hi; idx++ {
		t := e.part.NodeAt(e.rank, idx)
		if t <= e.x64 || (e.restored && w.nodeInitiatedLocal(idx)) {
			continue
		}
		b.t[nb], b.base[nb] = t, idx*e.x64
		nb++
		if e.ckTrig {
			e.ckptNoteInit()
		}
	}
	*cur = hi
	w.sincePoll += int(hi - lo)
	w.runBatch(nb, w.owns(lo))
}

// runBatch generates the first nb nodes of the batch scratch. own says
// whether this worker is their static owner (false for a stolen span).
func (w *worker) runBatch(nb int, own bool) {
	e := w.e
	b := w.batch
	x := e.x

	// Draw: each node's x first attempts from its own stream. They are
	// valid up to the node's first irregular edge — a retry there shifts
	// every later draw — so the state saved before each attempt is what
	// advance continues from. A remote copy always hands over, so drawing
	// stops there.
	gat := b.gat[:0]
	for i := 0; i < nb; i++ {
		t := b.t[i]
		w.rng.SeedStream(e.seed, uint64(t))
		d := e.opts.Params.NewDrawer(t)
		ne := x
		for edge, j := 0, i*x; edge < x; edge, j = edge+1, j+1 {
			b.st[j] = w.rng.State()
			a := d.Next(&w.rng)
			b.k[j] = a.K
			if a.Direct {
				b.l[j] = -1
				b.val[j] = a.K
				continue
			}
			b.l[j] = int32(a.L)
			owner, kidx := e.locate(a.K)
			if owner != e.rank {
				ne = edge
				break
			}
			b.src[j] = kidx*e.x64 + int64(a.L)
			gat = append(gat, int32(j))
		}
		b.ne[i] = ne
	}

	// Gather: nothing between consecutive loads, so the misses overlap.
	// A value >= 0 is final (slots are write-once); -1 is not an answer —
	// the source may be an earlier node of this very batch.
	for _, j := range gat {
		b.val[j] = e.getSlot(b.src[j])
	}

	// Commit, in node order so that an intra-batch source is final by
	// the time its reader's hand-over re-reads it.
	for i := 0; i < nb; i++ {
		t, base, o := b.t[i], b.base[i], i*x
		edge := 0
		for ; edge < b.ne[i]; edge++ {
			j := o + edge
			v := b.val[j]
			if v < 0 || contains(b.val[o:j], v) {
				break
			}
			if l := b.l[j]; l < 0 {
				if e.trace != nil {
					e.trace.RecordDirect(t, edge, v)
				}
			} else {
				// A same-rank copy query counts toward the source
				// node's received load (Lemma 3.4's M_k). Only here: a
				// handed-over attempt is re-drawn, and counted, by
				// advance.
				if e.nodeLoad != nil {
					e.noteLoad(b.src[j] / e.x64)
				}
				if e.trace != nil {
					e.trace.RecordCopy(t, edge, b.k[j], int(l))
				}
			}
			w.resolveSlot(t, edge, base+int64(edge), v, own)
		}
		if edge < x {
			w.rng.SetState(b.st[o+edge])
			w.advance(t, edge, &w.rng)
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
