package core

import (
	"runtime"
	"sync/atomic"

	"pagen/internal/graph"
	"pagen/internal/msg"
	"pagen/internal/obs"
	"pagen/internal/xrand"
)

// workerScratchCap is the per-destination size of a worker's private
// send buffer; full buffers merge into the rank's shared per-destination
// stripe in one lock acquisition.
const workerScratchCap = 64

// inboxCap bounds a worker inbox in messages. Only the dispatcher pushes
// blocking (a full worker is never itself blocked, so the dispatcher
// always unblocks); sibling workers try-push and park overflow locally.
const inboxCap = 4096

// worker owns a contiguous block [lo, hi) of the rank's local node
// indices: it is the single writer for those nodes' F slots, the single
// owner of their waiter queues and suspension records, and the only
// goroutine that advances their generation. Cross-worker dependencies
// travel as kindReqLocal/kindResLocal messages through inboxes, so the
// whole Q_{k,l} cascade needs no locks.
type worker struct {
	e      *engine
	id     int
	lo, hi int64

	rng     xrand.Rand // reused across nodes; re-seeded per node
	batch   *nodeBatch // batched-initiation scratch (batch.go)
	waiters waiterTable
	susp    suspTable

	// remote is the request-coalescing table (hub cache on only): it
	// chains this worker's nodes waiting on the same remote slot,
	// keyed by global slot id k*x + l, primary requester included.
	// One wire request serves the whole chain; resumeWire fans its
	// answer out. Worker-private like waiters, so no locking.
	remote waiterTable

	// inbox receives remote traffic from the dispatcher and sibling
	// traffic from other workers. Nil when the rank runs one worker.
	inbox *inbox
	spare []msg.Message // ping-pong buffer handed to inbox.pop

	// pendingTo parks messages whose destination inbox was full; they
	// must drain before this worker may block.
	pendingTo    [][]msg.Message
	pendingCount int

	// scratch is the per-destination private send buffer (concurrent
	// mode only; the single-worker path sends straight through comm).
	scratch [][]msg.Message

	// unresolved counts this worker's still-NILL slots. Single-writer:
	// only the owning worker resolves its slots.
	unresolved int64
	doneNoted  bool

	// cursor is the next local index the generation pass will visit; a
	// checkpoint pause stops the pass mid-block and a later pass (or a
	// restored run) continues from here.
	cursor int64
	// claims is this worker's per-span claim table (concurrent mode):
	// span i covers local indices [lo+i*spanSize, min(lo+(i+1)*spanSize,
	// hi)) and claims[i] records the worker generating it — -1 until the
	// owner's pass enters it (head-first CAS) or an idle sibling steals
	// it (tail-first CAS). A span is claimed exactly once, before any of
	// its nodes is initiated, which is what makes generatorOf stable.
	claims []int32
	// stealLo/stealHi delimit the stolen span this worker is currently
	// generating ([stealLo, stealHi), empty when stealLo >= stealHi);
	// a checkpoint pause mid-span parks the range here.
	stealLo, stealHi int64
	// sincePoll counts nodes generated since the last inbox service, so
	// the poll cadence carries across span and steal boundaries.
	sincePoll int
	// resumed latches a kindCkptResume delivery: the epoch ended and a
	// paused generation pass may continue.
	resumed bool

	// poll is the current generation-loop polling interval; adaptive
	// tracks whether adaptPoll may move it.
	poll     int
	adaptive bool

	// stats (merged into RankStats by finishStats)
	steals             int64
	stolenNodes        int64
	retries            int64
	queuedWaits        int64
	localWaits         int64
	hubHits            int64
	hubMisses          int64
	coalesced          int64
	recomputeHits      int64
	recomputeFallbacks int64
	replayedEdges      int64
	edgeCount          int64
	waitChain          obs.Histogram
	replayDepth        obs.Histogram

	err error
}

func newWorker(e *engine, id int, lo, hi int64) *worker {
	w := &worker{e: e, id: id, lo: lo, hi: hi, cursor: lo, batch: newNodeBatch(e.x)}
	w.waiters.init()
	w.susp.init()
	if e.hub != nil {
		w.remote.init()
	}
	w.poll = e.opts.PollEvery
	if w.poll <= 0 {
		w.poll = DefaultPollEvery
		w.adaptive = true
	}
	if e.concurrent {
		w.inbox = newInbox(inboxCap)
		w.spare = make([]msg.Message, 0, 256)
		w.pendingTo = make([][]msg.Message, e.nw)
		w.scratch = make([][]msg.Message, e.p)
		if hi > lo {
			w.claims = make([]int32, (hi-lo+e.spanSize-1)/e.spanSize)
			for i := range w.claims {
				w.claims[i] = -1
			}
		}
	}
	return w
}

// spanEnd returns the first index past the span containing local index
// idx of this worker's block, clamped to the block end.
func (w *worker) spanEnd(idx int64) int64 {
	end := w.lo + ((idx-w.lo)/w.e.spanSize+1)*w.e.spanSize
	if end > w.hi {
		end = w.hi
	}
	return end
}

func (w *worker) owns(idx int64) bool { return idx >= w.lo && idx < w.hi }

func (w *worker) fail(err error) {
	if w.err == nil {
		w.err = err
	}
	w.e.fail(err)
}

// adaptPoll retunes the polling interval from two signals: the live
// pending-waiter depth and the inbox's measured wakeup latency (the
// EWMA sojourn from a message's enqueue to its drain). High depth or
// high latency both mean the generation stretches are too long for the
// traffic — poll more often; zero depth with low latency means the
// worker is over-polling — stretch the interval.
func (w *worker) adaptPoll() {
	if !w.adaptive {
		return
	}
	depth := w.e.pendingDepth()
	var lat float64
	if w.inbox != nil {
		lat = w.inbox.wakeLatency()
	}
	switch {
	case depth > adaptiveHighWater || lat > adaptiveLatHigh:
		if w.poll > adaptiveMinPoll {
			w.poll /= 2
		}
	case depth == 0 && lat < adaptiveLatLow:
		if w.poll < adaptiveMaxPoll {
			w.poll *= 2
		}
	}
}

// emit finalises one edge of a generating node. s is the edge's flat
// slot index — also its canonical stream key (slot order is exactly the
// in-memory emission order collectEdges reconstructs).
func (w *worker) emit(t, s, v int64) {
	w.edgeCount++
	e := w.e
	if e.stream != nil {
		if err := e.stream.Emit(uint64(s), v); err != nil {
			w.fail(err)
		}
	}
	if e.sink != nil {
		e.sink(e.rank, graph.Edge{U: t, V: v})
	}
}

// isDup reports whether v already appears among t's attachments. Only
// t's generating worker calls it — the single writer of t's slots,
// steal schedule included — and a node's slots beyond its current edge
// are still NILL (strict per-node sequencing), so plain reads suffice.
func (w *worker) isDup(t, v int64) bool {
	e := w.e
	base := e.slot(t, 0)
	return contains(e.f[base:base+e.x64], v)
}

// advance continues node t's attachment loop from the given edge with rng
// positioned mid-stream (Algorithm 3.2 lines 4-14, strictly edge by
// edge). It is the continuation, not the entry: every node starts in
// runBatch (batch.go), which hands over here — with the stream state
// saved before the attempt — at the node's first edge that cannot commit
// straight-line, and resume re-enters here when a suspended node's
// answer arrives. On a copy from an unresolved source the node suspends
// — the stream state and edge index are parked in the suspension table —
// and resume continues exactly there. Every draw, duplicate retries
// included, comes from this one per-node stream, which is what makes the
// output independent of workers, ranks and schedule.
func (w *worker) advance(t int64, edge int, rng *xrand.Rand) {
	e := w.e
	d := e.opts.Params.NewDrawer(t)
	for ; edge < e.x; edge++ {
	draw:
		for {
			a := d.Next(rng)
			k := a.K
			if a.Direct {
				// Direct branch (lines 6-10).
				if w.isDup(t, k) {
					w.retries++
					continue draw
				}
				w.resolveLocal(t, edge, k)
				if e.trace != nil {
					e.trace.RecordDirect(t, edge, k)
				}
				break draw
			}
			// Copy branch (lines 11-14).
			l := a.L
			if e.trace != nil {
				e.trace.RecordCopy(t, edge, k, l)
			}
			owner, kidx := e.locate(k)
			if owner == e.rank {
				// Same-rank copy query: counts toward node k's received
				// load (Lemma 3.4's M_k) like a request would.
				e.noteLoad(kidx)
				s := kidx*e.x64 + int64(l)
				// Atomic even inside this worker's static block: with
				// stealing, a thief may be the slot's writer.
				v := e.getSlot(s)
				if v >= 0 {
					if w.isDup(t, v) {
						w.retries++
						continue draw
					}
					w.resolveLocal(t, edge, v)
					break draw
				}
				// Local dependency chain: park on the owner's queue.
				w.localWaits++
				if w.owns(kidx) {
					w.waiters.push(s, t, uint16(edge))
					e.trackPending(1)
				} else {
					m := msg.Request(t, edge, k, l)
					m.Kind = kindReqLocal
					w.toWorker(e.workerOf(kidx), m)
				}
				w.suspend(t, edge, rng, -1)
				return
			}
			if hub := e.hub; hub != nil && k < hub.h {
				gkey := k*e.x64 + int64(l)
				if v := hub.get(gkey); v >= 0 {
					// Replica hit: the owner's immutable value is
					// already here — the same value a round trip
					// would return, so no request travels.
					w.hubHits++
					e.noteElided(k)
					if w.isDup(t, v) {
						w.retries++
						continue draw
					}
					w.resolveLocal(t, edge, v)
					break draw
				}
				w.hubMisses++
				if w.remote.has(gkey) {
					// A node of this worker already has a request for
					// this slot in flight: ride its answer. Coalescing
					// is prefix-only so every elided query lands in
					// hubElided and the Lemma 3.4 census stays exact
					// (tail slots coalesce too rarely to be worth an
					// n-sized counter array).
					w.coalesced++
					e.noteElided(k)
					w.remote.push(gkey, t, uint16(edge))
					w.suspend(t, edge, rng, gkey)
					return
				}
				if e.recompute {
					if v, ok := w.replayRemote(k, l); ok {
						// Replayed values are as immutable as
						// resolved ones; seed the replica so later
						// queries for this slot short-circuit.
						hub.install(gkey, v)
						if w.isDup(t, v) {
							w.retries++
							continue draw
						}
						w.resolveLocal(t, edge, v)
						break draw
					}
				}
				w.remote.push(gkey, t, uint16(edge))
				w.sendData(owner, msg.Request(t, edge, k, l))
				w.suspend(t, edge, rng, gkey)
				return
			}
			if e.recompute {
				if v, ok := w.replayRemote(k, l); ok {
					if w.isDup(t, v) {
						w.retries++
						continue draw
					}
					w.resolveLocal(t, edge, v)
					break draw
				}
			}
			w.sendData(owner, msg.Request(t, edge, k, l))
			w.suspend(t, edge, rng, -1)
			return
		}
	}
}

// suspend parks node t at the given edge with its stream state. key is
// the coalescing-table slot the node chained on, -1 for waits that did
// not go through it (local waits, or the cache off).
func (w *worker) suspend(t int64, edge int, rng *xrand.Rand, key int64) {
	w.susp.put(w.e.localIdx(t), suspState{rng: *rng, e: int32(edge), key: key})
}

// resume continues a suspended node with the resolved value of its
// pending copy source: the duplicate check of Algorithm 3.2 line 22,
// re-drawing the whole step from the node's own stream on conflict.
// Stale deliveries (a duplicated frame answering an already-finished
// slot) are dropped.
func (w *worker) resume(t int64, edge int, v int64) {
	st, ok := w.susp.take(w.e.localIdx(t))
	if !ok || int(st.e) != edge {
		if ok {
			w.susp.put(w.e.localIdx(t), st)
		}
		return
	}
	if w.isDup(t, v) {
		w.retries++
		w.advance(t, edge, &st.rng)
		return
	}
	w.resolveLocal(t, edge, v)
	w.advance(t, edge+1, &st.rng)
}

// resumeWire handles a wire <resolved>. With the hub cache off it is a
// plain resume. With it on, the answer is addressed to the chain's
// primary requester but belongs to every node coalesced on the same
// slot: look the slot key up through the primary's suspension, install
// the value in the replica, and fan the answer out to the whole chain
// (the primary is a chain member like any other). A stale answer — the
// node already advanced, or re-suspended on a different slot or edge —
// takes the plain path, whose edge check drops it.
func (w *worker) resumeWire(t int64, edge int, v int64) {
	e := w.e
	if e.hub == nil {
		w.resume(t, edge, v)
		return
	}
	st, ok := w.susp.get(e.localIdx(t))
	if !ok || st.key == -1 || int(st.e) != edge {
		w.resume(t, edge, v)
		return
	}
	if st.key >= 0 && st.key < e.hub.slots() {
		e.hub.install(st.key, v)
	}
	// Walk the detached chain copying each node out before freeing it:
	// resume can recurse into advance and push new chain entries while
	// we iterate (same discipline as resolveLocal's waiter walk). The
	// members are deliverResolved, not resumed directly: a chain rebuilt
	// by a restore under a different worker layout can span siblings.
	h := w.remote.take(st.key)
	if h < 0 {
		w.resume(t, edge, v)
		return
	}
	for h >= 0 {
		n := w.remote.arena[h]
		w.remote.freeNode(h)
		h = n.next
		w.deliverResolved(n.t, int(n.e), v)
	}
}

// resolveLocal finalises F_t(edge) = v for a locally-owned slot this
// worker is generating, on the continuation path (advance, resume).
func (w *worker) resolveLocal(t int64, edge int, v int64) {
	idx := w.e.localIdx(t)
	w.resolveSlot(t, edge, idx*w.e.x64+int64(edge), v, w.owns(idx))
}

// resolveSlot finalises F_t(edge) = v at flat slot s: records the edge
// and emits it, then runs the slot's bookkeeping — directly when this
// worker is also t's static owner (own), via a kindSlotDone handoff when
// t was stolen (the waiter queues, unresolved count and publish duty
// never move with a steal).
func (w *worker) resolveSlot(t int64, edge int, s, v int64, own bool) {
	e := w.e
	e.setSlot(s, v)
	w.emit(t, s, v)
	if !own {
		m := msg.Resolved(t, edge, v)
		m.Kind = kindSlotDone
		w.toWorker(e.workerOf(s/e.x64), m)
		return
	}
	w.finishSlot(t, edge, s, v)
}

// finishSlot runs the static owner's half of a slot resolution:
// decrements the shard's unresolved count, publishes hub-prefix nodes,
// and answers every waiter of this slot (Algorithm 3.1 lines 16-19 /
// Algorithm 3.2 lines 21-25). Called inline by resolveSlot for
// unstolen nodes, from a thief's kindSlotDone otherwise — either way on
// the owning worker's goroutine, so the waiter walk stays lock-free.
func (w *worker) finishSlot(t int64, edge int, s, v int64) {
	e := w.e
	w.unresolved--

	// Hub prefix: replicate the node's slots to every rank that may
	// query them, batched per node. A node's slots resolve strictly in
	// order, so edge x-1 resolving means all x values are final
	// (kindSlotDone messages arrive in resolve order over the FIFO
	// inbox, and the thief's stores precede its sends); publishing them
	// together keeps a node's publishes adjacent per destination, where
	// the v3 codec's slot-delta coding packs each trailing slot into
	// ~1 byte of header. Peers that query an earlier slot before the
	// batch lands fall back to the wire protocol (the replica elides
	// traffic, never correctness), and a restore republishes resolved
	// prefix slots via publishResolvedPrefix, so the deferral survives
	// checkpoint cuts too.
	if hub := e.hub; hub != nil && t < hub.h && edge == e.x-1 {
		base := s - int64(edge)
		for l := int64(0); l < e.x64; l++ {
			m := msg.Publish(t, int(l), e.getSlot(base+l))
			for _, r := range e.hubPeers {
				w.sendData(r, m)
			}
		}
	}

	// Walk the slot's detached waiter chain in FIFO order. Each node's
	// fields are copied out and the node freed before delivery, because
	// delivery can recurse into advance/resolveLocal and push new
	// waiters — growing the arena or reusing freed nodes — while we
	// iterate.
	h := w.waiters.take(s)
	var chain int64
	for h >= 0 {
		n := w.waiters.arena[h]
		w.waiters.freeNode(h)
		h = n.next
		chain++
		e.trackPending(-1)
		w.deliverResolved(n.t, int(n.e), v)
	}
	w.waitChain.Observe(chain)

	if w.unresolved == 0 && !w.doneNoted {
		w.doneNoted = true
		w.noteShardDone()
	}
}

// noteShardDone marks this worker's shard fully resolved; the last shard
// reports the rank done. Every worker flushes its own outbound before
// the decrement: a completed shard never resolves (hence never
// publishes) again, and the release-acquire ordering of the atomic adds
// means the final worker's fences are sequenced after every sibling's
// flush — so fences trail all of the rank's publishes on the wire.
func (w *worker) noteShardDone() {
	e := w.e
	if !e.concurrent {
		return // maybeReportDone drives the single-worker protocol
	}
	w.quiesce()
	if atomic.AddInt32(&e.activeWorkers, -1) != 0 {
		return
	}
	e.reportDone()
}

// deliverResolved routes a resolution to the waiting node's generator —
// by direct call when that is this worker, through an inbox for a
// sibling's, as a resolved message for a remote rank's. The generator
// (steal-aware via generatorOf), not the static owner, holds the
// node's suspension record.
func (w *worker) deliverResolved(t int64, edge int, v int64) {
	e := w.e
	owner := e.part.Owner(t)
	if owner != e.rank {
		w.sendData(owner, msg.Resolved(t, edge, v))
		return
	}
	tw := e.generatorOf(e.localIdx(t))
	if tw == w.id {
		w.resume(t, edge, v)
		return
	}
	m := msg.Resolved(t, edge, v)
	m.Kind = kindResLocal
	w.toWorker(tw, m)
}

// onRequest handles a <request, t', e', k', l'> for a slot this worker
// owns (Algorithm 3.2 lines 16-20). remote distinguishes wire requests
// from sibling-worker ones: the latter were already counted (localWaits,
// node load) at the requesting worker.
func (w *worker) onRequest(m msg.Message, remote bool) {
	e := w.e
	kidx := e.part.Index(e.rank, m.K)
	if remote {
		e.noteLoad(kidx)
	}
	s := kidx*e.x64 + int64(m.L)
	v := e.getSlot(s)
	if v < 0 {
		if remote {
			w.queuedWaits++
		}
		w.waiters.push(s, m.T, m.E)
		e.trackPending(1)
		return
	}
	w.deliverResolved(m.T, int(m.E), v)
}

// sendData sends a data message to a remote rank: directly through comm
// when single-worker, via the private scratch buffer otherwise.
func (w *worker) sendData(to int, m msg.Message) {
	e := w.e
	if !e.concurrent {
		if err := e.cm.Send(to, m); err != nil && w.err == nil {
			w.err = err
		}
		return
	}
	// Store the append result before any early return: append may have
	// grown the backing array, and dropping it would leave w.scratch[to]
	// aliasing the stale smaller one.
	buf := append(w.scratch[to], m)
	w.scratch[to] = buf
	if len(buf) >= workerScratchCap {
		if err := e.cm.SendBatch(to, buf); err != nil {
			w.fail(err)
			return
		}
		w.scratch[to] = buf[:0]
	}
}

// flushScratch merges every non-empty private buffer into the shared
// per-destination stripes.
func (w *worker) flushScratch() {
	for to, buf := range w.scratch {
		if len(buf) == 0 {
			continue
		}
		w.scratch[to] = buf[:0]
		if err := w.e.cm.SendBatch(to, buf); err != nil {
			w.fail(err)
			return
		}
	}
}

// quiesce pushes everything outbound onto the wire: private scratch into
// the stripes, stripes into transport frames. Required after processing
// a message group and before blocking (Section 3.5.2: answers must not
// wait for the next blocking point).
func (w *worker) quiesce() {
	w.flushScratch()
	if err := w.e.cm.FlushAll(); err != nil {
		w.fail(err)
	}
}

// toWorker hands a message to a sibling worker, parking it locally when
// the sibling's inbox is full. Workers never block pushing — that is
// what makes the bounded-inbox topology deadlock-free.
func (w *worker) toWorker(dst int, m msg.Message) {
	if w.e.workers[dst].inbox.tryPush(m) {
		return
	}
	w.pendingTo[dst] = append(w.pendingTo[dst], m)
	w.pendingCount++
}

// drainPending retries parked sibling messages in arrival order.
func (w *worker) drainPending() {
	if w.pendingCount == 0 {
		return
	}
	for dst := range w.pendingTo {
		q := w.pendingTo[dst]
		if len(q) == 0 {
			continue
		}
		i := 0
		for i < len(q) && w.e.workers[dst].inbox.tryPush(q[i]) {
			i++
		}
		if i > 0 {
			w.pendingCount -= i
			w.pendingTo[dst] = append(q[:0], q[i:]...)
		}
	}
}

// processBatch runs one inbox batch through the protocol handlers, then
// retries parked messages and flushes outbound answers.
func (w *worker) processBatch(ms []msg.Message) {
	for _, m := range ms {
		switch m.Kind {
		case msg.KindRequest:
			w.onRequest(m, true)
		case kindReqLocal:
			w.onRequest(m, false)
		case msg.KindResolved:
			w.resumeWire(m.T, int(m.E), m.V)
		case kindResLocal:
			// Same-rank sibling answers never coalesce (the chain is for
			// wire requests), so the plain path applies.
			w.resume(m.T, int(m.E), m.V)
		case kindSlotDone:
			// A thief resolved one of this shard's slots; run the
			// owner-side bookkeeping (the value is already in F).
			w.finishSlot(m.T, int(m.E), w.e.slot(m.T, int(m.E)), m.V)
		case kindCkptResume:
			w.resumed = true
		}
	}
	w.drainPending()
	w.quiesce()
}

// pollPoint is the generation loop's periodic service stop: retry parked
// sibling messages, process whatever the inbox holds, retune the poll
// interval.
func (w *worker) pollPoint() {
	w.drainPending()
	ms, _ := w.inbox.pop(w.spare, false)
	w.spare = ms
	if len(ms) > 0 {
		w.processBatch(ms)
	}
	w.adaptPoll()
}

// genRange advances generation over local indices [*cur, hi),
// servicing the inbox every poll interval. It never blocks: nodes that
// cannot finish an edge suspend and the pass moves on. Shared by the
// worker's own spans and stolen ones (cur points at the live cursor for
// either). It returns true when the range is exhausted (or the worker
// failed), false when a checkpoint epoch paused the pass mid-range (the
// cursor stays put; the next pass continues there).
func (w *worker) genRange(cur *int64, hi int64) bool {
	e := w.e
	for *cur < hi {
		if w.err != nil {
			return true
		}
		w.initiate(cur, hi)
		if w.sincePoll >= w.poll {
			w.sincePoll = 0
			if e.aborted() {
				w.err = e.takeErr()
				return true
			}
			w.pollPoint()
			if e.ck != nil && atomic.LoadInt32(&e.ck.phase) == ckPaused {
				// Flush outbound answers before pausing: local
				// quiescence means parked with nothing buffered.
				w.quiesce()
				return false
			}
		}
	}
	return true
}

// nodeInitiatedLocal reports whether a restored snapshot already
// initiated local node idx, using only state this goroutine may read:
// the node's final slot (write-once, atomic under concurrency) and this
// worker's own suspension table. Restored suspension records land in
// static owners' tables, and restore pre-claims their spans for those
// owners, so the generator visiting idx is exactly the worker whose
// table could hold its record.
func (w *worker) nodeInitiatedLocal(idx int64) bool {
	e := w.e
	if e.getSlot(idx*e.x64+e.x64-1) >= 0 {
		return true
	}
	return w.susp.has(idx)
}

// genPass drives one generation pass: finish an interrupted stolen span
// first, then advance over the worker's own block span by span,
// claiming each span before entering it (a span a sibling already stole
// is skipped whole). Returns false when a checkpoint epoch paused the
// pass (cursors keep their place), true when no unclaimed work remains
// in this worker's block.
func (w *worker) genPass() bool {
	e := w.e
	if w.stealLo < w.stealHi {
		if !w.genRange(&w.stealLo, w.stealHi) {
			return false
		}
	}
	for w.cursor < w.hi {
		if w.err != nil {
			return true
		}
		span := (w.cursor - w.lo) / e.spanSize
		if !atomic.CompareAndSwapInt32(&w.claims[span], -1, int32(w.id)) &&
			atomic.LoadInt32(&w.claims[span]) != int32(w.id) {
			// A sibling stole this span; skip it whole.
			w.cursor = w.spanEnd(w.cursor)
			continue
		}
		// Claimed (or re-entered after a checkpoint pause mid-span).
		if !w.genRange(&w.cursor, w.spanEnd(w.cursor)) {
			return false
		}
	}
	return true
}

// trySteal claims one span of unstarted work from the sibling with the
// most unclaimed spans, taking the tail-most one (the victim's own pass
// claims head-first, so contention meets in the middle). Returns true
// after installing the stolen range for genPass, false when no
// unclaimed span exists anywhere — which, since claims only ever move
// -1 -> worker id, means no steal will ever succeed again.
func (w *worker) trySteal() bool {
	e := w.e
	// Yield before raiding: exhausting the own block used to park the
	// worker, which was the scheduling point that let the dispatcher
	// (checkpoint triggers, wire delivery) and slower siblings run on
	// saturated hosts. Stealing removes the park, so restore the yield
	// explicitly — this is the idle path, the hot loop never pays it.
	runtime.Gosched()
	for {
		victim, bestSpan, bestAvail := -1, -1, 0
		for i, v := range e.workers {
			if i == w.id || v.claims == nil {
				continue
			}
			avail, last := 0, -1
			for s := range v.claims {
				if atomic.LoadInt32(&v.claims[s]) < 0 {
					avail++
					last = s
				}
			}
			if avail > bestAvail {
				victim, bestSpan, bestAvail = i, last, avail
			}
		}
		if victim < 0 {
			return false
		}
		v := e.workers[victim]
		if !atomic.CompareAndSwapInt32(&v.claims[bestSpan], -1, int32(w.id)) {
			continue // lost the race; rescan
		}
		w.stealLo = v.lo + int64(bestSpan)*e.spanSize
		w.stealHi = v.spanEnd(w.stealLo)
		w.steals++
		w.stolenNodes += w.stealHi - w.stealLo
		return true
	}
}

// runConcurrent is a worker goroutine's whole life: generation passes
// interleaved with checkpoint pauses (serve the cascade until the cut
// commits, then continue the pass), then — once its own block is done —
// stealing unstarted spans from loaded siblings until none remain, then
// serving the inbox until the dispatcher closes it (stop) or the engine
// aborts.
func (w *worker) runConcurrent() {
	for {
		if !w.genPass() {
			if !w.serve(true) {
				return
			}
			continue
		}
		if w.err != nil || !w.trySteal() {
			break
		}
	}
	w.serve(false)
}

// serve processes the inbox until the dispatcher closes it or the
// engine aborts (returns false), or — when untilResume is set — until a
// checkpoint-resume message arrives (returns true). Parked sibling
// messages must drain before blocking; the worker keeps serving its own
// inbox while they do, so two workers with mutually full inboxes still
// make progress.
func (w *worker) serve(untilResume bool) bool {
	for {
		if w.err != nil || w.e.aborted() {
			return false
		}
		if untilResume && w.resumed {
			w.resumed = false
			return true
		}
		ms, open := w.inbox.pop(w.spare, false)
		w.spare = ms
		if len(ms) > 0 {
			w.processBatch(ms)
			continue
		}
		if !open {
			return false
		}
		if w.pendingCount > 0 {
			w.drainPending()
			runtime.Gosched()
			continue
		}
		w.quiesce()
		if w.err != nil {
			return false
		}
		ms, open = w.inbox.pop(w.spare, true)
		w.spare = ms
		if len(ms) > 0 {
			w.processBatch(ms)
		} else if !open {
			return false
		}
	}
}
