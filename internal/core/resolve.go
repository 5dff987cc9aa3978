package core

import (
	"pagen/internal/model"
	"pagen/internal/msg"
)

// Resolution: everything that happens to a node after the batch kernel
// (batch.go) has started it — issuing an attempt, settling answers in
// edge order, suspension and resume, slot finalisation with its waiter
// cascade, and the request and resolved handlers. All of it runs on the
// rank goroutine, the single writer of F, the waiter and suspension
// tables, the ahead arena and the send buffers.

// issue evaluates attempt a of node t's edge: a direct attempt's value
// is its k, a copy's is looked up by query, whose results it returns.
func (e *engine) issue(t int64, edge int, a model.Attempt) (int64, bool) {
	e.record(t, edge, a)
	if a.Direct {
		return a.K, true
	}
	return e.query(t, edge, a.K, a.L)
}

// record traces attempt a of node t's edge; the last one recorded for a
// slot is the one it committed.
func (e *engine) record(t int64, edge int, a model.Attempt) {
	switch {
	case e.trace == nil:
	case a.Direct:
		e.trace.RecordDirect(t, edge, a.K)
	default:
		e.trace.RecordCopy(t, edge, a.K, a.L)
	}
}

// query looks up copy source F_k(l) for node t's edge (Algorithm 3.2
// lines 11-14) and returns (value, true) from the rank's own table, the
// hub replica or a replay; else it parks the edge on the source's local
// queue or sends a request, and returns (-1, false). The answer will
// reach resume.
func (e *engine) query(t int64, edge int, k int64, l int) (int64, bool) {
	owner, kidx := e.locate(k)
	if owner == e.rank {
		// Same-rank copy query: counts toward node k's received load
		// (Lemma 3.4's M_k) like a request would.
		if l := e.load; l != nil {
			l.Wire[l.Bin(k)]++
		}
		src := kidx*e.x64 + int64(l)
		if v := e.f.get(src); v >= 0 {
			return v, true
		}
		// Local dependency chain: park on the source's queue.
		e.stats.LocalWaits++
		e.waiters.push(src, t, uint16(edge))
		e.trackPending(1)
		return -1, false
	}
	if hub := e.hub; hub != nil && k < hub.h {
		// Replica hit: the rank computed the prefix before its first
		// window, so the owner's value is already here and no request
		// travels.
		e.stats.HubCacheHits++
		e.noteElided(k)
		return hub.f.get(k*e.x64 + int64(l)), true
	}
	if e.recompute {
		if v, ok := e.replayRemote(k, l); ok {
			return v, true
		}
	}
	e.sendData(owner, msg.Request(t, edge, k, l))
	return -1, false
}

// settle continues node t (local index idx) with v, the answer to
// attempt st.r of its frontier edge st.e, and commits in edge order while
// answers are in hand: a duplicate (Algorithm 3.2 lines 7 and 22) issues
// retry r+1 of that edge alone; a final value commits, and the next
// edge's answer follows from the ahead block. The node suspends on the
// first outstanding edge and frees its block when it finishes; it holds
// no record on entry. The duplicate check scans only the committed slots
// below the frontier edge: the rest of the row is NILL, and reading the
// slot just written would wait for its store (DESIGN.md §8.5).
func (e *engine) settle(t, idx int64, st suspState, v int64) {
	base := idx * e.x64
	edge, r := int(st.e), int(st.r)
	for ok := true; ; {
		if !ok {
			e.susp.put(idx, suspState{e: int32(edge), r: int32(r), blk: st.blk})
			return
		}
		if e.f.has(base, int64(edge), v) {
			e.stats.Retries++
			r++
			d := e.opts.Params.NewDrawer(t)
			v, ok = e.issue(t, edge, d.Attempt(&e.rng, e.seed, edge, r))
			continue
		}
		e.resolveSlot(base+int64(edge), v)
		if edge++; edge == e.x {
			e.ahead.release(st.blk)
			return
		}
		r = 0
		v = e.ahead.block(st.blk)[edge]
		ok = v != aheadWaiting
	}
}

// resume delivers v, the answer to suspended node t's outstanding
// attempt on the given edge: at the frontier it settles the node, past it
// the value waits in the ahead block. An answer for an edge below the
// frontier, or for a node with no record, is stale and dropped.
func (e *engine) resume(t, idx int64, edge int, v int64) {
	i := e.susp.find(idx)
	if e.susp.keys[i] != idx {
		return
	}
	switch st := e.susp.vals[i]; {
	case edge < int(st.e):
	case edge > int(st.e):
		e.ahead.block(st.blk)[edge] = v
	default:
		e.susp.remove(i)
		e.settle(t, idx, st, v)
	}
}

// resolveSlot finalises F = v at flat slot s and answers every
// waiter of the slot (Algorithm 3.1 lines 16-19 / Algorithm 3.2 lines
// 21-25). The edge leaves F later, in slot order: through streamFrontier
// to the shard or the Sink, or through collectEdges.
func (e *engine) resolveSlot(s, v int64) {
	e.f.set(s, v)
	e.unresolved--

	// Walk the slot's detached waiter chain in FIFO order. Each node's
	// fields are copied out and the node freed before delivery, because
	// delivery can recurse into resume/settle and push new
	// waiters — growing the arena or reusing freed nodes — while we
	// iterate.
	h := e.waiters.take(s)
	var chain int64
	for h >= 0 {
		n := e.waiters.arena[h]
		e.waiters.freeNode(h)
		h = n.next
		chain++
		e.trackPending(-1)
		e.deliverResolved(n.t, int(n.e), v)
	}
	e.stats.WaitChain.Observe(chain)
}

// deliverResolved routes a resolution to the waiting node: by direct
// call when it is local, as a resolved message for a remote rank's.
func (e *engine) deliverResolved(t int64, edge int, v int64) {
	owner, idx := e.locate(t)
	if owner != e.rank {
		e.sendData(owner, msg.Resolved(t, edge, v))
		return
	}
	e.resume(t, idx, edge, v)
}

// serveRequest answers a wire <request, t', e', k', l'> for local slot s
// (Algorithm 3.2 lines 16-20). v is F[s] as handleBatch gathered it
// before the batch's earlier messages ran: a value >= 0 is final (slots
// are write-once); -1 is re-read, because one of those messages may have
// resolved the slot since.
func (e *engine) serveRequest(m msg.Message, s, v int64) {
	if l := e.load; l != nil {
		l.Wire[l.Bin(m.K)]++
	}
	if v < 0 {
		v = e.f.get(s)
	}
	if v < 0 {
		e.stats.QueuedWaits++
		e.waiters.push(s, m.T, m.E)
		e.trackPending(1)
		return
	}
	e.deliverResolved(m.T, int(m.E), v)
}

// sendData buffers a data message for a remote rank. A send error is
// latched in e.err; the generation and drain loops surface it.
func (e *engine) sendData(to int, m msg.Message) {
	if err := e.cm.Send(to, m); err != nil && e.err == nil {
		e.err = err
	}
}

// trackPending adjusts the queued-waiter gauge and its high-water mark.
func (e *engine) trackPending(delta int64) {
	e.pendingWaiters += delta
	if e.pendingWaiters > e.maxPendingWaiters {
		e.maxPendingWaiters = e.pendingWaiters
	}
}
