package core

import (
	"pagen/internal/graph"
	"pagen/internal/msg"
	"pagen/internal/xrand"
)

// Resolution: everything that happens to a node after the batch kernel
// (batch.go) has started it — the continuation loop, suspension and
// resume, slot finalisation with its waiter cascade, and the request and
// resolved handlers. All of it runs on the rank goroutine, the single
// writer of F, the waiter, suspension and coalescing tables, the send
// buffers and the sink.

// emit finalises edge (t, v) of a generating node for the Sink. A
// streamed rank writes its shard from F instead, in slot order
// (streamFrontier), and an in-memory one collects its edges from F.
func (e *engine) emit(t, v int64) {
	e.emitted++
	if e.sink != nil {
		e.sink(e.rank, graph.Edge{U: t, V: v})
	}
}

// advance continues node t — at local index idx — from the given edge
// with rng positioned mid-stream (Algorithm 3.2 lines 4-14, strictly edge
// by edge). It is the continuation, not the entry: every node starts in
// the batch kernel (batch.go), which hands over here — with the stream
// state saved before the attempt — at the node's first edge that cannot
// commit straight-line, and resume re-enters here when a suspended node's
// answer arrives. On a copy from an unresolved source the node suspends
// — the stream state and edge index are parked in the suspension table —
// and resume continues exactly there. Every draw, duplicate retries
// included, comes from this one per-node stream, which is what makes the
// output independent of workers, ranks and schedule. A node's slots
// beyond its current edge are still NILL (strict per-node sequencing),
// so the duplicate checks scan its whole row.
func (e *engine) advance(t, idx int64, edge int, rng *xrand.Rand) {
	d := e.opts.Params.NewDrawer(t)
	base := idx * e.x64
	for ; edge < e.x; edge++ {
		s := base + int64(edge)
	draw:
		for {
			a := d.Next(rng)
			k := a.K
			if a.Direct {
				// Direct branch (lines 6-10).
				if e.f.has(base, e.x64, k) {
					e.stats.Retries++
					continue draw
				}
				e.resolveSlot(t, edge, s, k)
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
				if e.nodeLoad != nil {
					e.nodeLoad[kidx]++
				}
				src := kidx*e.x64 + int64(l)
				v := e.f.get(src)
				if v >= 0 {
					if e.f.has(base, e.x64, v) {
						e.stats.Retries++
						continue draw
					}
					e.resolveSlot(t, edge, s, v)
					break draw
				}
				// Local dependency chain: park on the source's queue.
				e.stats.LocalWaits++
				e.waiters.push(src, t, uint16(edge))
				e.trackPending(1)
				e.suspend(idx, edge, rng, -1)
				return
			}
			if hub := e.hub; hub != nil && k < hub.h {
				gkey := k*e.x64 + int64(l)
				if v := hub.f.get(gkey); v >= 0 {
					// Replica hit: the owner's immutable value is
					// already here — the same value a round trip
					// would return, so no request travels.
					e.stats.HubCacheHits++
					e.noteElided(k)
					if e.f.has(base, e.x64, v) {
						e.stats.Retries++
						continue draw
					}
					e.resolveSlot(t, edge, s, v)
					break draw
				}
				e.stats.HubCacheMisses++
				if e.remote.has(gkey) {
					// A node of this rank already has a request for
					// this slot in flight: ride its answer. Coalescing
					// is prefix-only so every elided query lands in
					// hubElided and the Lemma 3.4 census stays exact
					// (tail slots coalesce too rarely to be worth an
					// n-sized counter array).
					e.stats.ReqCoalesced++
					e.noteElided(k)
					e.remote.push(gkey, t, uint16(edge))
					e.suspend(idx, edge, rng, gkey)
					return
				}
				if e.recompute {
					if v, ok := e.replayRemote(k, l); ok {
						// Replayed values are as immutable as
						// resolved ones; seed the replica so later
						// queries for this slot short-circuit.
						hub.f.set(gkey, v)
						if e.f.has(base, e.x64, v) {
							e.stats.Retries++
							continue draw
						}
						e.resolveSlot(t, edge, s, v)
						break draw
					}
				}
				e.remote.push(gkey, t, uint16(edge))
				e.sendData(owner, msg.Request(t, edge, k, l))
				e.suspend(idx, edge, rng, gkey)
				return
			}
			if e.recompute {
				if v, ok := e.replayRemote(k, l); ok {
					if e.f.has(base, e.x64, v) {
						e.stats.Retries++
						continue draw
					}
					e.resolveSlot(t, edge, s, v)
					break draw
				}
			}
			e.sendData(owner, msg.Request(t, edge, k, l))
			e.suspend(idx, edge, rng, -1)
			return
		}
	}
}

// suspend parks the node at local index idx at the given edge with its
// stream state. key is the coalescing-table slot the node chained on, -1
// for waits that did not go through it (local waits, or the cache off).
func (e *engine) suspend(idx int64, edge int, rng *xrand.Rand, key int64) {
	e.susp.put(idx, suspState{rng: *rng, e: int32(edge), key: key})
}

// resume continues suspended node t (local index idx) with the resolved
// value of its pending copy source: the duplicate check of Algorithm 3.2
// line 22, re-drawing the whole step from the node's own stream on
// conflict. Stale deliveries (a duplicated frame answering an
// already-finished slot) are dropped.
func (e *engine) resume(t, idx int64, edge int, v int64) {
	st, ok := e.susp.take(idx)
	if !ok || int(st.e) != edge {
		if ok {
			e.susp.put(idx, st)
		}
		return
	}
	base := idx * e.x64
	if e.f.has(base, e.x64, v) {
		e.stats.Retries++
		e.advance(t, idx, edge, &st.rng)
		return
	}
	e.resolveSlot(t, edge, base+int64(edge), v)
	e.advance(t, idx, edge+1, &st.rng)
}

// resumeWire handles a wire <resolved>. With the hub cache off it is a
// plain resume. With it on, the answer is addressed to the chain's
// primary requester but belongs to every node coalesced on the same
// slot: look the slot key up through the primary's suspension, install
// the value in the replica, and fan the answer out to the whole chain
// (the primary is a chain member like any other). A stale answer — the
// node already advanced, or re-suspended on a different slot or edge —
// takes the plain path, whose edge check drops it.
func (e *engine) resumeWire(t int64, edge int, v int64) {
	idx := e.part.Index(e.rank, t)
	if e.hub == nil {
		e.resume(t, idx, edge, v)
		return
	}
	st, ok := e.susp.get(idx)
	if !ok || st.key == -1 || int(st.e) != edge {
		e.resume(t, idx, edge, v)
		return
	}
	e.hub.f.set(st.key, v)
	// Walk the detached chain copying each node out before freeing it:
	// resume can recurse into advance and push new chain entries while
	// we iterate (same discipline as resolveSlot's waiter walk).
	h := e.remote.take(st.key)
	if h < 0 {
		e.resume(t, idx, edge, v)
		return
	}
	for h >= 0 {
		n := e.remote.arena[h]
		e.remote.freeNode(h)
		h = n.next
		nidx := idx
		if n.t != t {
			nidx = e.part.Index(e.rank, n.t)
		}
		e.resume(n.t, nidx, int(n.e), v)
	}
}

// resolveSlot finalises F_t(edge) = v at flat slot s: records the edge
// and emits it, publishes hub-prefix nodes, and answers every waiter of
// the slot (Algorithm 3.1 lines 16-19 / Algorithm 3.2 lines 21-25).
func (e *engine) resolveSlot(t int64, edge int, s, v int64) {
	e.f.set(s, v)
	e.emit(t, v)
	e.unresolved--

	// Hub prefix: replicate the node's slots to every rank that may
	// query them, batched per node. A node's slots resolve strictly in
	// order, so edge x-1 resolving means all x values are final;
	// publishing them together keeps a node's publishes adjacent per
	// destination, where the v3 codec's slot-delta coding packs each
	// trailing slot into ~1 byte of header. Peers that query an earlier
	// slot before the batch lands fall back to the wire protocol (the
	// replica elides traffic, never correctness), and a restore
	// republishes resolved prefix slots via publishResolvedPrefix, so the
	// deferral survives checkpoint cuts too.
	if hub := e.hub; hub != nil && t < hub.h && edge == e.x-1 {
		base := s - int64(edge)
		for l := int64(0); l < e.x64; l++ {
			m := msg.Publish(t, int(l), e.f.get(base+l))
			for _, r := range e.hubPeers {
				e.sendData(r, m)
			}
		}
	}

	// Walk the slot's detached waiter chain in FIFO order. Each node's
	// fields are copied out and the node freed before delivery, because
	// delivery can recurse into resume/advance and push new
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
	if e.nodeLoad != nil {
		e.nodeLoad[s/e.x64]++
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
