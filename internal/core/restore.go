package core

import (
	"fmt"
	"math/bits"
	"os"
	"slices"

	"pagen/internal/ckpt"
	"pagen/internal/esink"
	"pagen/internal/msg"
	"pagen/internal/transport"
)

// negotiateResume picks the epoch to restart from: the newest epoch
// every rank holds a snapshot of that Read accepts. Leaves resumeSnap
// nil when the ranks cannot agree on any epoch — the run starts fresh.
//
// The negotiation is a ratchet rather than a single all-reduce because
// the asynchronous commit protocol lets per-rank epoch sets diverge
// arbitrarily: a rank whose background writer failed skips the epochs
// it could not persist, so the global minimum of per-rank newest epochs
// is not necessarily restorable on the ranks that are ahead — they may
// have pruned it, or a crash tore it. Each round all-reduces a candidate
// (min of per-rank newest restorable epochs), then all-reduces whether
// every rank read that exact epoch; on failure each rank falls back
// to its newest restorable epoch strictly below the candidate and the
// loop repeats. The candidate strictly decreases, so the loop
// terminates (at worst with a fresh start), and every rank runs the
// same collective sequence in lockstep, keeping the tag counters
// aligned.
//
// The collectives run over the engine's own communicator with the held
// filter installed: a rank that learns the negotiated epoch first
// starts generating immediately, and its data messages can reach peers
// still inside the all-reduce. Those messages are parked in ck.held and
// delivered through the normal receive path once the restored state
// exists (run's startup flush), instead of aborting the collective.
func (e *engine) negotiateResume() error {
	dir := e.opts.Checkpoint.Dir
	epochs, err := ckpt.Epochs(dir, e.rank)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("core: resume: %w", err)
	}
	e.seq.SetRecv(func() ([]msg.Message, error) {
		if err := e.cm.FlushAll(); err != nil {
			return nil, err
		}
		ms, err := e.cm.Wait()
		if err != nil {
			return nil, err
		}
		return e.ckptFilter(ms), nil
	})
	defer e.seq.SetRecv(nil)

	// next walks the epoch list newest-first across rounds; the limit
	// only ever decreases, so entries skipped in one round never need
	// revisiting.
	next := len(epochs) - 1
	var snap *ckpt.Snapshot
	newestBelow := func(limit int64) int64 {
		for ; next >= 0; next-- {
			ep := epochs[next]
			if ep >= limit {
				continue
			}
			s, err := ckpt.Read(ckpt.Path(dir, e.rank, ep))
			if err != nil {
				continue // torn file: fall further back
			}
			snap = s
			return ep
		}
		snap = nil
		return 0
	}
	mine := newestBelow(int64(1) << 62)
	for {
		chosen, err := e.seq.AllReduceMin(mine)
		if err != nil {
			return fmt.Errorf("core: resume negotiation: %w", err)
		}
		if chosen <= 0 {
			return nil // some rank has nothing left: fresh start everywhere
		}
		ok := int64(0)
		if mine == chosen {
			ok = 1 // already read above
		} else if s, err := ckpt.Read(ckpt.Path(dir, e.rank, chosen)); err == nil {
			snap = s
			ok = 1
		}
		allOk, err := e.seq.AllReduceMin(ok)
		if err != nil {
			return fmt.Errorf("core: resume negotiation: %w", err)
		}
		if allOk == 1 {
			if err := validateSnapshot(snap, e.tr, e.opts); err != nil {
				return err
			}
			e.resumeSnap = snap
			return nil
		}
		mine = newestBelow(chosen)
	}
}

// validateSnapshot checks that a snapshot belongs to this run: same
// parameters, seed, rank geometry and partition scheme. A mismatch
// means the operator pointed -resume at the wrong directory or changed
// the run parameters, either of which would silently corrupt output.
func validateSnapshot(s *ckpt.Snapshot, tr transport.Transport, opts Options) error {
	m := s.Meta
	switch {
	case m.N != opts.Params.N:
		return fmt.Errorf("core: resume: snapshot has n=%d, run has n=%d", m.N, opts.Params.N)
	case m.X != opts.Params.X:
		return fmt.Errorf("core: resume: snapshot has x=%d, run has x=%d", m.X, opts.Params.X)
	case m.P != opts.Params.P:
		return fmt.Errorf("core: resume: snapshot has p=%v, run has p=%v", m.P, opts.Params.P)
	case m.Seed != opts.Seed:
		return fmt.Errorf("core: resume: snapshot has seed=%d, run has seed=%d", m.Seed, opts.Seed)
	case m.Ranks != tr.Size():
		return fmt.Errorf("core: resume: snapshot taken with %d ranks, run has %d", m.Ranks, tr.Size())
	case m.Rank != tr.Rank():
		return fmt.Errorf("core: resume: snapshot belongs to rank %d, not rank %d", m.Rank, tr.Rank())
	case m.Scheme != opts.Part.Name():
		return fmt.Errorf("core: resume: snapshot used partition %s, run uses %s", m.Scheme, opts.Part.Name())
	case ResolveMode(m.Resolve) != opts.Resolve:
		return fmt.Errorf("core: resume: snapshot used -resolve=%v, run uses -resolve=%v",
			ResolveMode(m.Resolve), opts.Resolve)
	}
	return nil
}

// buildSnapshotInto assembles this rank's snapshot at a cut into a
// pooled capture buffer. The rank is globally quiescent: no window is
// open, no data message is in flight and none sits in a send buffer
// (ckptCut checks), so every piece of protocol state lives in exactly
// one of the two tables captured here: the suspension table with its
// ahead blocks, and the waiter table. The capture holds no table:
// the cut has just written F up to the resolved frontier and flushed the
// open block, so the shard prefix under mark is F below the frontier,
// and the window carries F from there up to the cursor, above which
// every slot is NILL (DESIGN.md §9.5). The record arrays and the window
// bytes of the pooled snapshot are reused.
func (e *engine) buildSnapshotInto(s *ckpt.Snapshot, mark esink.Mark) {
	*s = ckpt.Snapshot{
		Meta: ckpt.Meta{
			N:       e.opts.Params.N,
			X:       e.x,
			P:       e.prob,
			Seed:    e.seed,
			Ranks:   e.p,
			Rank:    e.rank,
			Scheme:  e.part.Name(),
			Resolve: int(e.opts.Resolve),
		},
		Epoch:   e.ck.epoch,
		Susp:    slices.Grow(s.Susp[:0], e.susp.live),
		Ahead:   s.Ahead[:0],
		Waiters: slices.Grow(s.Waiters[:0], int(e.pendingWaiters)),
		Stats: ckpt.Stats{
			Retries:     e.stats.Retries,
			QueuedWaits: e.stats.QueuedWaits,
			LocalWaits:  e.stats.LocalWaits,
		},
		Sink:   ckpt.SinkMark{Offset: mark.Offset, Blocks: mark.Blocks, Edges: mark.Edges},
		Window: ckpt.Window{Start: e.frontier, Vals: s.Window.Vals[:0]},
	}
	// A cut before the first window passes bootstrap's nodes finds the
	// frontier above the cursor: the window is then empty. A value below
	// n is at most 1+len(n)/7 varint bytes.
	end := max(e.cursor*e.x64, e.frontier)
	s.Window.Vals = slices.Grow(s.Window.Vals, int(end-e.frontier)*(1+bits.Len64(uint64(e.opts.Params.N))/7))
	for i := e.frontier; i < end; i++ {
		s.Window.Append(e.f.get(i))
	}
	e.susp.forEach(func(idx int64, st suspState) {
		s.Susp = append(s.Susp, ckpt.SuspRecord{Idx: idx, Edge: int(st.e), Retry: int(st.r)})
		b := e.ahead.block(st.blk)
		for j := int(st.e) + 1; j < e.x; j++ {
			if b[j] != aheadWaiting {
				s.Ahead = append(s.Ahead, ckpt.AheadRecord{Slot: idx*e.x64 + int64(j), V: b[j]})
			}
		}
	})
	e.waiters.forEach(func(slot, t int64, e16 uint16) {
		s.Waiters = append(s.Waiters, ckpt.WaiterRecord{Slot: slot, T: t, E: e16})
	})
}

// restoreShard fills F below the snapshot's frontier from the rank's
// shard, which RunRank's Recover has just verified and truncated to the
// snapshot's mark: the cut wrote exactly the slots below the frontier
// there, in key order. Bootstrap has already written the clique and seed
// nodes (t <= x) and counted their records in e.emitted; the pass checks
// those are present and leaves their slots alone. Anything the CRCs
// cannot vouch for — a record count off the mark, a value outside
// [0, n) (the reader refuses it), a record at or above the window's
// start, a prefix that stops short of it — fails the resume rather than
// splicing a wrong table.
func (e *engine) restoreShard(mark ckpt.SinkMark) error {
	path := e.stream.Path()
	start := e.resumeSnap.Window.Start
	r, err := esink.OpenReaderTolerant(path)
	if err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	defer r.Close()
	it := r.Iter(0)
	var n, boot int64
	for {
		key, v, ok := it.NextSlot()
		if !ok {
			break
		}
		n++
		s := int64(key)
		switch {
		case s >= start:
			return fmt.Errorf("core: resume: shard %s: slot %d lies at or above the snapshot window's start %d", path, key, start)
		case e.f.get(s) < 0:
			e.f.set(s, v)
		default:
			boot++
		}
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	if n != mark.Edges || boot != e.emitted {
		return fmt.Errorf("core: resume: shard %s: prefix holds %d records (%d of bootstrap's %d), snapshot marks %d",
			path, n, boot, e.emitted, mark.Edges)
	}
	frontier := int64(0)
	for frontier < e.f.len() && e.f.get(frontier) >= 0 {
		frontier++
	}
	if frontier != start {
		return fmt.Errorf("core: resume: shard %s: prefix resolves F up to slot %d, the snapshot window starts at slot %d", path, frontier, start)
	}
	return nil
}

// restoreWindow fills F from the frontier up with the snapshot's window,
// which must end on a node boundary inside the rank's slots, and puts the
// cursor at that end: the nodes below it were initiated at the cut.
func (e *engine) restoreWindow(w *ckpt.Window) error {
	end := w.Start + w.Count
	if w.Count > e.f.len()-w.Start || end%e.x64 != 0 {
		return fmt.Errorf("core: resume: snapshot window of %d slots from slot %d does not end on a node boundary within the rank's %d slots", w.Count, w.Start, e.f.len())
	}
	err := w.Each(func(s, v int64) error {
		if v < -1 || v >= e.opts.Params.N {
			return fmt.Errorf("core: resume: snapshot window slot %d holds value %d outside the run's %d nodes", s, v, e.opts.Params.N)
		}
		if v >= 0 {
			e.f.set(s, v)
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.frontier, e.cursor = w.Start, end/e.x64
	return nil
}

// restore rebuilds the engine's state from the negotiated snapshot, after
// bootstrap. The records are keyed by node and slot, not by worker, so a
// snapshot restores at any worker count.
func (e *engine) restore() error {
	s := e.resumeSnap
	if err := e.restoreShard(s.Sink); err != nil {
		return err
	}
	if err := e.restoreWindow(&s.Window); err != nil {
		return err
	}

	for _, sr := range s.Susp {
		if sr.Idx < s.Window.Start/e.x64 || sr.Idx >= e.cursor {
			return fmt.Errorf("core: resume: suspended node at index %d lies outside the window's nodes [%d, %d)", sr.Idx, s.Window.Start/e.x64, e.cursor)
		}
		if sr.Edge < 0 || sr.Edge >= e.x || sr.Retry < 0 || e.f.get(sr.Idx*e.x64+int64(sr.Edge)) >= 0 {
			return fmt.Errorf("core: resume: suspended node at index %d waits on edge %d (retry %d), not an unresolved one", sr.Idx, sr.Edge, sr.Retry)
		}
		st := suspState{e: int32(sr.Edge), r: int32(sr.Retry), blk: e.ahead.alloc()}
		b := e.ahead.block(st.blk)
		for j := range b {
			b[j] = aheadWaiting
		}
		e.susp.put(sr.Idx, st)
	}
	for _, ar := range s.Ahead {
		st, ok := e.susp.get(max(ar.Slot, 0) / e.x64)
		if ar.Slot < 0 || !ok || ar.Slot%e.x64 <= int64(st.e) || ar.V < 0 || ar.V >= e.opts.Params.N {
			return fmt.Errorf("core: resume: answer %d held for slot %d, which is no suspended node's edge past its frontier", ar.V, ar.Slot)
		}
		e.ahead.block(st.blk)[ar.Slot%e.x64] = ar.V
	}
	// Every node below the cursor was initiated at the cut: finished, or
	// suspended. One that is neither would never be generated.
	for idx := s.Window.Start / e.x64; idx < e.cursor; idx++ {
		if e.f.get(idx*e.x64+e.x64-1) < 0 && !e.susp.has(idx) {
			return fmt.Errorf("core: resume: snapshot window covers local node %d, which is neither finished nor suspended", idx)
		}
	}
	for _, wr := range s.Waiters {
		if wr.Slot < 0 || wr.Slot >= e.f.len() {
			return fmt.Errorf("core: resume: waiter record for slot %d outside the rank's %d slots", wr.Slot, e.f.len())
		}
		e.waiters.push(wr.Slot, wr.T, wr.E)
		e.trackPending(1)
	}

	e.unresolved = 0
	for s := range e.f.len() {
		if e.f.get(s) < 0 {
			e.unresolved++
		}
	}

	// Run-lifetime counters continue across restarts.
	e.stats.Retries += s.Stats.Retries
	e.stats.QueuedWaits += s.Stats.QueuedWaits
	e.stats.LocalWaits += s.Stats.LocalWaits

	if ck := e.ck; ck != nil {
		ck.epochNext = s.Epoch + 1
		if e.rank == 0 && ck.every > 0 {
			// Re-derive the trigger base: initiated nodes are the
			// non-bootstrap ones below the cursor (recv counters restart
			// at zero with the fresh communicator).
			var initiated int64
			for idx := int64(0); idx < e.cursor; idx++ {
				if e.part.NodeAt(e.rank, idx) > e.x64 {
					initiated++
				}
			}
			ck.initiated = initiated
			ck.nextTrigger = initiated + ck.every
		}
	}
	return nil
}
