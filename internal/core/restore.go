package core

import (
	"fmt"

	"pagen/internal/ckpt"
	"pagen/internal/esink"
	"pagen/internal/transport"
)

// resumeSnapshot returns the snapshot this rank resumes from: its own
// newest one that reads back (ckpt.Latest), checked against the run, or
// nil when it has none and starts fresh. No other rank is consulted: a
// rank's marked prefix is F for its nodes below the mark whatever its
// peers resume from (DESIGN.md §9.1).
func (e *engine) resumeSnapshot() (*ckpt.Snapshot, error) {
	snap, _, err := ckpt.Latest(e.opts.Checkpoint.Dir, e.rank)
	if err != nil {
		return nil, fmt.Errorf("core: resume: %w", err)
	}
	if snap != nil {
		if err := validateSnapshot(snap, e.tr, e.opts); err != nil {
			return nil, err
		}
	}
	return snap, nil
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

// restore rebuilds the engine's state from the rank's snapshot, after
// bootstrap: the shard recovered to the snapshot's mark, F below the
// frontier from that prefix, and the cursor at the frontier's node.
// Every node from there on is NILL and is generated as a fresh run would
// generate it, so no slot is resolved or written twice and unresolved
// stays exact (DESIGN.md §9.5). Nothing in the snapshot depends on the
// worker count, so it restores at any.
func (e *engine) restore(s *ckpt.Snapshot) error {
	prefix, err := e.stream.Recover(esink.Mark{Offset: s.Sink.Offset, Blocks: s.Sink.Blocks, Edges: s.Sink.Edges})
	if err != nil {
		return err
	}
	if err := e.restoreShard(prefix); err != nil {
		return err
	}
	e.cursor = e.frontier / e.x64
	// The work counters continue from the cut's totals; the nodes
	// regenerated above the mark add to them (RankStats.LocalWaits).
	e.stats.Retries += s.Stats.Retries
	e.stats.QueuedWaits += s.Stats.QueuedWaits
	e.stats.LocalWaits += s.Stats.LocalWaits
	e.ck.epoch = s.Epoch
	return nil
}

// restoreShard fills F from the shard prefix Recover has just verified
// and kept, and sets the frontier to the first NILL slot. The cut wrote
// every record of the nodes below its frontier there, in key order.
// Bootstrap has already written the clique and seed nodes (t <= x); the
// pass leaves their slots alone, and counts their records with the rest.
// Anything the CRCs cannot vouch for — a value outside [0, n) (the
// reader refuses it), a key past the rank's slots, a prefix that ends
// inside a node or leaves a gap below its last record, one short of
// bootstrap's records — fails the resume rather than splicing a wrong
// table.
func (e *engine) restoreShard(it *esink.Iter) error {
	path := e.stream.Path()
	var n int64
	last := int64(-1)
	for {
		key, v, ok := it.NextSlot()
		if !ok {
			break
		}
		s := int64(key)
		if s >= e.f.len() {
			return fmt.Errorf("core: resume: shard %s: slot %d lies past the rank's %d slots", path, key, e.f.len())
		}
		if e.f.get(s) < 0 {
			e.f.set(s, v)
			e.unresolved--
		}
		n++
		last = s
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	frontier := int64(0)
	for frontier < e.f.len() && e.f.get(frontier) >= 0 {
		frontier++
	}
	if frontier%e.x64 != 0 || last >= frontier {
		return fmt.Errorf("core: resume: shard %s: prefix resolves F up to slot %d and holds slot %d, not every slot of the nodes below a node boundary", path, frontier, last)
	}
	// Every slot below the frontier is final, and bootstrap's were before
	// the pass: the nodes below it have all the rank's edges (rankEdges)
	// but those of the slots from the frontier on.
	if want := rankEdges(e.part, e.rank, e.x) - (e.f.len() - frontier); n != want {
		return fmt.Errorf("core: resume: shard %s: prefix holds %d records, bootstrap's and those of the nodes below slot %d number %d", path, n, frontier, want)
	}
	e.frontier = frontier
	return nil
}
