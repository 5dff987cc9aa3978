package core

import (
	"fmt"

	"pagen/internal/msg"
	"pagen/internal/partition"
)

// hubCache is the rank's read-mostly replica of the hub prefix: the F
// slots of the first h global nodes, flat like the main table (slot k*x
// + l, NILL = not yet known here). Slots are installed with the owning
// rank's write-once value — from a publish message, a wire answer the
// rank received anyway, or a replay — so every install for a slot
// carries the same immutable value, duplicated publishes included, and
// the replica needs no invalidation protocol (DESIGN.md §10). Only
// remote-owned slots are ever consulted: a local copy source
// short-circuits to the rank's own table before the replica is looked
// at.
type hubCache struct {
	h int64 // nodes covered: global ids [0, h)
	f ftab
}

// newHubCache returns an empty replica of h nodes' x64 slots in an n-node
// run.
func newHubCache(h, x64, n int64) *hubCache {
	return &hubCache{h: h, f: newFtab(h*x64, n)}
}

// hubPeerRanks returns the ranks that can request a prefix slot this
// rank owns — the publish fan-out set. Under a contiguous partition the
// request matrix is strictly lower-triangular (Section 4.6.2): only
// nodes t > k query k, and with contiguous ranges those live on ranks
// after k's owner (same-rank requesters read the local table directly),
// so publishes skip the ranks before this one. Non-contiguous schemes
// (RRP) interleave requesters, so every peer gets the publishes.
func hubPeerRanks(part partition.Scheme, rank, p int) []int {
	peers := make([]int, 0, p-1)
	if _, ok := part.(partition.Consecutive); ok {
		for r := rank + 1; r < p; r++ {
			peers = append(peers, r)
		}
		return peers
	}
	for r := 0; r < p; r++ {
		if r != rank {
			peers = append(peers, r)
		}
	}
	return peers
}

// noteElided counts one elided copy query for global prefix node k —
// load its owner would have seen without the cache (Lemma 3.4's M_k is
// then NodeLoad + HubElided across ranks). No-op for k outside the
// prefix or without CollectNodeLoad.
func (e *engine) noteElided(k int64) {
	if e.hubElided == nil || k >= int64(len(e.hubElided)) {
		return
	}
	e.hubElided[k]++
}

// applyPublish installs one received publish into the replica.
func (e *engine) applyPublish(m msg.Message) error {
	hub := e.hub
	if hub == nil {
		return fmt.Errorf("core: rank %d received a hub publish for node %d with the hub cache disabled (mismatched hub-prefix settings across ranks?)", e.rank, m.T)
	}
	if m.T >= hub.h {
		return fmt.Errorf("core: rank %d received a hub publish for node %d outside its prefix of %d nodes (mismatched hub-prefix settings across ranks?)", e.rank, m.T, hub.h)
	}
	hub.f.set(m.T*e.x64+int64(m.E), m.V)
	return nil
}

// onFence counts one received hub fence: the sending rank promises no
// further publishes. Receiving p-1 of them (plus stop) lets finished()
// release the transport with no publish frame still in flight.
func (e *engine) onFence() error {
	if e.hub == nil {
		return fmt.Errorf("core: rank %d received a hub fence with the hub cache disabled (mismatched hub-prefix settings across ranks?)", e.rank)
	}
	e.fencesRecv++
	return nil
}

// sendFences tells every peer this rank will publish no more. SendNow
// appends the fence to the peer's buffer and flushes the whole buffer,
// so on each pairwise FIFO channel the fence trails every publish this
// rank buffered — which is what makes fencesRecv a proof of silence.
// Called at done-report time: all local slots are resolved, so no
// further resolveSlot (and hence no further publish) can happen.
func (e *engine) sendFences() error {
	if e.hub == nil {
		return nil
	}
	for r := 0; r < e.p; r++ {
		if r == e.rank {
			continue
		}
		if err := e.cm.SendNow(r, msg.Fence(e.rank)); err != nil {
			return err
		}
	}
	return nil
}

// finished reports whether the rank may leave its receive loop:
// stop has arrived, every checkpoint cut marker owed to it has too
// (relays ride peer channels and can trail stop), and — when the hub
// replica is on — every peer has fenced its publish stream. Without
// these waits, a publish or marker sent to an already-stopped rank
// would linger on the transport and corrupt whatever runs over the same
// connections next (cmd/pa-tcp's post-run collectives reject
// non-collective traffic). Duplicated fences only push fencesRecv
// further past the threshold, hence >=.
func (e *engine) finished() bool {
	return e.stopped && (e.hub == nil || e.fencesRecv >= e.p-1) &&
		(e.ck == nil || e.ck.markersOwed == 0)
}

// publishResolvedPrefix seeds the peers' replicas with every already
// resolved prefix slot this rank owns: node x's bootstrap attachments
// on a fresh run, everything the snapshot restored on a resumed one
// (the replica itself is never serialized — each rank re-derives its
// contribution here, see docs/CHECKPOINT_FORMAT.md). Runs after
// bootstrap/restore; sends are buffered and ride the engine's normal
// flush points.
func (e *engine) publishResolvedPrefix() error {
	hub := e.hub
	if hub == nil || len(e.hubPeers) == 0 {
		return nil
	}
	for k := e.x64; k < hub.h; k++ {
		if e.part.Owner(k) != e.rank {
			continue
		}
		base := e.part.Index(e.rank, k) * e.x64
		for l := 0; l < e.x; l++ {
			v := e.f.get(base + int64(l))
			if v < 0 {
				continue
			}
			for _, r := range e.hubPeers {
				if err := e.cm.Send(r, msg.Publish(k, l, v)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
