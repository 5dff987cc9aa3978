package core

import (
	"pagen/internal/model"
	"pagen/internal/xrand"
)

// hubCache is the rank's replica of the hub prefix: the F slots of the
// first h global nodes, flat like the main table (slot k*x + l). Every
// rank computes the whole replica itself before its first window (fill):
// an attempt is a pure function of (seed, t, e, r) and a prefix node
// copies only from lower prefix nodes, so nothing has to travel, and a
// remote read below h always hits (DESIGN.md §10). Only remote-owned
// slots are ever consulted: a local copy source short-circuits to the
// rank's own table before the replica is looked at.
type hubCache struct {
	h int64 // nodes covered: global ids [0, h)
	f ftab
}

// newHubCache returns an empty replica of h nodes' x64 slots in an n-node
// run.
func newHubCache(h, x64, n int64) *hubCache {
	return &hubCache{h: h, f: newFtab(h*x64, n)}
}

// fill computes the replica from the seed: node x's bootstrap row, then
// every node x < t < h in order, each edge's attempts with duplicate
// retries, every copy read from the replica's lower rows. The clique
// rows stay NILL (copy sources are drawn from [x, t)). It counts, traces
// and censuses nothing: the rank's own prefix nodes still go through the
// window kernel, which accounts for them.
func (c *hubCache) fill(pr model.Params, seed uint64) {
	x := int64(pr.X)
	for l := range pr.X {
		v, _ := pr.BootstrapF(x, l)
		c.f.set(x*x+int64(l), v)
	}
	var rng xrand.Rand
	for t := x + 1; t < c.h; t++ {
		d, base := pr.NewDrawer(t), t*x
		for edge := range pr.X {
			for r := 0; ; r++ {
				a := d.Attempt(&rng, seed, edge, r)
				v := a.K
				if !a.Direct {
					v = c.f.get(a.K*x + int64(a.L))
				}
				if !c.f.has(base, x, v) {
					c.f.set(base+int64(edge), v)
					break
				}
			}
		}
	}
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
