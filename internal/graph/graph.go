// Package graph provides the in-memory and on-disk graph representations
// used by the generator: flat edge lists (what the parallel algorithm
// emits, shard per rank), CSR adjacency built from them (what analysis
// consumes), degree sequences, and validation of the structural invariants
// of preferential-attachment output (no self-loops, no parallel edges,
// connectivity).
package graph

import (
	"fmt"
	"sort"
	"sync"

	"pagen/internal/hist"
)

// Edge is an undirected edge between nodes U and V.
type Edge struct {
	U, V int64
}

// Canonical returns the edge with endpoints ordered U <= V, the form used
// for duplicate detection.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Graph is an undirected graph stored as an edge list over nodes
// [0, N). Parallel edges and self-loops are representable (so that
// validation can detect them) but never produced by the generators.
type Graph struct {
	N     int64
	Edges []Edge
}

// New returns an empty graph over n nodes.
func New(n int64) *Graph {
	return &Graph{N: n}
}

// M returns the number of edges.
func (g *Graph) M() int64 { return int64(len(g.Edges)) }

// AddEdge appends edge (u, v).
func (g *Graph) AddEdge(u, v int64) {
	g.Edges = append(g.Edges, Edge{U: u, V: v})
}

// Degrees returns the degree of every node (each endpoint of each edge
// counts once; a self-loop contributes 2 to its node, the usual
// convention).
func (g *Graph) Degrees() []int64 {
	deg := make([]int64, g.N)
	for _, e := range g.Edges {
		deg[e.U]++
		deg[e.V]++
	}
	return deg
}

// DegreeHistogram returns the histogram of node degrees.
func (g *Graph) DegreeHistogram() *hist.Int {
	h := hist.NewInt()
	for _, d := range g.Degrees() {
		h.Add(d)
	}
	return h
}

// CSR is a compressed sparse row adjacency structure: the neighbours of
// node u are Adj[Off[u]:Off[u+1]], sorted ascending.
type CSR struct {
	N   int64
	Off []int64
	Adj []int64
}

// ToCSR builds the CSR adjacency of g. Each undirected edge appears in
// both endpoints' neighbour lists.
func (g *Graph) ToCSR() *CSR {
	deg := g.Degrees()
	off := make([]int64, g.N+1)
	for i := int64(0); i < g.N; i++ {
		off[i+1] = off[i] + deg[i]
	}
	adj := make([]int64, off[g.N])
	cursor := make([]int64, g.N)
	copy(cursor, off[:g.N])
	for _, e := range g.Edges {
		adj[cursor[e.U]] = e.V
		cursor[e.U]++
		adj[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	c := &CSR{N: g.N, Off: off, Adj: adj}
	for u := int64(0); u < c.N; u++ {
		nb := c.Neighbors(u)
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}
	return c
}

// Neighbors returns the (sorted) neighbour slice of u; the slice aliases
// the CSR storage and must not be modified.
func (c *CSR) Neighbors(u int64) []int64 {
	return c.Adj[c.Off[u]:c.Off[u+1]]
}

// Degree returns the degree of u.
func (c *CSR) Degree(u int64) int64 {
	return c.Off[u+1] - c.Off[u]
}

// HasEdge reports whether v appears in u's neighbour list (binary search).
func (c *CSR) HasEdge(u, v int64) bool {
	nb := c.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// ConnectedComponents returns the number of connected components of c,
// treating isolated nodes as their own components.
func (c *CSR) ConnectedComponents() (k int64) {
	c.components(nil, func(int64) { k++ })
	return k
}

// GiantComponentSize returns the size of the largest connected component
// after deleting the nodes for which excluded returns true (excluded may
// be nil). This powers failure/attack resilience experiments on
// scale-free networks (Albert, Jeong & Barabási — the paper's
// reference [1]).
func (c *CSR) GiantComponentSize(excluded func(u int64) bool) (best int64) {
	c.components(excluded, func(size int64) { best = max(best, size) })
	return best
}

// components calls f with the size of every connected component left
// after deleting the excluded nodes (none if excluded is nil). Iterative
// search; no recursion so billion-node graphs do not blow the stack.
func (c *CSR) components(excluded func(u int64) bool, f func(size int64)) {
	visited := make([]bool, c.N)
	queue := make([]int64, 0, 1024)
	for s := int64(0); s < c.N; s++ {
		if visited[s] || excluded != nil && excluded(s) {
			continue
		}
		size := int64(0)
		visited[s] = true
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			for _, v := range c.Neighbors(u) {
				if !visited[v] && (excluded == nil || !excluded(v)) {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
		f(size)
	}
}

// Validate checks the structural invariants expected of
// preferential-attachment output: all endpoints in range, no self-loops,
// and no parallel (duplicate) edges. It returns a descriptive error for
// the first violation found.
func (g *Graph) Validate() error {
	seen := make(map[Edge]struct{}, len(g.Edges))
	for i, e := range g.Edges {
		if e.U < 0 || e.U >= g.N || e.V < 0 || e.V >= g.N {
			return fmt.Errorf("graph: edge %d (%d,%d) endpoint outside [0,%d)", i, e.U, e.V, g.N)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: edge %d is a self-loop at node %d", i, e.U)
		}
		c := e.Canonical()
		if _, dup := seen[c]; dup {
			return fmt.Errorf("graph: edge %d (%d,%d) is a parallel edge", i, e.U, e.V)
		}
		seen[c] = struct{}{}
	}
	return nil
}

// parallelMergeMin is the edge count below which Merge copies serially:
// goroutine launch overhead beats memcpy for small graphs.
const parallelMergeMin = 1 << 17

// Merge gathers the edges of shards into a single graph over n nodes —
// how per-rank edge shards from a distributed run are combined. Shard
// order is preserved. The destination is allocated once at its exact
// size from prefix-summed shard offsets, and large merges copy the
// shards concurrently (each shard's destination range is disjoint), so
// the final gather is bandwidth-bound instead of serial-append-bound.
func Merge(n int64, shards ...[]Edge) *Graph {
	total := 0
	for _, s := range shards {
		total += len(s)
	}
	g := &Graph{N: n, Edges: make([]Edge, total)}
	if total >= parallelMergeMin && len(shards) > 1 {
		var wg sync.WaitGroup
		off := 0
		for _, s := range shards {
			if len(s) == 0 {
				continue
			}
			wg.Add(1)
			go func(dst, src []Edge) {
				defer wg.Done()
				copy(dst, src)
			}(g.Edges[off:off+len(s)], s)
			off += len(s)
		}
		wg.Wait()
		return g
	}
	off := 0
	for _, s := range shards {
		copy(g.Edges[off:], s)
		off += len(s)
	}
	return g
}
