// Package seq implements the sequential preferential-attachment
// generators the paper discusses in Section 3.1: the naive degree-scan
// algorithm (Omega(n^2), kept as a correctness oracle for small n), the
// Batagelj–Brandes O(m) repeated-nodes algorithm, and the copy model of
// Kumar et al. — the algorithm the parallel engine is built on, and the
// T_s baseline for the paper's speedup measurements.
package seq

import (
	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/xrand"
)

// CopyModelOptions controls optional outputs of CopyModel.
type CopyModelOptions struct {
	// RecordTrace, when set, makes CopyModel return the per-slot
	// decision trace used by the dependency-chain analysis.
	RecordTrace bool
}

// CopyModel generates a preferential-attachment network sequentially with
// the copy model (Section 3.1). At p = 0.5 the attachment probabilities
// are exactly those of the Barabási–Albert model. Runtime is O(m).
//
// Attempt r of node t's edge e is a pure function of (seed, t, e, r)
// (model.Drawer.Attempt), the draws the parallel engine makes too;
// consequently the parallel generator reproduces CopyModel's
// attachments at every rank count, partitioning scheme and worker
// count.
func CopyModel(pr model.Params, seed uint64, opts CopyModelOptions) (*graph.Graph, *model.Trace, error) {
	if err := pr.Validate(); err != nil {
		return nil, nil, err
	}
	n, x := pr.N, pr.X
	x64 := int64(x)

	g := graph.New(n)
	g.Edges = make([]graph.Edge, 0, pr.M())

	var tr *model.Trace
	if opts.RecordTrace {
		tr = model.NewTrace(pr)
	}

	// F[(t-x)*x + e] = F_t(e) for t in [x, n). Clique nodes have no
	// outgoing attachment slots.
	f := make([]int64, (n-x64)*x64)
	slot := func(t int64, e int) int64 { return (t-x64)*x64 + int64(e) }

	// Initial clique: node t < x contributes (t, j) for all j < t.
	for t := int64(1); t < x64; t++ {
		for j := int64(0); j < t; j++ {
			g.AddEdge(t, j)
		}
	}

	// Bootstrap node x: attaches to every clique node.
	for e := 0; e < x; e++ {
		v, _ := pr.BootstrapF(x64, e)
		f[slot(x64, e)] = v
		g.AddEdge(x64, v)
		if tr != nil {
			tr.RecordBootstrap(x64, e)
		}
	}

	// dup reports whether v is already one of t's first e attachments.
	dup := func(t int64, e int, v int64) bool {
		base := slot(t, 0)
		for i := 0; i < e; i++ {
			if f[base+int64(i)] == v {
				return true
			}
		}
		return false
	}

	var rng xrand.Rand // re-seeded per attempt
	for t := x64 + 1; t < n; t++ {
		d := pr.NewDrawer(t)
		for e := 0; e < x; e++ {
			// F_t(e) is the first attempt's value that is no duplicate.
			a, v := model.Attempt{}, int64(0)
			for r := 0; r == 0 || dup(t, e, v); r++ {
				if a = d.Attempt(&rng, seed, e, r); a.Direct {
					v = a.K
				} else {
					v = f[slot(a.K, a.L)]
				}
			}
			f[slot(t, e)] = v
			g.AddEdge(t, v)
			switch {
			case tr == nil:
			case a.Direct:
				tr.RecordDirect(t, e, v)
			default:
				tr.RecordCopy(t, e, a.K, a.L)
			}
		}
	}
	return g, tr, nil
}
