package pagen

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"pagen/internal/stats"
)

// The degree-law oracle. Every other output test compares the parallel
// engine with seq.CopyModel, which shares its draw code; these compare
// the generated graphs with the copy model's degree law, computed here
// from the model's definition alone:
//
//   - node t > x draws k uniformly from [x, t), attaches to k with
//     probability p and otherwise to F_k(l) for a uniform l in [0, x),
//     retrying an attempt whose target it already attaches to;
//   - so one attempt of node t hits node j >= x with probability
//     (p + (1-p)·in_j/x)/(t-x), in_j being j's in-degree so far.
//
// At p = ½ that is linear preferential attachment with m = x, whose
// degree law is P(d) = 2x(x+1)/(d(d+1)(d+2)) for d >= x; at other p the
// expected in-degree histogram is the master-equation iterate. A small
// graph's law is enumerated exactly, duplicate retries included. Each
// fit is Pearson's chi-square with bins pooled to an expected count of
// at least minExpected, refused above the α = 10⁻⁴ critical value.

const (
	minExpected = 10
	// zAlpha is the standard normal quantile of 1 − 10⁻⁴.
	zAlpha = 3.719
)

// chiCritical is the upper 10⁻⁴ point of the chi-square law with df
// degrees of freedom (Wilson–Hilferty).
func chiCritical(df int) float64 {
	d := float64(df)
	c := 1 - 2/(9*d) + zAlpha*math.Sqrt(2/(9*d))
	return d * c * c * c
}

// fitLaw pools obs/exp from the tail until every bin expects at least
// minExpected, then fails t if the chi-square statistic exceeds the
// critical value. The last bin of exp must already hold the law's whole
// tail mass.
func fitLaw(t *testing.T, label string, obs, exp []float64) {
	t.Helper()
	var o, e []float64
	var po, pe float64
	for i := len(exp) - 1; i >= 0; i-- {
		po += obs[i]
		pe += exp[i]
		if pe >= minExpected {
			o, e = append(o, po), append(e, pe)
			po, pe = 0, 0
		}
	}
	if len(e) > 0 {
		o[len(o)-1] += po
		e[len(e)-1] += pe
	}
	if len(e) < 3 {
		t.Fatalf("%s: only %d bins", label, len(e))
	}
	chi2, crit := stats.ChiSquare(o, e), chiCritical(len(e)-1)
	t.Logf("%s: chi2 %.1f over %d bins (critical %.1f)", label, chi2, len(e), crit)
	if chi2 > crit {
		t.Errorf("%s: chi-square %.1f over %d bins exceeds the 1e-4 critical value %.1f: the degrees do not follow the copy model's law", label, chi2, len(e), crit)
	}
}

// inDegrees counts, per node, the edges that generating nodes (t >= x)
// attach to it.
func inDegrees(g *Graph, x int) []int64 {
	in := make([]int64, g.N)
	for _, e := range g.Edges {
		if e.U >= int64(x) {
			in[e.V]++
		}
	}
	return in
}

// histogram returns the in-degree histogram of nodes [x, n) with bins
// 0..k-1, the last bin holding every in-degree >= k-1.
func histogram(in []int64, x, k int) []float64 {
	h := make([]float64, k)
	for _, d := range in[x:] {
		h[min(d, int64(k-1))]++
	}
	return h
}

// masterIterate returns the expected in-degree histogram of nodes
// [x, n) after node n-1, bins 0..k-1 with the last absorbing: node t
// makes x attempts, each moving a node of in-degree i to i+1 with
// probability (p + (1-p)·i/x)/(t-x), and then joins with in-degree 0.
func masterIterate(n int64, x int, p float64, k int) []float64 {
	h := make([]float64, k)
	h[0] = 1 // node x
	xf := float64(x)
	for t := int64(x) + 1; t < n; t++ {
		c := xf / float64(t-int64(x))
		for i := k - 1; i >= 1; i-- {
			in := c * (p + (1-p)*float64(i-1)/xf) * h[i-1]
			h[i] += in
			h[i-1] -= in
		}
		h[0]++
	}
	return h
}

// TestDegreeLawBA fits the degree histogram of a p = ½ graph, made at
// two ranks, to the Barabási–Albert law.
func TestDegreeLawBA(t *testing.T) {
	const n, x, k = 200_000, 3, 400
	res, err := Generate(Config{N: n, X: x, P: 0.5, Ranks: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	exp := make([]float64, k)
	for i := range exp {
		d := float64(x + i)
		exp[i] = (n - x) * 2 * x * (x + 1) / (d * (d + 1) * (d + 2))
	}
	d := float64(x + k - 1)
	exp[k-1] = (n - x) * x * (x + 1) / (d * (d + 1))
	fitLaw(t, "p=0.5", histogram(inDegrees(res.Graph, x), x, k), exp)
}

// TestDegreeLawMasterEquation fits the in-degree histograms of p = 0.3
// and p = 0.8 graphs, made at two ranks, to the master-equation iterate
// — after checking the iterate itself against the closed form at p = ½.
func TestDegreeLawMasterEquation(t *testing.T) {
	const n, x, k = 200_000, 3, 400
	half := masterIterate(n, x, 0.5, k)
	for i := 0; i < 30; i++ {
		d := float64(x + i)
		want := (n - x) * 2 * x * (x + 1) / (d * (d + 1) * (d + 2))
		if math.Abs(half[i]-want) > 1e-3*want+0.5 {
			t.Fatalf("master equation at p = 0.5, in-degree %d: %.1f nodes, closed form %.1f", i, half[i], want)
		}
	}
	for _, p := range []float64{0.3, 0.8} {
		res, err := Generate(Config{N: n, X: x, P: p, Ranks: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		fitLaw(t, fmt.Sprintf("p=%v", p), histogram(inDegrees(res.Graph, x), x, k), masterIterate(n, x, p, k))
	}
}

// smallLaw enumerates the exact distribution of the in-degree vector of
// an n-node graph: state by state, node t's x distinct targets are drawn
// in edge order, each with the one-attempt law renormalised over the
// targets not yet taken — what retrying duplicates amounts to.
func smallLaw(n int64, x int, p float64) map[string]float64 {
	key := func(in []int) string { return fmt.Sprint(in) }
	type state struct {
		in []int
		pr float64
	}
	boot := make([]int, n)
	for j := 0; j < x; j++ {
		boot[j] = 1 // node x attaches to every clique node
	}
	states := map[string]state{key(boot): {boot, 1}}
	for t := int64(x) + 1; t < n; t++ {
		span := float64(t - int64(x))
		q := func(in []int, v int) float64 {
			direct := 0.0
			if v >= x && int64(v) < t {
				direct = p / span
			}
			return direct + (1-p)*float64(in[v])/(float64(x)*span)
		}
		next := map[string]state{}
		var place func(in []int, taken []int, pr, mass float64)
		place = func(in []int, taken []int, pr, mass float64) {
			if len(taken) == x {
				out := append([]int(nil), in...)
				for _, v := range taken {
					out[v]++
				}
				s := next[key(out)]
				next[key(out)] = state{out, s.pr + pr}
				return
			}
			for v := 0; int64(v) < t; v++ {
				if w := q(in, v); w > 0 && !contains(taken, v) {
					place(in, append(taken, v), pr*w/(1-mass), mass+w)
				}
			}
		}
		for _, s := range states {
			place(s.in, nil, s.pr, 0)
		}
		states = next
	}
	law := make(map[string]float64, len(states))
	for k, s := range states {
		law[k] = s.pr
	}
	return law
}

func contains(vs []int, v int) bool {
	for _, u := range vs {
		if u == v {
			return true
		}
	}
	return false
}

// TestDegreeLawSmallExact generates many seven-node graphs at x = 2 and
// fits the joint law of their in-degree vectors — the whole degree
// sequence — to the exact enumeration. A small graph is where the draw
// range, the bootstrap and the duplicate retry shape the law most.
func TestDegreeLawSmallExact(t *testing.T) {
	const n, x, reps = 7, 2, 20_000
	for _, p := range []float64{0.3, 0.5, 0.8} {
		law := smallLaw(n, x, p)
		keys := make([]string, 0, len(law))
		total := 0.0
		for k, pr := range law {
			keys = append(keys, k)
			total += pr
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("p=%v: enumerated law sums to %v", p, total)
		}
		// Bins in decreasing probability, so pooling from the tail merges
		// the rare vectors.
		sort.Slice(keys, func(i, j int) bool {
			if law[keys[i]] != law[keys[j]] {
				return law[keys[i]] > law[keys[j]]
			}
			return keys[i] < keys[j]
		})
		bin := make(map[string]int, len(keys))
		for i, k := range keys {
			bin[k] = i
		}
		obs, exp := make([]float64, len(keys)), make([]float64, len(keys))
		for i, k := range keys {
			exp[i] = reps * law[k]
		}
		for s := uint64(1); s <= reps; s++ {
			res, err := Generate(Config{N: n, X: x, P: p, Seed: s, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			in := inDegrees(res.Graph, x)
			k := fmt.Sprint(in)
			i, ok := bin[k]
			if !ok {
				t.Fatalf("p=%v seed=%d: in-degree vector %s has probability 0 under the model", p, s, k)
			}
			obs[i]++
		}
		fitLaw(t, fmt.Sprintf("p=%v", p), obs, exp)
	}
}
