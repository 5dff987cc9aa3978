package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/seq"
	"pagen/internal/transport"
)

// ftabSlots copies every slot of f out as an int64, -1 for NILL.
func ftabSlots(f ftab) []int64 {
	out := make([]int64, f.len())
	for s := range out {
		out[s] = f.get(int64(s))
	}
	return out
}

// The table reads back exactly what a plain []int64 holds under random
// set/get/has traffic, at both widths: narrow up to n = MaxUint32, whose
// largest node id n−1 still fits in the low half once biased by one, and
// wide from MaxUint32 + 1 on, where values reach past 2³². The values
// drawn include NILL (−1), 0, n−1, the clique self-markers t < x and the
// width boundary, and a fresh table is all NILL without a fill pass.
// The hosted cases put the low plane in the tightest edge range that
// holds it (4E = S).
func TestFtabMatchesInt64Reference(t *testing.T) {
	const x = 4
	for _, tc := range []struct {
		name   string
		n      int64
		slots  int64
		wide   bool
		hosted bool
	}{
		{"narrow n=1e6", 1_000_000, 1 << 16, false, false},
		{"narrow n=MaxUint32", math.MaxUint32, 4096, false, false},
		{"wide n=MaxUint32+1", math.MaxUint32 + 1, 4096, true, false},
		{"wide n=2^40", 1 << 40, 4096, true, false},
		{"narrow n=1e6 hosted", 1_000_000, 1 << 16, false, true},
		{"wide n=2^40 hosted", 1 << 40, 4096, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFtab(tc.slots, tc.n)
			if tc.hosted {
				f = hostedFtab(make([]graph.Edge, tc.slots/4), tc.slots, tc.n)
			}
			if got := f.hi != nil; got != tc.wide {
				t.Fatalf("wide = %v, want %v", got, tc.wide)
			}
			if f.len() != tc.slots {
				t.Fatalf("len %d, want %d", f.len(), tc.slots)
			}
			ref := make([]int64, tc.slots)
			for s := range ref {
				ref[s] = -1
				if v := f.get(int64(s)); v != -1 {
					t.Fatalf("fresh slot %d reads %d, want -1", s, v)
				}
			}
			special := []int64{-1, 0, 1, x - 1, tc.n - 1, tc.n - 2}
			if tc.wide {
				special = append(special, math.MaxUint32-1, math.MaxUint32, math.MaxUint32+1, 1<<32|7)
			}
			rng := rand.New(rand.NewPCG(uint64(tc.n), 7))
			value := func() int64 {
				if rng.IntN(3) == 0 {
					return special[rng.IntN(len(special))]
				}
				return rng.Int64N(tc.n)
			}
			for i := 0; i < 200_000; i++ {
				s := rng.Int64N(tc.slots)
				switch rng.IntN(3) {
				case 0:
					v := value()
					f.set(s, v)
					ref[s] = v
				case 1:
					if got := f.get(s); got != ref[s] {
						t.Fatalf("op %d: get(%d) = %d, want %d", i, s, got, ref[s])
					}
				default:
					base := s / x * x
					v := value()
					if rng.IntN(2) == 0 {
						v = ref[base+rng.Int64N(x)] // often present
					}
					want := false
					for _, u := range ref[base : base+x] {
						want = want || u == v
					}
					if got := f.has(base, x, v); got != want {
						t.Fatalf("op %d: has(%d, %d, %d) = %v, want %v (row %v)", i, base, x, v, got, want, ref[base:base+x])
					}
				}
			}
			for s, v := range ftabSlots(f) {
				if v != ref[s] {
					t.Fatalf("slot %d = %d, want %d", s, v, ref[s])
				}
			}
		})
	}
}

// An in-memory rank's table lives in the last 4·S bytes of its own edge
// range — Run's precut range or the list RunRank's bootstrap allocates —
// unless the range is too short (4E < S), and collectEdges expands it
// in place into exactly the sequential edge list. Tiny n puts most of a
// rank's nodes in the clique, where the deficit is largest and the
// fallback is taken.
func TestFtabHostedInEdgeRange(t *testing.T) {
	var hosted, fallback int
	for _, kind := range allKinds {
		for _, ranks := range []int{1, 2, 3, 5, 8} {
			for _, x := range []int{1, 2, 4, 8} {
				for n := int64(x + 1); n <= int64(x+24); n++ {
					pr := model.Params{N: n, X: x, P: 0.5}
					opts := Options{Params: pr, Part: mustScheme(t, kind, n, ranks), Seed: 11, Workers: 1}
					label := fmt.Sprintf("%v p=%d x=%d n=%d", kind, ranks, x, n)
					h, fb := checkFtabPlacement(t, label, opts)
					hosted += h
					fallback += fb
					checkRunMatchesSequential(t, label, opts)
				}
			}
		}
	}
	if hosted == 0 || fallback == 0 {
		t.Fatalf("%d hosted and %d fallback tables: the matrix must exercise both", hosted, fallback)
	}
}

// checkFtabPlacement bootstraps every rank of opts twice — into a zeroed
// range, as Run hands it, and into no range, as RunRank starts — and
// checks where each table's low plane landed. It returns how many tables
// were hosted in their range and how many fell back.
func checkFtabPlacement(t *testing.T, label string, opts Options) (hosted, fallback int) {
	t.Helper()
	p := opts.Part.P()
	group, err := transport.NewShmGroup(p)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		want := rankEdges(opts.Part, r, opts.Params.X)
		for _, out := range [][]graph.Edge{make([]graph.Edge, want), nil} {
			e, err := newEngine(group.Endpoint(r), opts)
			if err != nil {
				t.Fatal(err)
			}
			e.edges = out
			e.bootstrap()
			if int64(len(e.edges)) != want {
				t.Fatalf("%s rank %d: range of %d edges, want %d", label, r, len(e.edges), want)
			}
			if len(out) > 0 && &e.edges[0] != &out[0] {
				t.Fatalf("%s rank %d: bootstrap replaced the range it was handed", label, r)
			}
			slots := e.size * e.x64
			if e.f.len() != slots {
				t.Fatalf("%s rank %d: table of %d slots, want %d", label, r, e.f.len(), slots)
			}
			if slots == 0 {
				continue
			}
			lo := reflect.ValueOf(e.f.lo).Pointer()
			base := reflect.ValueOf(e.edges).Pointer()
			end := base + uintptr(edgeBytes*want)
			if 4*want >= slots {
				hosted++
				if lo != end-uintptr(4*slots) || cap(e.f.lo) != int(slots) {
					t.Fatalf("%s rank %d: table at %#x (cap %d), want the last %d bytes of [%#x, %#x)",
						label, r, lo, cap(e.f.lo), 4*slots, base, end)
				}
			} else {
				fallback++
				if lo >= base && lo < end {
					t.Fatalf("%s rank %d: 4E = %d < S = %d, yet the table is inside the range", label, r, 4*want, slots)
				}
			}
		}
	}
	return hosted, fallback
}

// checkRunMatchesSequential runs opts through Run and compares the graph
// with the sequential copy model's edge list: ordering the ranks' output
// by attaching node (stably, so each node keeps its edges in e order)
// gives exactly the sequential order.
func checkRunMatchesSequential(t *testing.T, label string, opts Options) {
	t.Helper()
	res, err := Run(opts, false)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sg, _, err := seq.CopyModel(opts.Params, opts.Seed, seq.CopyModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Graph.Edges
	sort.SliceStable(got, func(i, j int) bool { return got[i].U < got[j].U })
	equalEdges(t, label, got, sg.Edges)
}

// With the table inside the output, an in-memory run allocates its edge
// list and little else: both core.Run and RunRank stay within 16 bytes
// per edge plus 1 MiB of bookkeeping. A separate 4 B/slot table would
// add 3.2 MB at this size.
func TestFtabInMemoryRunAllocs(t *testing.T) {
	pr := model.Params{N: 200_000, X: 4, P: 0.5}
	opts := Options{Params: pr, Part: mustScheme(t, partition.KindUCP, pr.N, 1), Seed: 1}
	bound := 16*pr.M() + 1<<20
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Run", func() error { _, err := Run(opts, false); return err }},
		{"RunRank", func() error {
			group, err := transport.NewShmGroup(1)
			if err != nil {
				return err
			}
			_, err = RunRank(group.Endpoint(0), opts)
			return err
		}},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		runtime.ReadMemStats(&after)
		if got := int64(after.TotalAlloc - before.TotalAlloc); got > bound {
			t.Errorf("%s allocated %d bytes, want ≤ 16·M + 1 MiB = %d (%d over)", c.name, got, bound, got-bound)
		} else {
			t.Logf("%s allocated %d bytes (16·M = %d)", c.name, got, 16*pr.M())
		}
	}
}
