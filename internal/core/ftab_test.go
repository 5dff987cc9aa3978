package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

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
// set/get/has traffic at every width boundary: n = 2ᵏ−1, 2ᵏ and 2ᵏ+1,
// where w = bits.Len64(n) steps from k to k+1 and the largest stored
// value n is all ones, then 1 and a zero tail, in w bits; every width
// from 2 to 57 at n = 2ʷ−1, the last at MaxN, the largest n the engine
// takes. The values drawn include NILL (−1), 0, n−1, the clique
// self-markers t < x and values with the top bit of the slot set, the
// last slot is written and read every 16th op (its word runs through the
// tail padding), and a fresh table is all NILL without a fill pass. The
// hosted cases put the table in the shortest edge range that holds it,
// and check that no write leaves the table's bytes.
func TestFtabMatchesInt64Reference(t *testing.T) {
	const x = 4
	type tcase struct {
		label  string // n, or the width swept
		n      int64
		slots  int64
		ops    int
		hosted bool
	}
	var cases []tcase
	for _, k := range []int{2, 8, 20, 31, 32, 33, 40} {
		labels := []string{fmt.Sprintf("n=2^%d-1", k), fmt.Sprintf("n=2^%d", k), fmt.Sprintf("n=2^%d+1", k)}
		if k == 32 {
			labels = []string{"n=MaxUint32", "n=MaxUint32+1", "n=MaxUint32+2"}
		}
		for i, n := range []int64{1<<k - 1, 1 << k, 1<<k + 1} {
			for _, hosted := range []bool{false, true} {
				cases = append(cases, tcase{labels[i], n, 4099 * x, 100_000, hosted})
			}
		}
	}
	for w := 2; w <= 57; w++ {
		cases = append(cases, tcase{fmt.Sprintf("w=%d", w), 1<<w - 1, 1001 * x, 10_000, w%2 == 0})
	}
	for _, hosted := range []bool{false, true} {
		cases = append(cases, tcase{"n=MaxN", MaxN, 4099 * x, 100_000, hosted}, tcase{"n=1e6", 1_000_000, 1 << 16, 200_000, hosted})
	}
	for _, tc := range cases {
		// Narrow values fit in 32 bits, wide ones do not.
		name := "narrow " + tc.label
		if tc.n > math.MaxUint32 {
			name = "wide " + tc.label
		}
		if tc.hosted {
			name += " hosted"
		}
		t.Run(name, func(t *testing.T) {
			checkFtabReference(t, tc.n, tc.slots, tc.ops, tc.hosted, x)
		})
	}
	// One node more and a slot would need 58 bits, which the 8-byte word
	// cannot hold at every bit offset: the engine refuses the run by name.
	for _, run := range []func(Options) error{
		func(o Options) error { _, err := Run(o, false); return err },
		func(o Options) error { _, err := newEngine(nil, o); return err },
	} {
		err := run(Options{Params: model.Params{N: MaxN + 1, X: x, P: 0.5}})
		if err == nil || !strings.Contains(err.Error(), "exceeds core.MaxN") {
			t.Fatalf("n = MaxN + 1: err = %v, want one naming core.MaxN", err)
		}
	}
}

func checkFtabReference(t *testing.T, n, slots int64, ops int, hosted bool, x int64) {
	tb := ftabBytes(slots, n)
	f := newFtab(slots, n)
	var edges []graph.Edge
	if hosted {
		edges = make([]graph.Edge, (tb+edgeBytes-1)/edgeBytes)
		f = hostedFtab(edges, slots, n)
		if &f.b[0] != &unsafe.Slice((*byte)(unsafe.Pointer(&edges[0])), edgeBytes*int64(len(edges)))[edgeBytes*int64(len(edges))-tb] {
			t.Fatalf("a %d-byte table is not the tail of a %d-edge range", tb, len(edges))
		}
	}
	if w := f.w; w != uint64(bits.Len64(uint64(n))) || int64(len(f.b)) != tb || f.len() != slots {
		t.Fatalf("w = %d, %d bytes, %d slots; want %d, %d, %d", w, len(f.b), f.len(), bits.Len64(uint64(n)), tb, slots)
	}
	if payload := (slots*int64(f.w) + 7) / 8; tb-payload < 0 || tb-payload > 7 {
		t.Fatalf("%d bytes for %d slots of %d bits: padding %d, want 0 to 7", tb, slots, f.w, tb-payload)
	}
	ref := make([]int64, slots)
	for s := range ref {
		ref[s] = -1
		if v := f.get(int64(s)); v != -1 {
			t.Fatalf("fresh slot %d reads %d, want -1", s, v)
		}
	}
	special := slices.DeleteFunc([]int64{-1, 0, 1, x - 1, n - 1, n - 2, n / 2, n/2 - 1}, func(v int64) bool { return v >= n })
	rng := rand.New(rand.NewPCG(uint64(n), 7))
	value := func() int64 {
		v := rng.Int64N(n)
		if rng.IntN(3) == 0 {
			v = special[rng.IntN(len(special))]
		}
		return v
	}
	last := slots - 1
	for i := 0; i < ops; i++ {
		s := rng.Int64N(slots)
		if i%16 == 0 {
			s = last
		}
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
			want := slices.Contains(ref[base:base+x], v)
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
	if hosted {
		head := unsafe.Slice((*byte)(unsafe.Pointer(&edges[0])), edgeBytes*int64(len(edges))-tb)
		if i := slices.IndexFunc(head, func(c byte) bool { return c != 0 }); i >= 0 {
			t.Fatalf("byte %d of the range, before the table, was written", i)
		}
	}
}

// An in-memory rank's table lives in the last ftabBytes(S, n) bytes of
// its own edge range — Run's precut range or the list RunRank's
// bootstrap allocates — unless the range is too short (16E < ftabBytes),
// and collectEdges expands it in place into exactly the sequential edge
// list. Tiny n puts most of a
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
// checks where each table landed. It returns how many tables
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
			tb := ftabBytes(slots, opts.Params.N)
			at := uintptr(unsafe.Pointer(unsafe.SliceData(e.f.b)))
			base := uintptr(unsafe.Pointer(unsafe.SliceData(e.edges)))
			end := base + uintptr(edgeBytes*want)
			if tb <= edgeBytes*want {
				hosted++
				if at != end-uintptr(tb) || len(e.f.b) != int(tb) || cap(e.f.b) != int(tb) {
					t.Fatalf("%s rank %d: table at %#x (len %d, cap %d), want the last %d bytes of [%#x, %#x)",
						label, r, at, len(e.f.b), cap(e.f.b), tb, base, end)
				}
			} else {
				fallback++
				if at >= base && at < end {
					t.Fatalf("%s rank %d: %d-byte table > 16E = %d, yet it is inside the range", label, r, tb, edgeBytes*want)
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
// per edge plus 1 MiB of bookkeeping. A separate table of 18-bit slots
// (w = bits.Len64(n)) would add 1.8 MB at this size.
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
