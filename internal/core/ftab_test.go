package core

import (
	"math"
	"math/rand/v2"
	"testing"
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
func TestFtabMatchesInt64Reference(t *testing.T) {
	const x = 4
	for _, tc := range []struct {
		name  string
		n     int64
		slots int64
		wide  bool
	}{
		{"narrow n=1e6", 1_000_000, 1 << 16, false},
		{"narrow n=MaxUint32", math.MaxUint32, 4096, false},
		{"wide n=MaxUint32+1", math.MaxUint32 + 1, 4096, true},
		{"wide n=2^40", 1 << 40, 4096, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFtab(tc.slots, tc.n)
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
