package core

import "math"

// ftab is an attachment table: slot s holds F(s)+1, so a zeroed slot is
// NILL and a freshly made table needs no fill pass. lo holds the low 32
// bits of every slot; hi, the high 32, exists only for a run whose node
// ids can reach 2³²−1 (n > math.MaxUint32), so every smaller run — the
// paper's largest included — pays 4 bytes per slot (DESIGN.md §8.5).
type ftab struct{ lo, hi []uint32 }

// newFtab returns an all-NILL table of the given slot count for values
// in [0, n).
func newFtab(slots, n int64) ftab {
	f := ftab{lo: make([]uint32, slots)}
	if n > math.MaxUint32 {
		f.hi = make([]uint32, slots)
	}
	return f
}

func (f ftab) len() int64 { return int64(len(f.lo)) }

// get returns slot s's value, -1 for NILL.
func (f ftab) get(s int64) int64 {
	v := int64(f.lo[s])
	if f.hi != nil {
		v |= int64(f.hi[s]) << 32
	}
	return v - 1
}

// set stores v in slot s; -1 reopens it.
func (f ftab) set(s, v int64) {
	f.lo[s] = uint32(v + 1)
	if f.hi != nil {
		f.hi[s] = uint32((v + 1) >> 32)
	}
}

// has reports whether v is among the x slots from base (a node's row).
func (f ftab) has(base, x, v int64) bool {
	for s := base; s < base+x; s++ {
		if f.get(s) == v {
			return true
		}
	}
	return false
}
