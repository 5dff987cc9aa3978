package core

import (
	"math"
	"unsafe"

	"pagen/internal/graph"
)

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

// edgeBytes is the size of one graph.Edge: two int64s, no pointers, so
// a []uint32 view of an edge list's bytes is plain memory to the
// collector and to checkptr.
const edgeBytes = int64(unsafe.Sizeof(graph.Edge{}))

// hostedFtab returns an all-NILL table of the given slot count whose low
// plane is the last 4·slots bytes of edges, the in-memory rank's own
// output range, which must be all zero (freshly made). collectEdges
// expands the table into the range in place (its comment has the
// argument). No range (a streamed or sink run), or one too short to
// hold the plane — 4·len(edges) < slots, only for a rank of mostly
// clique nodes at tiny n — gets a newFtab table instead. The high
// plane, when n needs one, is always separate.
func hostedFtab(edges []graph.Edge, slots, n int64) ftab {
	size := edgeBytes * int64(len(edges))
	if slots == 0 || 4*slots > size {
		return newFtab(slots, n)
	}
	tail := unsafe.Add(unsafe.Pointer(unsafe.SliceData(edges)), size-4*slots)
	f := ftab{lo: unsafe.Slice((*uint32)(tail), slots)}
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
