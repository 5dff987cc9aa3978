package core

import (
	"encoding/binary"
	"math/bits"
	"unsafe"

	"pagen/internal/graph"
)

// MaxN is the largest node count the engine takes: F+1 ≤ n then fits
// in w = bits.Len64(n) ≤ 57 bits, which with a slot's bit offset inside
// its first byte (< 8) lie in one 8-byte word (DESIGN.md §8.5).
const MaxN = 1<<57 - 1

// ftab is an attachment table: slot s holds F(s)+1 in bits [s·w, s·w+w)
// of b, little-endian, so a zeroed slot is NILL and a freshly made table
// needs no fill pass. Every width from 2 to 57 takes the same path: one
// unaligned 8-byte word from byte s·w/8; b ends on the last slot's word.
// set rewrites that word, its neighbours' bits included, so the
// single-writer rule covers neighbouring slots too: only the rank
// goroutine writes a table, and only between a window's barrier and the
// next hand-off, while no helper reads it (DESIGN.md §8.6).
type ftab struct {
	b       []byte
	slots   int64
	w, mask uint64 // the slot width and its low w bits
}

// ftabBytes is the length of S slots for values in [0, n): through the
// last slot's word, (S−1)·w + 64 bits, ⌈S·w/8⌉ + 0 to 7 bytes.
func ftabBytes(slots, n int64) int64 {
	return ((slots-1)*int64(bits.Len64(uint64(n))) + 64) / 8
}

// newFtab returns an all-NILL table of the given slot count for values
// in [0, n).
func newFtab(slots, n int64) ftab { return hostedFtab(nil, slots, n) }

// edgeBytes is the size of one graph.Edge: two int64s, no pointers, so
// a byte view of an edge list is plain memory to the collector and to
// checkptr.
const edgeBytes = int64(unsafe.Sizeof(graph.Edge{}))

// hostedFtab returns an all-NILL table of the given slot count that is
// the last ftabBytes(slots, n) bytes of edges, the in-memory rank's own
// output range, which must be all zero (freshly made). collectEdges
// expands the table into the range in place (its comment has the
// argument). No range (a streamed or sink run), or one too short to hold
// the table — only a rank of mostly clique nodes at tiny n — gets a
// newFtab table instead.
func hostedFtab(edges []graph.Edge, slots, n int64) ftab {
	w := uint64(bits.Len64(uint64(n)))
	f := ftab{slots: slots, w: w, mask: 1<<w - 1}
	size, tb := edgeBytes*int64(len(edges)), ftabBytes(slots, n)
	if slots == 0 || tb > size {
		f.b = make([]byte, tb)
	} else {
		f.b = unsafe.Slice((*byte)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(edges)), size-tb)), tb)
	}
	return f
}

func (f ftab) len() int64 { return f.slots }

// get returns slot s's value, -1 for NILL.
func (f ftab) get(s int64) int64 {
	o := uint64(s) * f.w
	return int64(binary.LittleEndian.Uint64(f.b[o>>3:o>>3+8])>>(o&7)&f.mask) - 1
}

// set stores v, in [-1, n), in slot s; -1 reopens it.
func (f ftab) set(s, v int64) {
	o := uint64(s) * f.w
	p, sh := f.b[o>>3:o>>3+8], o&7
	binary.LittleEndian.PutUint64(p, binary.LittleEndian.Uint64(p)&^(f.mask<<sh)|uint64(v+1)<<sh)
}

// has reports whether v is among the k slots from base (a row's prefix).
func (f ftab) has(base, k, v int64) bool {
	for s := base; s < base+k; s++ {
		if f.get(s) == v {
			return true
		}
	}
	return false
}
