package core

// waiterTable holds the paper's per-slot waiter queues Q_{k,l} without
// per-slot heap allocations: an open-addressed int64→int32 hash table
// maps a slot id to the head of a FIFO chain in a freelist-backed waiter
// arena. The map[int64][]waiter it replaces cost one allocation per
// first-waiter slot plus slice growth per append; here pushes reuse
// freed arena nodes, so the steady-state hot path allocates nothing once
// the arena has reached its high-water size.
//
// Only the rank goroutine touches a table, so no locking is needed. FIFO
// order within a chain keeps answers in arrival order; the output graph
// no longer depends on it (every retry draw comes from the waiting
// node's own stream, so delivery order is immaterial), but it keeps
// wait-chain statistics and message schedules reproducible in-process.
type waiterTable struct {
	// keys/heads/tails are the open-addressed table (linear probing,
	// power-of-two size). keys[i] == emptyKey marks a free bucket; a key
	// with heads[i] == nilNode is a tombstone left by take (dropped at
	// the next rehash).
	keys  []int64
	heads []int32
	tails []int32
	// filled counts buckets with a key (live or tombstone); live counts
	// buckets with a non-empty chain.
	filled int
	live   int

	arena []waiterNode
	free  int32 // freelist head through waiterNode.next, nilNode if empty
}

// waiterNode is one queued waiter <t', e'> plus its chain link.
type waiterNode struct {
	t    int64
	next int32
	e    uint16
}

const (
	emptyKey        = int64(-1)
	nilNode         = int32(-1)
	minWaiterTable  = 16
	waiterArenaSeed = 64
)

// hashSlot mixes a slot id into a table index distribution
// (Fibonacci hashing; table sizes are powers of two).
func hashSlot(slot int64) uint64 {
	return uint64(slot) * 0x9e3779b97f4a7c15
}

func (w *waiterTable) init() {
	w.keys = make([]int64, minWaiterTable)
	for i := range w.keys {
		w.keys[i] = emptyKey
	}
	w.heads = make([]int32, minWaiterTable)
	w.tails = make([]int32, minWaiterTable)
	w.arena = make([]waiterNode, 0, waiterArenaSeed)
	w.free = nilNode
}

// bucket returns the index of slot's bucket, or of the first free bucket
// in its probe sequence if absent.
func (w *waiterTable) bucket(slot int64) int {
	mask := uint64(len(w.keys) - 1)
	i := hashSlot(slot) & mask
	for {
		if w.keys[i] == slot || w.keys[i] == emptyKey {
			return int(i)
		}
		i = (i + 1) & mask
	}
}

// push appends waiter <t, e> to slot's chain.
func (w *waiterTable) push(slot int64, t int64, e uint16) {
	n := w.alloc()
	w.arena[n] = waiterNode{t: t, next: nilNode, e: e}

	i := w.bucket(slot)
	if w.keys[i] != slot {
		w.keys[i] = slot
		w.heads[i] = nilNode
		w.filled++
	}
	if w.heads[i] == nilNode {
		w.heads[i] = n
		w.live++
	} else {
		w.arena[w.tails[i]].next = n
	}
	w.tails[i] = n

	// Keep the probe sequences short; rehash also sweeps tombstones.
	if w.filled*4 >= len(w.keys)*3 {
		w.rehash()
	}
}

// has reports whether slot currently has a non-empty chain, without
// detaching it.
func (w *waiterTable) has(slot int64) bool {
	i := w.bucket(slot)
	return w.keys[i] == slot && w.heads[i] != nilNode
}

// take detaches and returns the head of slot's chain (nilNode if the
// slot has no waiters). The caller walks the chain via next, copying
// each node's fields before freeing it.
func (w *waiterTable) take(slot int64) int32 {
	if w.live == 0 {
		return nilNode // nobody waits on anything: skip the probe
	}
	i := w.bucket(slot)
	if w.keys[i] != slot || w.heads[i] == nilNode {
		return nilNode
	}
	h := w.heads[i]
	w.heads[i] = nilNode // tombstone: key stays until the next rehash
	w.live--
	return h
}

// alloc returns a free arena index, growing the arena only when the
// freelist is empty.
func (w *waiterTable) alloc() int32 {
	if w.free != nilNode {
		n := w.free
		w.free = w.arena[n].next
		return n
	}
	w.arena = append(w.arena, waiterNode{})
	return int32(len(w.arena) - 1)
}

// freeNode returns an arena index to the freelist.
func (w *waiterTable) freeNode(n int32) {
	w.arena[n].next = w.free
	w.free = n
}

// forEach visits every queued waiter, chain by chain in FIFO order
// (checkpoint serialization; a restored table re-pushes in this order,
// preserving answer order). fn must not mutate the table.
func (w *waiterTable) forEach(fn func(slot, t int64, e uint16)) {
	for i, k := range w.keys {
		if k == emptyKey || w.heads[i] == nilNode {
			continue
		}
		for n := w.heads[i]; n != nilNode; n = w.arena[n].next {
			fn(k, w.arena[n].t, w.arena[n].e)
		}
	}
}

// rehash rebuilds the table at a size fitted to the live chains,
// dropping tombstones.
func (w *waiterTable) rehash() {
	size := minWaiterTable
	for size < 4*w.live {
		size *= 2
	}
	oldKeys, oldHeads, oldTails := w.keys, w.heads, w.tails
	w.keys = make([]int64, size)
	for i := range w.keys {
		w.keys[i] = emptyKey
	}
	w.heads = make([]int32, size)
	w.tails = make([]int32, size)
	w.filled = 0
	for i, k := range oldKeys {
		if k == emptyKey || oldHeads[i] == nilNode {
			continue
		}
		j := w.bucket(k)
		w.keys[j] = k
		w.heads[j] = oldHeads[i]
		w.tails[j] = oldTails[i]
		w.filled++
	}
}
