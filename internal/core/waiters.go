package core

// The engine's protocol tables — the paper's per-slot waiter queues
// Q_{k,l} and the suspension table (susp.go) — are one open-addressed
// table, slotMap, under different value types. Deletion shifts the rest of a probe run back instead of leaving
// a tombstone, and a table only ever grows, so once it has reached its
// high-water size put and take allocate nothing; the waiter arena
// recycles its nodes through a freelist the same way.
//
// Only the rank goroutine touches a table, so no locking is needed. FIFO
// order within a waiter chain keeps answers in arrival order; the output
// graph does not depend on it (an attempt's draws depend on its index
// alone, and a node commits its edges in order whatever order their
// answers arrive in), but it keeps
// wait-chain statistics and message schedules reproducible in-process.

// slotMap is an open-addressed int64 → V hash table: linear probing,
// power-of-two size, Fibonacci hashing. Keys are slot or node ids (>= 0);
// freeKey marks a free bucket.
type slotMap[V any] struct {
	keys []int64
	vals []V
	live int // occupied buckets
}

const (
	freeKey    = int64(-1)
	minSlotMap = 16
)

// hashSlot mixes a slot id into a table index distribution
// (Fibonacci hashing; table sizes are powers of two).
func hashSlot(slot int64) uint64 {
	return uint64(slot) * 0x9e3779b97f4a7c15
}

func (m *slotMap[V]) init() { m.reset(minSlotMap) }

// reset gives the table empty arrays of the given power-of-two size;
// live is left to the caller (grow reinserts every entry).
func (m *slotMap[V]) reset(size int) {
	m.keys = make([]int64, size)
	for i := range m.keys {
		m.keys[i] = freeKey
	}
	m.vals = make([]V, size)
}

// find returns key's bucket, or the free bucket that ends its probe run.
func (m *slotMap[V]) find(key int64) uint64 {
	mask := uint64(len(m.keys) - 1)
	i := hashSlot(key) & mask
	for m.keys[i] != key && m.keys[i] != freeKey {
		i = (i + 1) & mask
	}
	return i
}

// has reports whether key is present.
func (m *slotMap[V]) has(key int64) bool { return m.keys[m.find(key)] == key }

// get returns key's value without removing it.
func (m *slotMap[V]) get(key int64) (V, bool) {
	if i := m.find(key); m.keys[i] == key {
		return m.vals[i], true
	}
	var zero V
	return zero, false
}

// upsert returns a pointer to key's value, inserting key with a zero
// value when absent, and whether it was present. The pointer is valid
// until the next insert.
func (m *slotMap[V]) upsert(key int64) (*V, bool) {
	i := m.find(key)
	if m.keys[i] == key {
		return &m.vals[i], true
	}
	// Keep the table at most half full, so probe runs stay short.
	if 2*(m.live+1) > len(m.keys) {
		m.grow()
		i = m.find(key)
	}
	m.keys[i] = key
	var zero V
	m.vals[i] = zero
	m.live++
	return &m.vals[i], false
}

// put sets key's value.
func (m *slotMap[V]) put(key int64, v V) {
	p, _ := m.upsert(key)
	*p = v
}

// take removes and returns key's value.
func (m *slotMap[V]) take(key int64) (V, bool) {
	var v V
	if m.live == 0 {
		return v, false // nothing stored: skip the probe
	}
	i := m.find(key)
	if m.keys[i] != key {
		return v, false
	}
	v = m.vals[i]
	m.remove(i)
	return v, true
}

// remove empties bucket i by backward-shift deletion: each later entry
// of the probe run whose home bucket is not cyclically inside (i, j]
// moves back into the hole, so no lookup ever crosses a tombstone and
// none accumulate.
func (m *slotMap[V]) remove(i uint64) {
	mask := uint64(len(m.keys) - 1)
	for j := (i + 1) & mask; m.keys[j] != freeKey; j = (j + 1) & mask {
		if home := hashSlot(m.keys[j]) & mask; (j-home)&mask >= (j-i)&mask {
			m.keys[i], m.vals[i] = m.keys[j], m.vals[j]
			i = j
		}
	}
	m.keys[i] = freeKey
	m.live--
}

// grow doubles the table.
func (m *slotMap[V]) grow() {
	keys, vals := m.keys, m.vals
	m.reset(2 * len(keys))
	for i, k := range keys {
		if k != freeKey {
			j := m.find(k)
			m.keys[j], m.vals[j] = k, vals[i]
		}
	}
}

// forEach visits every entry in table order (checkpoint serialization).
// fn must not mutate the table.
func (m *slotMap[V]) forEach(fn func(key int64, v V)) {
	for i, k := range m.keys {
		if k != freeKey {
			fn(k, m.vals[i])
		}
	}
}

// waiterTable holds the Q_{k,l} queues: a slotMap from slot id to the
// ends of a FIFO chain in a freelist-backed waiter arena.
type waiterTable struct {
	chains slotMap[waiterChain]
	arena  []waiterNode
	free   int32 // freelist head through waiterNode.next, nilNode if empty
	// queued, if the table covers the rank's own slots, has bit s set
	// while slot s has a chain, so take skips the probe for the common
	// slot nobody waits on.
	queued []uint64
}

// waiterChain is a waiter chain's first and last arena node.
type waiterChain struct{ head, tail int32 }

// waiterNode is one queued waiter <t', e'> plus its chain link.
type waiterNode struct {
	t    int64
	next int32
	e    uint16
}

const (
	nilNode         = int32(-1)
	waiterArenaSeed = 64
)

// init empties the table; slots > 0 bounds its keys and keeps queued.
func (w *waiterTable) init(slots int64) {
	if slots > 0 {
		w.queued = make([]uint64, (slots+63)/64)
	}
	w.chains.init()
	w.arena = make([]waiterNode, 0, waiterArenaSeed)
	w.free = nilNode
}

// push appends waiter <t, e> to slot's chain.
func (w *waiterTable) push(slot int64, t int64, e uint16) {
	n := w.alloc()
	w.arena[n] = waiterNode{t: t, next: nilNode, e: e}
	c, ok := w.chains.upsert(slot)
	if ok {
		w.arena[c.tail].next = n
	} else {
		c.head = n
	}
	c.tail = n
	if w.queued != nil {
		w.queued[slot>>6] |= 1 << (slot & 63)
	}
}

// has reports whether slot currently has waiters, without detaching them.
func (w *waiterTable) has(slot int64) bool { return w.chains.has(slot) }

// take detaches and returns the head of slot's chain (nilNode if the
// slot has no waiters). The caller walks the chain via next, copying
// each node's fields before freeing it.
func (w *waiterTable) take(slot int64) int32 {
	if w.chains.live == 0 {
		return nilNode
	}
	if w.queued != nil {
		if w.queued[slot>>6]&(1<<(slot&63)) == 0 {
			return nilNode
		}
		w.queued[slot>>6] &^= 1 << (slot & 63)
	}
	c, ok := w.chains.take(slot)
	if !ok {
		return nilNode
	}
	return c.head
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
	w.chains.forEach(func(slot int64, c waiterChain) {
		for n := c.head; n != nilNode; n = w.arena[n].next {
			fn(slot, w.arena[n].t, w.arena[n].e)
		}
	})
}
