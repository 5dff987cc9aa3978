package core

import "pagen/internal/xrand"

// suspState is a suspended node's continuation: its private random
// stream, positioned right after the draws of the edge attempt that
// could not finish, and the index of that edge. Resuming re-enters the
// attachment loop exactly where the sequential algorithm would be, so a
// node's draw sequence — duplicate retries included — is independent of
// when its copy sources resolve.
type suspState struct {
	rng xrand.Rand
	e   int32
	// key is the global slot id k*x + l of the remote slot the node
	// waits on when the wait went through the request-coalescing table,
	// -1 otherwise. resumeWire uses it to map a wire answer — which
	// carries (t, e), not (k, l) — back to the chain to fan out. A
	// restore can substitute a synthetic key <= -2 when a snapshot holds
	// two chains for the same slot (each is owed its own answer, so they
	// must not merge); real slot ids are non-negative, so
	// synthetic keys can never collide with a chain the resumed run
	// creates.
	key int64
}

// suspTable maps a local node index to its suspension record: an
// open-addressed table like waiterTable (linear probing, power-of-two
// size, tombstones swept at rehash), sized to the number of currently
// suspended nodes rather than the node count. A node has at most one
// suspension (strict per-node edge sequencing), so put never sees a
// live duplicate key.
type suspTable struct {
	keys []int64 // suspEmpty = free, suspTomb = deleted
	vals []suspState
	// filled counts non-free buckets (live + tombstones); live counts
	// suspended nodes.
	filled int
	live   int
}

const (
	suspEmpty    = int64(-1)
	suspTomb     = int64(-2)
	minSuspTable = 16
)

func (s *suspTable) init() {
	s.keys = make([]int64, minSuspTable)
	for i := range s.keys {
		s.keys[i] = suspEmpty
	}
	s.vals = make([]suspState, minSuspTable)
}

// put records key's suspension.
func (s *suspTable) put(key int64, st suspState) {
	mask := uint64(len(s.keys) - 1)
	i := hashSlot(key) & mask
	ins := -1
	for {
		switch s.keys[i] {
		case suspEmpty:
			if ins < 0 {
				ins = int(i)
				s.filled++
			}
			s.keys[ins] = key
			s.vals[ins] = st
			s.live++
			if s.filled*4 >= len(s.keys)*3 {
				s.rehash()
			}
			return
		case suspTomb:
			if ins < 0 {
				ins = int(i) // reuse the tombstone; filled unchanged
			}
		case key:
			s.vals[i] = st // defensive; strict sequencing forbids this
			return
		}
		i = (i + 1) & mask
	}
}

// take removes and returns key's suspension.
func (s *suspTable) take(key int64) (suspState, bool) {
	mask := uint64(len(s.keys) - 1)
	i := hashSlot(key) & mask
	for {
		switch s.keys[i] {
		case suspEmpty:
			return suspState{}, false
		case key:
			st := s.vals[i]
			s.keys[i] = suspTomb
			s.live--
			return st, true
		}
		i = (i + 1) & mask
	}
}

// get returns key's suspension without removing it.
func (s *suspTable) get(key int64) (suspState, bool) {
	mask := uint64(len(s.keys) - 1)
	i := hashSlot(key) & mask
	for {
		switch s.keys[i] {
		case suspEmpty:
			return suspState{}, false
		case key:
			return s.vals[i], true
		}
		i = (i + 1) & mask
	}
}

// has reports whether key has a live suspension without removing it.
func (s *suspTable) has(key int64) bool {
	mask := uint64(len(s.keys) - 1)
	i := hashSlot(key) & mask
	for {
		switch s.keys[i] {
		case suspEmpty:
			return false
		case key:
			return true
		}
		i = (i + 1) & mask
	}
}

// forEach visits every live suspension (checkpoint serialization; order
// is table order, not meaningful). fn must not mutate the table.
func (s *suspTable) forEach(fn func(key int64, st suspState)) {
	for i, k := range s.keys {
		if k == suspEmpty || k == suspTomb {
			continue
		}
		fn(k, s.vals[i])
	}
}

// rehash rebuilds the table at a size fitted to the live suspensions,
// dropping tombstones.
func (s *suspTable) rehash() {
	size := minSuspTable
	for size < 4*s.live {
		size *= 2
	}
	oldKeys, oldVals := s.keys, s.vals
	s.keys = make([]int64, size)
	for i := range s.keys {
		s.keys[i] = suspEmpty
	}
	s.vals = make([]suspState, size)
	s.filled = 0
	s.live = 0
	for i, k := range oldKeys {
		if k == suspEmpty || k == suspTomb {
			continue
		}
		// put re-increments live, leaving it equal to the number of
		// reinserted entries. The new size is at least 4x that count, so
		// the load trigger cannot fire during the reinsert loop.
		s.put(k, oldVals[i])
	}
}
