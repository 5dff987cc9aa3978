package core

import (
	"testing"

	"pagen/internal/xrand"
)

// countLive scans the raw buckets for live entries.
func (m *slotMap[V]) countLive() int {
	n := 0
	for _, k := range m.keys {
		if k != freeKey {
			n++
		}
	}
	return n
}

// Growth and deletion must preserve the live counter. An earlier,
// tombstoning table reset live to zero on every rehash; once the drifted
// counter lagged the real occupancy by enough, rehash sized the new
// table at the 16-bucket minimum, the load trigger fired inside the
// reinsert loop, and put/rehash recursed until the stack overflowed.
// Driving the table through many take/put cycles (the suspension churn
// of a real run) would reproduce that drift deterministically.
func TestSuspTableRehashKeepsLiveCount(t *testing.T) {
	var s suspTable
	s.init()

	st := func(e int32) suspState { return suspState{e: e} }

	// Grow to well past several rehash triggers.
	const n = 200
	for k := int64(0); k < n; k++ {
		s.put(k, st(int32(k)))
		if got := s.countLive(); got != s.live {
			t.Fatalf("after put(%d): live counter %d, table holds %d", k, s.live, got)
		}
	}

	// Churn: take and re-put shifting windows of keys, so deletions shift
	// probe runs back across the whole table.
	for round := 0; round < 50; round++ {
		lo := int64(round * 3 % n)
		for k := lo; k < lo+40 && k < n; k++ {
			got, ok := s.take(k)
			if !ok {
				t.Fatalf("round %d: key %d missing", round, k)
			}
			if got.e != int32(k) {
				t.Fatalf("round %d: key %d returned edge %d", round, k, got.e)
			}
			s.put(k, st(int32(k)))
		}
		if got := s.countLive(); got != s.live {
			t.Fatalf("round %d: live counter %d, table holds %d", round, s.live, got)
		}
	}

	// Every key must still be present exactly once.
	for k := int64(0); k < n; k++ {
		got, ok := s.take(k)
		if !ok || got.e != int32(k) {
			t.Fatalf("final: key %d -> (%v, ok=%v), want (%d, true)", k, got.e, ok, k)
		}
	}
	if s.live != 0 {
		t.Fatalf("empty table reports live=%d", s.live)
	}
}

// A mixed workload with random interleaving must never lose a
// suspension, and rng state must round-trip intact.
func TestSuspTableRandomChurn(t *testing.T) {
	var s suspTable
	s.init()
	var rng xrand.Rand
	rng.SeedStream(99, 1)

	present := map[int64]int32{}
	for i := 0; i < 20000; i++ {
		k := int64(rng.Uint64n(512))
		if e, ok := present[k]; ok {
			got, found := s.take(k)
			if !found || got.e != e {
				t.Fatalf("step %d: take(%d) = (%d, %v), want (%d, true)", i, k, got.e, found, e)
			}
			delete(present, k)
		} else {
			e := int32(i)
			s.put(k, suspState{e: e})
			present[k] = e
		}
		if len(present) != s.live {
			t.Fatalf("step %d: live counter %d, want %d", i, s.live, len(present))
		}
	}
}
