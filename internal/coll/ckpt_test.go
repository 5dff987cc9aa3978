package coll

import (
	"testing"
)

func TestAllReduceMin(t *testing.T) {
	for _, p := range []int{1, 2, 5} {
		errs := runAll(t, p, func(s *Seq, rank int) error {
			// Ranks contribute p-1, p-2, ..., 0; the min is 0 everywhere.
			got, err := s.AllReduceMin(int64(p - 1 - rank))
			if err != nil {
				return err
			}
			if got != 0 {
				t.Errorf("p=%d rank %d: AllReduceMin = %d, want 0", p, rank, got)
			}
			// Negative values reduce correctly too.
			got, err = s.AllReduceMin(int64(rank) - 1)
			if err != nil {
				return err
			}
			if got != -1 {
				t.Errorf("p=%d rank %d: AllReduceMin = %d, want -1", p, rank, got)
			}
			return nil
		})
		noErrors(t, errs)
	}
}

// SetNextTag fast-forwards the tag counter — how a resumed run aligns
// its collectives with the tags the checkpointed run had consumed.
// Collectives must keep matching across ranks after the jump.
func TestNextTagResumeAlignment(t *testing.T) {
	const p = 3
	errs := runAll(t, p, func(s *Seq, rank int) error {
		if _, err := s.AllReduceMin(int64(rank)); err != nil {
			return err
		}
		tag := s.NextTag()
		if tag <= 0 {
			t.Errorf("rank %d: NextTag = %d after a collective, want > 0", rank, tag)
		}
		// Jump well past the consumed range, as a resume does, and run
		// more collectives.
		s.SetNextTag(tag + 100)
		if got := s.NextTag(); got != tag+100 {
			t.Errorf("rank %d: NextTag after SetNextTag = %d, want %d", rank, got, tag+100)
		}
		votes, err := s.Gather(int64(rank + 1))
		if err != nil {
			return err
		}
		if rank == 0 {
			for r, v := range votes {
				if v != int64(r+1) {
					t.Errorf("gather[%d] = %d, want %d", r, v, r+1)
				}
			}
		}
		got, err := s.AllReduceSum(int64(rank))
		if err != nil {
			return err
		}
		if want := int64(p * (p - 1) / 2); got != want {
			t.Errorf("rank %d: AllReduceSum = %d, want %d", rank, got, want)
		}
		return nil
	})
	noErrors(t, errs)
}
