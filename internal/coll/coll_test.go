package coll

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pagen/internal/comm"
	"pagen/internal/msg"
	"pagen/internal/transport"
)

// runAll executes fn concurrently on every rank of a fresh local mesh and
// returns per-rank errors.
func runAll(t *testing.T, p int, fn func(s *Seq, rank int) error) []error {
	t.Helper()
	group, err := transport.NewLocalGroup(p)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(New(comm.New(group.Endpoint(r), comm.Config{})), r)
		}(r)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("collective hung")
	}
	return errs
}

func noErrors(t *testing.T, errs []error) {
	t.Helper()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestAllReduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 7} {
		want := int64(p * (p + 1) / 2)
		got := make([]int64, p)
		errs := runAll(t, p, func(s *Seq, rank int) error {
			v, err := s.AllReduceSum(int64(rank + 1))
			got[rank] = v
			return err
		})
		noErrors(t, errs)
		for r, v := range got {
			if v != want {
				t.Fatalf("p=%d rank %d sum %d, want %d", p, r, v, want)
			}
		}
	}
}

func TestAllReduceMax(t *testing.T) {
	const p = 5
	got := make([]int64, p)
	errs := runAll(t, p, func(s *Seq, rank int) error {
		v, err := s.AllReduceMax(int64((rank * 7) % 13))
		got[rank] = v
		return err
	})
	noErrors(t, errs)
	want := int64(0)
	for r := 0; r < p; r++ {
		if v := int64((r * 7) % 13); v > want {
			want = v
		}
	}
	for r, v := range got {
		if v != want {
			t.Fatalf("rank %d max %d, want %d", r, v, want)
		}
	}
}

func TestGather(t *testing.T) {
	for _, p := range []int{1, 4} {
		var root []int64
		errs := runAll(t, p, func(s *Seq, rank int) error {
			vs, err := s.Gather(int64(rank * rank))
			if rank == 0 {
				root = vs
			} else if vs != nil {
				t.Errorf("rank %d got non-nil gather %v", rank, vs)
			}
			return err
		})
		noErrors(t, errs)
		if len(root) != p {
			t.Fatalf("p=%d: gathered %d values", p, len(root))
		}
		for r, v := range root {
			if v != int64(r*r) {
				t.Fatalf("p=%d: root[%d] = %d", p, r, v)
			}
		}
	}
}

// TestBackToBackSequences is the regression test for the 4-rank
// "coll: tag mismatch" failure: a fast rank's contribution to the next
// collective reaches rank 0 while it is still collecting the previous
// one, so the coordinator must buffer early arrivals by tag instead of
// failing. Each named sequence runs back-to-back with no barriers
// between operations, at 2, 4 and 8 ranks.
func TestBackToBackSequences(t *testing.T) {
	type seqCase struct {
		name string
		run  func(s *Seq, rank, p int) error
	}
	cases := []seqCase{
		{
			// The exact pa-tcp post-run sequence that used to die.
			name: "gather-then-reduce",
			run: func(s *Seq, rank, p int) error {
				vs, err := s.Gather(int64(rank + 1))
				if err != nil {
					return err
				}
				if rank == 0 && len(vs) != p {
					return fmt.Errorf("gathered %d values, want %d", len(vs), p)
				}
				max, err := s.AllReduceMax(int64(rank))
				if err != nil {
					return err
				}
				if max != int64(p-1) {
					return fmt.Errorf("max = %d, want %d", max, p-1)
				}
				return nil
			},
		},
		{
			name: "gather-gather-gather",
			run: func(s *Seq, rank, p int) error {
				for round := 0; round < 3; round++ {
					vs, err := s.Gather(int64(rank*10 + round))
					if err != nil {
						return err
					}
					if rank == 0 {
						for r, v := range vs {
							if v != int64(r*10+round) {
								return fmt.Errorf("round %d: vs[%d] = %d", round, r, v)
							}
						}
					}
				}
				return nil
			},
		},
		{
			name: "reduce-gather-min",
			run: func(s *Seq, rank, p int) error {
				sum, err := s.AllReduceSum(1)
				if err != nil {
					return err
				}
				if sum != int64(p) {
					return fmt.Errorf("sum = %d, want %d", sum, p)
				}
				if _, err := s.Gather(int64(rank)); err != nil {
					return err
				}
				min, err := s.AllReduceMin(sum*2 + int64(rank))
				if err != nil {
					return err
				}
				if min != 2*int64(p) {
					return fmt.Errorf("min = %d, want %d", min, 2*p)
				}
				return nil
			},
		},
		{
			name: "reduce-storm",
			run: func(s *Seq, rank, p int) error {
				for round := 0; round < 5; round++ {
					sum, err := s.AllReduceSum(int64(rank))
					if err != nil {
						return err
					}
					if sum != int64(p*(p-1)/2) {
						return fmt.Errorf("round %d: sum = %d", round, sum)
					}
					max, err := s.AllReduceMax(int64(rank))
					if err != nil {
						return err
					}
					if max != int64(p-1) {
						return fmt.Errorf("round %d: max = %d", round, max)
					}
				}
				return nil
			},
		},
	}
	for _, tc := range cases {
		for _, p := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, p), func(t *testing.T) {
				errs := runAll(t, p, func(s *Seq, rank int) error {
					return tc.run(s, rank, p)
				})
				noErrors(t, errs)
			})
		}
	}
}

func TestCollectiveRejectsForeignTraffic(t *testing.T) {
	group, err := transport.NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	cm0 := comm.New(group.Endpoint(0), comm.Config{})
	cm1 := comm.New(group.Endpoint(1), comm.Config{})
	// Rank 1 sends a stray data message, then its collective part.
	if err := cm1.SendNow(0, msg.Request(5, 0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	go cm1.SendNow(0, msg.Coll(1, 1, 1))
	if _, err := New(cm0).AllReduceSum(1); err == nil {
		t.Fatal("stray data message not rejected")
	}
}

func TestCollectiveRejectsStaleTag(t *testing.T) {
	group, err := transport.NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	cm0 := comm.New(group.Endpoint(0), comm.Config{})
	cm1 := comm.New(group.Endpoint(1), comm.Config{})
	// Tag 0 is below any operation tag Seq ever assigns (they start at
	// 1), so it must be rejected as stale, not buffered forever.
	go cm1.SendNow(0, msg.Coll(1, 0, 7))
	_, err = New(cm0).Gather(0)
	if err == nil {
		t.Fatal("stale tag not rejected")
	}
	if !strings.Contains(err.Error(), "stale") {
		t.Fatalf("error = %v, want stale-tag report", err)
	}
}

// Early arrivals with future tags must be buffered, not dropped: rank 1
// sends its contributions to three gathers at once before rank 0 starts
// the first one.
func TestEarlyArrivalsBuffered(t *testing.T) {
	group, err := transport.NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	cm0 := comm.New(group.Endpoint(0), comm.Config{})
	cm1 := comm.New(group.Endpoint(1), comm.Config{})
	s1 := New(cm1)
	for i := 0; i < 3; i++ {
		if _, err := s1.Gather(int64(100 + i)); err != nil {
			t.Fatal(err)
		}
	}
	s0 := New(cm0)
	for i := 0; i < 3; i++ {
		vs, err := s0.Gather(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if vs[0] != int64(i) || vs[1] != int64(100+i) {
			t.Fatalf("gather %d = %v", i, vs)
		}
	}
}
