package core

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/transport"
)

// faultTransport wraps a transport and starts failing sends after a
// budget of successful ones — simulating a dead interconnect mid-run.
type faultTransport struct {
	transport.Transport
	budget *int64 // shared across ranks; atomic
}

var errInjected = errors.New("injected transport failure")

func (f *faultTransport) Send(to int, data []byte) error {
	if atomic.AddInt64(f.budget, -1) < 0 {
		return errInjected
	}
	return f.Transport.Send(to, data)
}

// The engine must surface transport failures as errors — never hang and
// never panic — no matter where in the protocol the failure lands.
func TestEngineSurfacesTransportFailure(t *testing.T) {
	pr := model.Params{N: 4000, X: 4, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Sweep failure points from "immediately" to "late in the run".
	for _, budget := range []int64{0, 1, 10, 100, 1000} {
		remaining := budget
		group, err := transport.NewLocalGroup(4)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 4)
		done := make(chan struct{})
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				ft := &faultTransport{Transport: group.Endpoint(r), budget: &remaining}
				// bufferCap 1 so every protocol message is one
				// transport send and the budget lands mid-protocol.
				_, errs[r] = RunRank(ft, Options{Params: pr, Part: part, Seed: 1, bufferCap: 1})
			}(r)
		}
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("budget %d: engine hung on transport failure", budget)
		}
		failed := 0
		for _, e := range errs {
			if e != nil {
				failed++
			}
		}
		if failed == 0 {
			t.Fatalf("budget %d: no rank reported the injected failure", budget)
		}
		// Unblock ranks that may be waiting on peers that died.
		for r := 0; r < 4; r++ {
			group.Endpoint(r).Close()
		}
	}
}

// A rank closing its transport mid-protocol must propagate an error to
// peers blocked on it rather than deadlock.
func TestEnginePeerDisappears(t *testing.T) {
	pr := model.Params{N: 8000, X: 4, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 3)
	if err != nil {
		t.Fatal(err)
	}
	group, err := transport.NewLocalGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	// Rank 2 never runs; close its endpoint so sends to it fail and the
	// others cannot wait forever.
	group.Endpoint(2).Close()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, errs[r] = RunRank(group.Endpoint(r), Options{Params: pr, Part: part, Seed: 2})
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("engines hung with a dead peer")
	}
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("no surviving rank reported an error")
	}
}

// Option validation errors must mention the offending configuration.
func TestRunRankValidationMessages(t *testing.T) {
	group, err := transport.NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	part4, _ := partition.New(partition.KindUCP, 100, 4)
	_, err = RunRank(group.Endpoint(0), Options{
		Params: model.Params{N: 100, X: 2, P: 0.5},
		Part:   part4,
	})
	if err == nil || !strings.Contains(err.Error(), "ranks") {
		t.Fatalf("rank-count mismatch error = %v", err)
	}
	partWrongN, _ := partition.New(partition.KindUCP, 50, 2)
	_, err = RunRank(group.Endpoint(0), Options{
		Params: model.Params{N: 100, X: 2, P: 0.5},
		Part:   partWrongN,
	})
	if err == nil || !strings.Contains(err.Error(), "partition") {
		t.Fatalf("n mismatch error = %v", err)
	}
	// A snapshot's F is the rank's shard prefix, so a rank cannot
	// checkpoint without one (Run supplies it; RunRank callers must).
	part2, _ := partition.New(partition.KindUCP, 100, 2)
	_, err = RunRank(group.Endpoint(0), Options{
		Params:     model.Params{N: 100, X: 2, P: 0.5},
		Part:       part2,
		Checkpoint: &CheckpointOptions{Dir: t.TempDir()},
	})
	if err == nil || !strings.Contains(err.Error(), "StreamDir") {
		t.Fatalf("checkpoint without StreamDir error = %v", err)
	}
}

// pollEvery extremes: polling after every node and essentially never
// must both terminate with identical structural results.
func TestPollEveryExtremes(t *testing.T) {
	pr := model.Params{N: 5000, X: 3, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, every := range []int{1, 1 << 30} {
		res, err := Run(Options{Params: pr, Part: part, Seed: 3, pollEvery: every}, false)
		if err != nil {
			t.Fatalf("pollEvery=%d: %v", every, err)
		}
		if res.Graph.M() != pr.M() {
			t.Fatalf("pollEvery=%d: m = %d", every, res.Graph.M())
		}
		if err := res.Graph.Validate(); err != nil {
			t.Fatalf("pollEvery=%d: %v", every, err)
		}
	}
}

// bufferCap extremes, including 2 (frequent tiny flushes).
func TestBufferCapExtremes(t *testing.T) {
	pr := model.Params{N: 5000, X: 3, P: 0.5}
	part, err := partition.New(partition.KindLCP, pr.N, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, cap := range []int{1, 2, 1 << 20} {
		res, err := Run(Options{Params: pr, Part: part, Seed: 5, bufferCap: cap}, false)
		if err != nil {
			t.Fatalf("bufferCap=%d: %v", cap, err)
		}
		if err := res.Graph.Validate(); err != nil {
			t.Fatalf("bufferCap=%d: %v", cap, err)
		}
	}
}

// Extreme p values through the parallel path.
func TestParallelExtremeP(t *testing.T) {
	for _, p := range []float64{0.01, 0.99} {
		pr := model.Params{N: 3000, X: 3, P: p}
		part, err := partition.New(partition.KindRRP, pr.N, 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Options{Params: pr, Part: part, Seed: 7}, false)
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		if err := res.Graph.Validate(); err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
	}
	// x=1 pure-copy and pure-direct.
	for _, p := range []float64{0, 1} {
		pr := model.Params{N: 3000, X: 1, P: p}
		part, err := partition.New(partition.KindRRP, pr.N, 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Options{Params: pr, Part: part, Seed: 7}, false)
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		if res.Graph.M() != pr.M() {
			t.Fatalf("p=%v: m = %d", p, res.Graph.M())
		}
	}
}

// The pending-waiter high-water mark must stay far below the slot count:
// queues drain continuously (the Section 3.4 "processor hardly remains
// idle" behaviour).
func TestPendingWaitersBounded(t *testing.T) {
	pr := model.Params{N: 20000, X: 4, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Params: pr, Part: part, Seed: 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	slotsPerRank := pr.N * int64(pr.X) / 8
	for _, st := range res.Ranks {
		if st.MaxPendingSlots <= 0 {
			t.Fatalf("rank %d never queued a waiter — instrumentation broken?", st.Rank)
		}
		if st.MaxPendingSlots > slotsPerRank/2 {
			t.Fatalf("rank %d peak pending %d out of %d slots — queues not draining",
				st.Rank, st.MaxPendingSlots, slotsPerRank)
		}
	}
}
