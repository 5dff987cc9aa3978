package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/transport"
)

// Randomly delayed delivery must not change correctness: the protocol
// tolerates any per-pair-FIFO latency, so the generated graph is still
// structurally valid and complete.
func TestEngineSurvivesChaosDelay(t *testing.T) {
	pr := model.Params{N: 6000, X: 3, P: 0.5}
	const p = 4
	part, err := partition.New(partition.KindRRP, pr.N, p)
	if err != nil {
		t.Fatal(err)
	}
	group, err := transport.NewLocalGroup(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]*RankResult, p)
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr := transport.NewChaos(group.Endpoint(r), transport.ChaosConfig{
				Seed:      uint64(100 + r),
				DelayProb: 0.3,
				MaxDelay:  500 * time.Microsecond,
			})
			defer tr.Close()
			results[r], errs[r] = RunRank(tr, Options{Params: pr, Part: part, Seed: 11})
		}(r)
	}
	wg.Wait()
	var edges int64
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d under delay injection: %v", r, errs[r])
		}
		edges += results[r].Stats.Edges
	}
	if edges != pr.M() {
		t.Fatalf("generated %d edges under delay injection, want %d", edges, pr.M())
	}
}

// A rank that crashes mid-protocol must turn into errors across the
// cluster — never a hang. This needs the TCP transport: crash detection
// lives in its failure model (abrupt socket death without the goodbye
// marker latches a connection-lost error on every peer), which the
// in-process transport deliberately does not model. The chaos kill uses
// TCP.Abort, so the wire shows peers exactly what a dead process looks
// like.
func TestEngineChaosKillErrorsNotHangs(t *testing.T) {
	pr := model.Params{N: 8000, X: 4, P: 0.5}
	const p = 4
	part, err := partition.New(partition.KindRRP, pr.N, p)
	if err != nil {
		t.Fatal(err)
	}
	for ki, killAfter := range []int64{1, 50} {
		basePort := 43400 + ki*8
		addrs := make([]string, p)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("127.0.0.1:%d", basePort+i)
		}
		var wg sync.WaitGroup
		errs := make([]error, p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				tr, err := transport.NewTCP(r, addrs)
				if err != nil {
					errs[r] = err
					return
				}
				if r == p-1 {
					// bufferCap 1 so each protocol message is one send
					// and the kill budget lands mid-protocol.
					chaotic := transport.NewChaos(tr, transport.ChaosConfig{
						Seed:           7,
						KillAfterSends: killAfter,
					})
					_, errs[r] = RunRank(chaotic, Options{Params: pr, Part: part, Seed: 13, bufferCap: 1})
					chaotic.Close()
					return
				}
				defer tr.Close()
				_, errs[r] = RunRank(tr, Options{Params: pr, Part: part, Seed: 13, bufferCap: 1})
			}(r)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("killAfter=%d: cluster hung on a killed rank", killAfter)
		}
		failed := 0
		for _, e := range errs {
			if e != nil {
				failed++
			}
		}
		if failed == 0 {
			t.Fatalf("killAfter=%d: no rank reported the kill", killAfter)
		}
	}
}
