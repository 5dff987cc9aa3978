package core

import (
	"sync"
	"testing"

	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/transport"
)

// The TCP endpoint's I/O counters reach RankStats and the exported
// metrics: every frame a rank received from its peer was parsed by
// exactly one of the two drainers.
func TestTCPStatsReachMetrics(t *testing.T) {
	pr := model.Params{N: 20000, X: 4, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{"127.0.0.1:43180", "127.0.0.1:43181"}
	results := make([]*RankResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range results {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := transport.NewTCP(r, addrs)
			if err != nil {
				errs[r] = err
				return
			}
			defer tr.Close()
			results[r], errs[r] = RunRank(tr, Options{Params: pr, Part: part, Seed: 9, Workers: 1})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, res := range results {
		st := res.Stats
		if got := st.TCP.FramesInline + st.TCP.FramesReader; got == 0 || got != st.Comm.FramesRecv {
			t.Errorf("rank %d: %d frames inline + %d by reader, comm received %d",
				r, st.TCP.FramesInline, st.TCP.FramesReader, st.Comm.FramesRecv)
		}
		m := st.Metrics()
		if m.TCPFramesInline != st.TCP.FramesInline || m.TCPFramesReader != st.TCP.FramesReader ||
			m.TCPProbes != st.TCP.Probes || m.TCPProbeHits != st.TCP.ProbeHits || m.TCPWriteStalls != st.TCP.WriteStalls {
			t.Errorf("rank %d: metrics %+v do not carry %+v", r, m, st.TCP)
		}
	}
}
