package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/transport"
)

// runOverTCP executes the engine with each rank on its own TCP endpoint
// over localhost — the genuine distributed-memory configuration
// (cmd/pa-tcp runs the same code across OS processes).
func runOverTCP(t *testing.T, pr model.Params, kind partition.Kind, p int, basePort int, seed uint64) *graph.Graph {
	t.Helper()
	part, err := partition.New(kind, pr.N, p)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, p)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", basePort+i)
	}
	results := make([]*RankResult, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := transport.NewTCP(r, addrs)
			if err != nil {
				errs[r] = err
				return
			}
			defer tr.Close()
			results[r], errs[r] = RunRank(tr, Options{Params: pr, Part: part, Seed: seed})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	shards := make([][]graph.Edge, p)
	for r, rr := range results {
		shards[r] = rr.Edges
	}
	return graph.Merge(pr.N, shards...)
}

func TestEngineOverTCP(t *testing.T) {
	pr := model.Params{N: 4000, X: 4, P: 0.5}
	g := runOverTCP(t, pr, partition.KindRRP, 4, 43100, 77)
	if g.M() != pr.M() {
		t.Fatalf("m = %d, want %d", g.M(), pr.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if comp := g.ToCSR().ConnectedComponents(); comp != 1 {
		t.Fatalf("%d components", comp)
	}
}

// The TCP and in-process transports must produce the identical graph for
// x = 1 (fully deterministic attachments).
func TestTCPMatchesLocalX1(t *testing.T) {
	pr := model.Params{N: 1000, X: 1, P: 0.5}
	gTCP := runOverTCP(t, pr, partition.KindUCP, 3, 43150, 5)

	part, _ := partition.New(partition.KindUCP, pr.N, 3)
	res, err := Run(Options{Params: pr, Part: part, Seed: 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	fTCP := map[int64]int64{}
	for _, e := range gTCP.Edges {
		fTCP[e.U] = e.V
	}
	for _, e := range res.Graph.Edges {
		if fTCP[e.U] != e.V {
			t.Fatalf("F_%d: tcp %d local %d", e.U, fTCP[e.U], e.V)
		}
	}
}

// errAborted is what an abortAfter endpoint's sends return once it died.
var errAborted = errors.New("test: endpoint aborted")

// abortAfter is a TCP endpoint that dies after sends more sends: it
// aborts its connections without goodbyes, which is all a crashed
// process shows the wire, and fails every later send.
type abortAfter struct {
	*transport.TCP
	sends int
}

func (a *abortAfter) Send(to int, data []byte) error {
	if a.sends <= 0 {
		a.Abort()
		transport.ReleaseFrame(data)
		return errAborted
	}
	a.sends--
	return a.TCP.Send(to, data)
}

// A rank that crashes mid-protocol must turn into errors across the
// cluster — never a hang. This needs the TCP transport: crash detection
// lives in its failure model (abrupt socket death without the goodbye
// marker latches a connection-lost error on every peer), which the
// in-process transports deliberately do not model.
func TestEngineTCPKillErrorsNotHangs(t *testing.T) {
	pr := model.Params{N: 8000, X: 4, P: 0.5}
	const p = 4
	part, err := partition.New(partition.KindRRP, pr.N, p)
	if err != nil {
		t.Fatal(err)
	}
	for ki, killAfter := range []int{1, 50} {
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
				tcp, err := transport.NewTCP(r, addrs)
				if err != nil {
					errs[r] = err
					return
				}
				defer tcp.Close()
				var tr transport.Transport = tcp
				if r == p-1 {
					// bufferCap 1 so each protocol message is one send
					// and the kill budget lands mid-protocol.
					tr = &abortAfter{TCP: tcp, sends: killAfter}
				}
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
