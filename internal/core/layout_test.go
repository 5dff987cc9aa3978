package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/transport"
)

// runRanks runs every rank of opts through the public RunRank, each
// allocating its own edge list, and returns their results.
func runRanks(t *testing.T, opts Options) []*RankResult {
	t.Helper()
	p := opts.Part.P()
	group, err := transport.NewShmGroup(p)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*RankResult, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = RunRank(group.Endpoint(r), opts)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return results
}

// Run hands each rank a range of one edge list, cut from the partition
// before any rank starts; the graph must be edge for edge what merging
// the ranks' own RunRank lists gives. x > p puts clique nodes — which
// own fewer than x edges — on several ranks, the case the offset
// arithmetic has to get right, and a self-loop would be a range a rank
// left unwritten.
func TestRunMergedLayout(t *testing.T) {
	for _, kind := range allKinds {
		for _, ranks := range []int{1, 2, 3, 5, 8} {
			for _, x := range []int{1, 4, 7} {
				pr := model.Params{N: 300, X: x, P: 0.5}
				opts := Options{Params: pr, Part: mustScheme(t, kind, pr.N, ranks), Seed: 5}
				label := fmt.Sprintf("%v p=%d x=%d", kind, ranks, x)
				res, err := Run(opts, false)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				rrs := runRanks(t, opts)
				lists := make([][]graph.Edge, ranks)
				for r, rr := range rrs {
					lists[r] = rr.Edges
					if got, want := res.Ranks[r].Edges, int64(len(rr.Edges)); got != want {
						t.Fatalf("%s: rank %d reports %d edges, RunRank made %d", label, r, got, want)
					}
				}
				equalEdges(t, label, res.Graph.Edges, graph.Merge(pr.N, lists...).Edges)
				for i, ed := range res.Graph.Edges {
					if ed.U == ed.V {
						t.Fatalf("%s: edge %d is the self-loop %v", label, i, ed)
					}
				}
			}
		}
	}
}

// A rank whose nodes do not fill its range exactly fails loudly, naming
// the rank and both counts, instead of leaving zero edges in the graph
// or writing past the range into a neighbour's — with its table hosted
// in the tail of the wrong-sized range, as Run would have handed it.
func TestRunMergedLayoutRangeMismatch(t *testing.T) {
	pr := model.Params{N: 200, X: 4, P: 0.5}
	part := mustScheme(t, allKinds[0], pr.N, 1)
	want := rankEdges(part, 0, pr.X)
	if want != pr.M() {
		t.Fatalf("one rank's edge count %d, want m = %d", want, pr.M())
	}
	for _, size := range []int64{want - 1, want + 1} {
		group, err := transport.NewShmGroup(1)
		if err != nil {
			t.Fatal(err)
		}
		_, err = runRank(group.Endpoint(0), Options{Params: pr, Part: part, Seed: 3, Workers: 1}, make([]graph.Edge, size))
		msg := fmt.Sprintf("rank 0 produced %d edges but its range of the edge list holds %d", want, size)
		if err == nil || !strings.Contains(err.Error(), msg) {
			t.Fatalf("range of %d: error %v, want one containing %q", size, err, msg)
		}
	}
}

// A suspension record is a node's frontier edge, its retry count and its
// ahead block: 12 bytes. It was 48 while a node's draws were a position
// in its own stream (a 32-byte generator state and a coalescing key
// beside the edge); the key now lives in the ahead block, at the
// frontier's place.
func TestLayoutSuspState(t *testing.T) {
	if got := unsafe.Sizeof(suspState{}); got != 12 {
		t.Fatalf("unsafe.Sizeof(suspState{}) = %d, want 12", got)
	}
}
