package pagen

import (
	"fmt"
	"sync"
	"testing"
)

func TestGenerateStreamDeliversAllEdges(t *testing.T) {
	cfg := Config{N: 10000, X: 4, Ranks: 4, Seed: 21}
	var mu sync.Mutex
	perRank := make(map[int]int64)
	seen := make(map[Edge]bool)
	res, err := GenerateStream(cfg, func(rank int, e Edge) {
		mu.Lock()
		perRank[rank]++
		seen[e.Canonical()] = true
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph != nil {
		t.Fatal("streamed result materialised a graph")
	}
	wantM := int64(6) + (10000-4)*4
	var total int64
	for _, c := range perRank {
		total += c
	}
	if total != wantM {
		t.Fatalf("streamed %d edges, want %d", total, wantM)
	}
	// No duplicate undirected edges across the whole stream.
	if int64(len(seen)) != wantM {
		t.Fatalf("distinct canonical edges %d, want %d", len(seen), wantM)
	}
	// Stats still populated; every rank streamed something.
	if len(perRank) != 4 {
		t.Fatalf("edges came from %d ranks", len(perRank))
	}
	for r, st := range res.Ranks {
		if st.Edges != perRank[r] {
			t.Fatalf("rank %d stats edges %d vs streamed %d", r, st.Edges, perRank[r])
		}
	}
	if EdgesPerSecond(res) <= 0 {
		t.Fatal("EdgesPerSecond zero for streamed result")
	}
}

// TestGenerateStreamSlotOrder: each rank hands the sink its edges in
// its slot order — the sequence it delivers is its range of Generate's
// edge list, edge for edge — and its RankStats.Edges counts them.
func TestGenerateStreamSlotOrder(t *testing.T) {
	for _, x := range []int{1, 3} {
		for _, ranks := range []int{1, 2, 4} {
			for _, scheme := range []string{"RRP", "UCP"} {
				t.Run(fmt.Sprintf("x%d/ranks%d/%s", x, ranks, scheme), func(t *testing.T) {
					cfg := Config{N: 3000, X: x, Ranks: ranks, Scheme: scheme, Workers: 2, Seed: 23}
					var mu sync.Mutex
					streamed := make([][]Edge, ranks)
					res, err := GenerateStream(cfg, func(rank int, e Edge) {
						mu.Lock()
						streamed[rank] = append(streamed[rank], e)
						mu.Unlock()
					})
					if err != nil {
						t.Fatal(err)
					}
					mem, err := Generate(cfg)
					if err != nil {
						t.Fatal(err)
					}
					want := mem.Graph.Edges
					for r, got := range streamed {
						if st := res.Ranks[r].Edges; st != int64(len(got)) {
							t.Fatalf("rank %d: RankStats.Edges %d, sink got %d", r, st, len(got))
						}
						n := mem.Ranks[r].Edges
						if int64(len(got)) != n {
							t.Fatalf("rank %d streamed %d edges, its range holds %d", r, len(got), n)
						}
						for i, e := range got {
							if e != want[i] {
								t.Fatalf("rank %d edge %d: streamed %+v, Generate has %+v", r, i, e, want[i])
							}
						}
						want = want[n:]
					}
				})
			}
		}
	}
}

func TestGenerateStreamValidatesConfig(t *testing.T) {
	if _, err := GenerateStream(Config{N: 2, X: 2}, func(int, Edge) {}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestGenerateStreamDirMatchesInMemory(t *testing.T) {
	cfg := Config{N: 5000, X: 3, Ranks: 2, Seed: 31}
	base, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamCfg := cfg
	streamCfg.StreamDir = t.TempDir()
	streamCfg.StreamBlockEdges = 1024
	res, err := Generate(streamCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph != nil {
		t.Fatal("streamed run materialised a graph")
	}
	g, err := ReadStreamDir(streamCfg.StreamDir, cfg.Ranks)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != base.Graph.N || len(g.Edges) != len(base.Graph.Edges) {
		t.Fatalf("streamed graph is %d nodes / %d edges, want %d / %d",
			g.N, len(g.Edges), base.Graph.N, len(base.Graph.Edges))
	}
	for i := range g.Edges {
		if g.Edges[i] != base.Graph.Edges[i] {
			t.Fatalf("edge %d is %+v, want %+v", i, g.Edges[i], base.Graph.Edges[i])
		}
	}
}

func TestDegreesStreamed(t *testing.T) {
	cfg := Config{N: 8000, X: 4, Ranks: 4, Seed: 41}
	deg, res, err := DegreesStreamed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph != nil {
		t.Fatal("streamed degrees materialised a graph")
	}
	var sum int64
	for _, d := range deg {
		sum += d
	}
	wantM := int64(6) + (8000-4)*4
	if sum != 2*wantM {
		t.Fatalf("degree sum %d, want %d", sum, 2*wantM)
	}
	// Every non-clique node has degree >= x.
	for u := 4; u < 8000; u++ {
		if deg[u] < 4 {
			t.Fatalf("node %d degree %d < x", u, deg[u])
		}
	}
	if _, _, err := DegreesStreamed(Config{N: 1, X: 2}); err == nil {
		t.Fatal("invalid config accepted")
	}
}
