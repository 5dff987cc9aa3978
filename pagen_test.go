package pagen

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"testing"

	"pagen/internal/core"
	"pagen/internal/esink"
)

func TestGenerateDefaults(t *testing.T) {
	res, err := Generate(Config{N: 5000, X: 4, Ranks: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantM := int64(6) + (5000-4)*4
	if res.Graph.M() != wantM {
		t.Fatalf("m = %d, want %d", res.Graph.M(), wantM)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Ranks) != 4 {
		t.Fatalf("rank stats = %d", len(res.Ranks))
	}
	if res.Trace != nil {
		t.Fatal("trace collected without request")
	}
}

func TestGenerateSingleRankDefault(t *testing.T) {
	res, err := Generate(Config{N: 100, X: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranks) != 1 {
		t.Fatalf("default ranks = %d", len(res.Ranks))
	}
}

func TestGenerateSchemes(t *testing.T) {
	for _, scheme := range []string{"UCP", "LCP", "RRP", "ExactCP", ""} {
		res, err := Generate(Config{N: 2000, X: 2, Ranks: 3, Scheme: scheme, Seed: 5})
		if err != nil {
			t.Fatalf("scheme %q: %v", scheme, err)
		}
		if err := res.Graph.Validate(); err != nil {
			t.Fatalf("scheme %q: %v", scheme, err)
		}
	}
	if _, err := Generate(Config{N: 2000, X: 2, Scheme: "bogus"}); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	bad := []Config{
		{N: 0, X: 1},
		{N: 4, X: 4},
		{N: 100, X: 0},
		{N: 100, X: 2, P: 1.5},
	}
	for _, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// A NaN p fails every comparison, so a range check written as
// "p < 0 || p > 1" lets it through and the run writes shards whose
// identity check (p != p) can never pass. It must fail before any file.
func TestGenerateRejectsNaNP(t *testing.T) {
	stream, ck := t.TempDir(), t.TempDir()
	for _, cfg := range []Config{
		{N: 1000, X: 2, P: math.NaN(), Ranks: 2, StreamDir: stream},
		{N: 1000, X: 2, P: math.NaN(), Ranks: 2, CheckpointDir: ck, CheckpointEvery: 100},
	} {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	for _, dir := range []string{stream, ck} {
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Errorf("%s after a rejected run: %d entries (%v)", dir, len(ents), err)
		}
	}
}

func TestGenerateWithTrace(t *testing.T) {
	res, err := Generate(Config{N: 3000, X: 2, Ranks: 4, Seed: 7, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace")
	}
	lengths := ChainLengths(res.Trace)
	if len(lengths) != res.Trace.Slots() {
		t.Fatalf("chain lengths = %d slots", len(lengths))
	}
	max := int32(0)
	for _, l := range lengths {
		if l > max {
			max = l
		}
	}
	if float64(max) > 5*math.Log(3000) {
		t.Fatalf("max chain %d violates Theorem 3.3 bound", max)
	}
}

// The decision trace is part of the determinism contract (DESIGN.md
// §8.1): through the facade, at these rank and worker counts, every
// slot's final (kind, K, L) equals the sequential copy model's.
// TestSimProperty checks it across the whole configuration space.
func TestGenerateTraceMatchesSequential(t *testing.T) {
	cases := []Config{
		{N: 400, X: 1, P: 0.5, Seed: 3},
		{N: 900, X: 4, P: 0.5, Seed: 7},
		{N: 64, X: 8, P: 0.2, Seed: 11},
		{N: 1500, X: 3, P: 0.8, Seed: 5},
	}
	layouts := []struct{ ranks, workers int }{{1, 1}, {1, 2}, {1, 3}, {2, 1}}
	for _, c := range cases {
		c.RecordTrace = true
		_, want, err := GenerateSeq(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range layouts {
			cfg := c
			cfg.Ranks, cfg.Workers = l.ranks, l.workers
			res, err := Generate(cfg)
			if err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			got := res.Trace
			if got == nil || got.Slots() != want.Slots() {
				t.Fatalf("%+v: trace missing or wrong size", cfg)
			}
			for i := 0; i < want.Slots(); i++ {
				if got.Copied[i] != want.Copied[i] || got.K[i] != want.K[i] || got.L[i] != want.L[i] {
					t.Fatalf("n=%d x=%d p=%v seed=%d ranks=%d workers=%d: slot %d = (copied %v, k %d, l %d), sequential (copied %v, k %d, l %d)",
						c.N, c.X, c.P, c.Seed, l.ranks, l.workers, i,
						got.Copied[i], got.K[i], got.L[i], want.Copied[i], want.K[i], want.L[i])
				}
			}
		}
	}
}

func TestGenerateSeqMatchesParallelX1(t *testing.T) {
	cfg := Config{N: 1500, X: 1, Seed: 11}
	gSeq, tr, err := GenerateSeq(Config{N: 1500, X: 1, Seed: 11, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("no trace from GenerateSeq")
	}
	cfg.Ranks = 6
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqF := map[int64]int64{}
	for _, e := range gSeq.Edges {
		seqF[e.U] = e.V
	}
	for _, e := range res.Graph.Edges {
		if seqF[e.U] != e.V {
			t.Fatalf("F_%d: parallel %d vs sequential %d", e.U, e.V, seqF[e.U])
		}
	}
}

func TestGenerateBA(t *testing.T) {
	g, err := GenerateBA(Config{N: 5000, X: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gamma < 2 || rep.Gamma > 4 {
		t.Fatalf("gamma = %v", rep.Gamma)
	}
}

func TestAnalyzeDefaultDMin(t *testing.T) {
	res, err := Generate(Config{N: 10000, X: 4, Ranks: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(res.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GammaDMin < 1 {
		t.Fatalf("default dmin = %d", rep.GammaDMin)
	}
	if rep.Gamma < 2 || rep.Gamma > 4.5 {
		t.Fatalf("gamma = %v", rep.Gamma)
	}
}

func TestNewPartition(t *testing.T) {
	part, err := NewPartition("LCP", 10000, 16)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for r := 0; r < 16; r++ {
		total += part.Size(r)
	}
	if total != 10000 {
		t.Fatalf("sizes sum to %d", total)
	}
	if _, err := NewPartition("nope", 100, 2); err == nil {
		t.Fatal("bad scheme accepted")
	}
}

func TestMemoryEstimate(t *testing.T) {
	base := MemoryEstimate(Config{N: 1_000_000, X: 4, Ranks: 8})
	if base <= 0 {
		t.Fatalf("estimate = %d", base)
	}
	// More nodes, more memory.
	if MemoryEstimate(Config{N: 2_000_000, X: 4, Ranks: 8}) <= base {
		t.Fatal("estimate not monotone in n")
	}
	// Trace costs extra.
	if MemoryEstimate(Config{N: 1_000_000, X: 4, Ranks: 8, RecordTrace: true}) <= base {
		t.Fatal("trace not accounted")
	}
	// Invalid config estimates 0.
	if MemoryEstimate(Config{N: 2, X: 5}) != 0 {
		t.Fatal("invalid config estimated nonzero")
	}
	// Sanity of scale: ~1M nodes, x=4 should be tens to hundreds of MB.
	if base < 50<<20 || base > 1<<30 {
		t.Fatalf("estimate %d bytes implausible", base)
	}
	// Every rank writes its range of one edge list and keeps its table in
	// that range's tail, so an in-memory run costs 16 bytes per edge and
	// nothing per slot but a bit at every rank count: one and eight ranks
	// differ only by each rank's state and fixed overhead.
	pr := Params{N: 1_000_000, X: 4, P: DefaultP}
	state := func(ranks int) int64 {
		return int64(ranks) * (core.RankStateBytes(pr, ranks, 0) + 1<<17)
	}
	one := MemoryEstimate(Config{N: 1_000_000, X: 4, Ranks: 1})
	if d, want := base-one, state(8)-state(1); d != want {
		t.Fatalf("8 ranks estimate %d bytes more than 1, want only the ranks' state and overhead %d", d, want)
	}
	if edges := int64(16 * (6 + (1_000_000-4)*4)); one != edges+state(1) {
		t.Fatalf("one-rank estimate %d, want edges %d + rank state and overhead %d", one, edges, state(1))
	}
	// A rank's state is a bit per slot and an ahead page, plus — past
	// one rank — the hub replica and W·x outstanding queries; none of it
	// grows with how far the ranks drift apart.
	if s1, s2 := core.RankStateBytes(pr, 1, 0), core.RankStateBytes(pr, 2, 0); s1 > 1<<20 || s2 <= s1 || s2 > 4<<20 {
		t.Fatalf("rank state %d bytes at one rank, %d at two: want a bitmap under 1 MiB, then the protocol bound on top, under 4 MiB", s1, s2)
	}
	if off, on := core.RankStateBytes(pr, 2, -1), core.RankStateBytes(pr, 2, 0); on <= off {
		t.Fatalf("rank state with the hub replica %d, without %d: the replica is not charged", on, off)
	}
	// Past 2³²−1 nodes the table is still one w-bit plane in the edge
	// range: nothing per slot is added.
	wide := int64(1 << 33)
	widePr := Params{N: wide, X: 4, P: DefaultP}
	if got, want := MemoryEstimate(Config{N: wide, X: 4, Ranks: 1}), 16*(6+(wide-4)*4)+core.RankStateBytes(widePr, 1, 0)+1<<17; got != want {
		t.Fatalf("n = %d in memory: estimate %d, want edges + rank state and overhead = %d", wide, got, want)
	}

	// The bounded-memory path holds the tables and each rank's open
	// shard block — the buffers esink.Open allocates, which at n = 10⁶
	// hold a 20-bit value a record and a few KiB of exception list and
	// staged records — and nothing per edge. Checkpointing
	// it adds nothing: a snapshot is a few dozen bytes. A checkpointed run
	// without StreamDir streams too and holds the edge list it reads back,
	// so it costs the in-memory run plus the tables and the open blocks.
	mem := Config{N: 1_000_000, X: 4, Ranks: 2}
	streamed, ckpt, both := mem, mem, mem
	streamed.StreamDir = "shards"
	ckpt.CheckpointDir = "ck"
	both.StreamDir, both.CheckpointDir = "shards", "ck"
	if s, m := MemoryEstimate(streamed), MemoryEstimate(mem); s >= m {
		t.Fatalf("streamed estimate %d not below in-memory %d", s, m)
	}
	tables := int64((1_000_000 - 4) * 4 * 20 / 8) // w = bits.Len64(10⁶) = 20
	blocks := 2 * esink.BufferBytes(1_000_000, 0)
	if payload := int64(esink.DefaultBlockEdges * 20 / 8); blocks/2 < payload || blocks/2 > payload+8<<10 {
		t.Fatalf("an open block at n = 10⁶ is %d bytes, want its %d bytes of 20-bit values, a block header and under 8 KiB of fixed scratch", blocks/2, payload)
	}
	if s, b := MemoryEstimate(streamed), MemoryEstimate(both); b != s {
		t.Fatalf("streamed + checkpointed %d, want streamed %d", b, s)
	}
	if c, m := MemoryEstimate(ckpt), MemoryEstimate(mem); c != m+tables+blocks {
		t.Fatalf("checkpointed estimate without StreamDir %d, want in-memory %d plus the tables %d and two open blocks %d", c, m, tables, blocks)
	}
	if s := MemoryEstimate(streamed); s < tables || s > 2*tables {
		t.Fatalf("streamed estimate %d not within 2x of the tables' %d", s, tables)
	}
	// A slot is tw = bits.Len64(n) bits, the width of F + 1 ≤ n, at
	// every n; a shard value is w = bits.Len64(n − 1) bits.
	for _, c := range []struct {
		n     int64
		tw, w int64
	}{{1 << 20, 21, 20}, {math.MaxUint32, 32, 32}, {1 << 33, 34, 33}} {
		cfg := Config{N: c.n, X: 4, Ranks: 1, StreamDir: "shards"}
		block := esink.BufferBytes(c.n, 0)
		if payload := esink.DefaultBlockEdges * c.w / 8; block < payload || block > payload+8<<10 {
			t.Fatalf("n = %d: an open block is %d bytes, want its %d bytes of %d-bit values, a block header and under 8 KiB of fixed scratch", c.n, block, payload, c.w)
		}
		want := ((c.n-4)*4*c.tw+7)/8 + block + core.RankStateBytes(Params{N: c.n, X: 4, P: DefaultP}, 1, 0) + 1<<17
		if got := MemoryEstimate(cfg); got != want {
			t.Fatalf("n = %d: estimate %d, want %d-bit tables + one open block + rank state and overhead = %d", c.n, got, c.tw, want)
		}
	}
	small := streamed
	small.StreamBlockEdges = 512
	if s, d := MemoryEstimate(small), MemoryEstimate(streamed); s >= d {
		t.Fatalf("estimate ignores StreamBlockEdges: %d vs default %d", s, d)
	}
}

// The estimate is the allocation gate: at n = 2·10⁵ a run allocates no
// more in all than MemoryEstimate says it needs at its peak — in memory,
// streamed and streamed with checkpoints, at one and two ranks, under
// round-robin and uniform consecutive partitions. Under UCP the upper
// rank suspends nearly every node it starts, so without the run-ahead
// cap its protocol state grew with the run: every two-rank UCP shape
// allocated 1.3–5.9 times this bound (2.9–5.9 streamed), and two RRP
// ranks sharing one P up to 3 times. Every rank's
// high-water suspension count must stay at or under the cap. The race
// detector's sync.Pool drops pooled items at random, so under -race the
// frame pool refills far more often and only the cap is checked.
func TestMemoryEstimateBoundsAllocation(t *testing.T) {
	race := false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			race = race || s.Key == "-race" && s.Value == "true"
		}
	}
	stalled := false
	for _, scheme := range []string{"RRP", "UCP"} {
		for _, ranks := range []int{1, 2} {
			for _, shape := range []string{"in memory", "streamed", "checkpointed", "streamed, metrics"} {
				cfg := Config{N: 200_000, X: 4, Ranks: ranks, Scheme: scheme, Seed: 1, Workers: 1}
				if shape != "in memory" {
					cfg.StreamDir = t.TempDir()
				}
				if shape == "checkpointed" {
					cfg.CheckpointDir, cfg.CheckpointEvery = t.TempDir(), cfg.N/10
				}
				// A -metrics run: the load curve is counted and exported.
				cfg.CollectNodeLoad = shape == "streamed, metrics"
				label := fmt.Sprintf("%s, %d ranks, %s", scheme, ranks, shape)
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				res, err := Generate(cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if cfg.CollectNodeLoad && Metrics(res, cfg).NodeLoad == nil {
					t.Fatalf("%s: no node-load curve", label)
				}
				runtime.ReadMemStats(&after)
				got, est := int64(after.TotalAlloc-before.TotalAlloc), MemoryEstimate(cfg)
				if got > est && !race {
					t.Errorf("%s allocated %d bytes, over MemoryEstimate's %d by %d", label, got, est, got-est)
				} else {
					t.Logf("%s allocated %d bytes of MemoryEstimate's %d (%.0f %%)", label, got, est, 100*float64(got)/float64(est))
				}
				for _, st := range res.Ranks {
					if st.MaxSuspended > core.RunAheadNodes {
						t.Errorf("%s: rank %d held %d unfinished nodes, over the cap %d", label, st.Rank, st.MaxSuspended, core.RunAheadNodes)
					}
					stalled = stalled || st.RunAheadStalls > 0
				}
			}
		}
	}
	if !stalled {
		t.Error("no run deferred a window; the cap was never exercised")
	}
}

func TestEdgesPerSecond(t *testing.T) {
	res, err := Generate(Config{N: 20000, X: 4, Ranks: 2, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if eps := EdgesPerSecond(res); eps <= 0 {
		t.Fatalf("eps = %v", eps)
	}
	if eps := EdgesPerSecond(&Result{Graph: res.Graph}); eps != 0 {
		t.Fatalf("zero-elapsed eps = %v", eps)
	}
}
