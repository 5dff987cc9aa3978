package pagen_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"pagen"
	"pagen/internal/core"
)

// The exported metrics must reproduce the paper's analytical claims on a
// live run: the per-node received-message load follows Lemma 3.4's
// (1-p)(H_{n-1} - H_k) per slot (decreasing in k), and the wait-chain
// histogram Theorem 3.3 bounds is populated and shallow.
func TestMetricsLemma34Curve(t *testing.T) {
	cfg := pagen.Config{N: 100_000, X: 4, Ranks: 4, Seed: 42, CollectNodeLoad: true}
	res, err := pagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := pagen.Metrics(res, cfg)
	if m == nil || m.NodeLoad == nil {
		t.Fatal("no node-load curve collected")
	}
	if len(m.PerRank) != 4 {
		t.Fatalf("%d rank records, want 4", len(m.PerRank))
	}

	// Measured mean load tracks the closed form within 15% on every bin
	// with enough nodes to average out the noise.
	checked := 0
	for _, b := range m.NodeLoad.Bins {
		if b.Nodes != b.KHi-b.KLo {
			t.Errorf("bin [%d,%d) holds %d nodes", b.KLo, b.KHi, b.Nodes)
		}
		if b.Nodes < 500 || b.Expected < 0.05 {
			continue
		}
		if rel := math.Abs(b.MeanLoad-b.Expected) / b.Expected; rel > 0.15 {
			t.Errorf("bin [%d,%d): measured %.3f vs Lemma 3.4 %.3f (rel err %.1f%%)",
				b.KLo, b.KHi, b.MeanLoad, b.Expected, 100*rel)
		}
		checked++
	}
	if checked < 5 {
		t.Fatalf("only %d well-populated bins — curve not resolved", checked)
	}
	// And the well-populated tail of the curve decreases in k, the shape
	// Lemma 3.4 predicts (early tiny bins are single-node noise).
	prev := math.Inf(1)
	for _, b := range m.NodeLoad.Bins {
		if b.Nodes < 500 {
			continue
		}
		if b.MeanLoad >= prev {
			t.Errorf("bin [%d,%d): mean load %.3f not below previous %.3f",
				b.KLo, b.KHi, b.MeanLoad, prev)
		}
		prev = b.MeanLoad
	}

	// Wait-chain histograms: populated, and shallow as Theorem 3.3's
	// O(log n) chains imply — the longest observed waiter queue must be
	// far below the per-rank slot count.
	var observed int64
	for _, r := range m.PerRank {
		observed += r.WaitChain.Count
		if r.WaitChain.Max > 1000 {
			t.Errorf("rank %d: wait chain of %d — not shallow", r.Rank, r.WaitChain.Max)
		}
	}
	if observed == 0 {
		t.Fatal("no wait-chain observations recorded")
	}

	// The full record round-trips through its JSON wire form.
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := pagen.ReadMetricsJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != m.N || len(back.PerRank) != len(m.PerRank) ||
		len(back.NodeLoad.Bins) != len(m.NodeLoad.Bins) {
		t.Fatal("metrics JSON round trip lost data")
	}
}

// Without CollectNodeLoad the run must not pay for load counting and the
// metric record must simply omit the curve.
func TestMetricsWithoutNodeLoad(t *testing.T) {
	cfg := pagen.Config{N: 10_000, X: 2, Ranks: 2, Seed: 1}
	res, err := pagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeLoad != nil {
		t.Fatal("node load collected without opt-in")
	}
	m := pagen.Metrics(res, cfg)
	if m == nil {
		t.Fatal("nil metrics")
	}
	if m.NodeLoad != nil {
		t.Fatal("metrics contain a node-load curve without opt-in")
	}
	if len(m.PerRank) != 2 {
		t.Fatalf("%d rank records, want 2", len(m.PerRank))
	}
}

// The run-ahead cap is visible in the metrics record: under UCP the
// upper rank waits on the lower one's nodes, so it is the one that
// defers windows, and no rank's high-water count of unfinished nodes
// passes the cap.
func TestMetricsRunAheadCap(t *testing.T) {
	cfg := pagen.Config{N: 100_000, X: 4, Ranks: 2, Scheme: "UCP", Seed: 3, Workers: 1}
	res, err := pagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := pagen.Metrics(res, cfg).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"max_suspended"`, `"run_ahead_stalls"`} {
		if !strings.Contains(b.String(), key) {
			t.Fatalf("metrics JSON lacks %s", key)
		}
	}
	m, err := pagen.ReadMetricsJSON(&b)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range m.PerRank {
		if r.MaxSuspended > core.RunAheadNodes {
			t.Errorf("rank %d: max_suspended %d over the cap %d", r.Rank, r.MaxSuspended, core.RunAheadNodes)
		}
	}
	if lo, hi := m.PerRank[0], m.PerRank[1]; lo.RunAheadStalls != 0 || hi.RunAheadStalls == 0 || hi.MaxSuspended == 0 {
		t.Errorf("run_ahead_stalls %d and %d, max_suspended %d and %d: want only rank 1 deferring windows", lo.RunAheadStalls, hi.RunAheadStalls, lo.MaxSuspended, hi.MaxSuspended)
	}
}
