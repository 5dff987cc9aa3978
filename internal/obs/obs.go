// Package obs is the observability layer of the parallel generator:
// per-rank counters and histograms collected during a run and exported
// as JSON, so the paper's analytical claims can be checked against a
// live execution instead of post-hoc traces.
//
// The metric definitions map directly onto the paper:
//
//   - Per-node received-message load (NodeLoadCurve) is the empirical
//     M_k of Lemma 3.4, whose expectation is (1-p)(H_{n-1} - H_k) per
//     attachment slot — ExpectedLoad evaluates the closed form so the
//     JSON carries measured and predicted columns side by side.
//   - The wait-chain histogram (RankMetrics.WaitChain) observes the
//     length of each Q_{k,l} waiter queue as it resolves — the queueing
//     behaviour Theorem 3.3's O(log n) dependency-chain bound keeps
//     shallow.
//   - Request/resolved/frame/byte counters are the Section 4.6 traffic
//     measures (Figure 7 inputs), re-exported from the communicator.
//
// Collection is allocation-free on the hot path: Histogram is a fixed
// array of power-of-two buckets, and per-node load counters are plain
// slice increments gated behind an opt-in flag.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"

	"pagen/internal/stats"
)

// HistogramBuckets is the number of power-of-two buckets a Histogram
// holds; bucket i counts observed values v with bit-length i, so the
// covered range is 0 .. 2^63-1.
const HistogramBuckets = 64

// Histogram is a fixed-size power-of-two-bucketed histogram of
// non-negative int64 observations. The zero value is ready to use, and
// Observe never allocates (the engine calls it inside the hot loop).
type Histogram struct {
	// Count is the number of observations.
	Count int64
	// Sum is the total of all observed values.
	Sum int64
	// Max is the largest observed value (0 when empty).
	Max int64
	// Buckets[i] counts observations v with bits.Len64(v) == i: bucket
	// 0 holds zeros, bucket i>0 holds values in [2^(i-1), 2^i).
	Buckets [HistogramBuckets]int64
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	h.Buckets[bits.Len64(uint64(v))]++
}

// Merge folds another histogram into h — the per-worker counter merge:
// each worker observes into its own histogram on the hot path and the
// rank combines them once at the end, so observation never contends.
func (h *Histogram) Merge(o Histogram) {
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) using
// the bucket upper edges — exact to within the power-of-two bucket
// width, which is all the dependency-chain checks need.
func (h *Histogram) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	target := int64(q * float64(h.Count))
	if target >= h.Count {
		target = h.Count - 1
	}
	var seen int64
	for i, c := range h.Buckets {
		seen += c
		if seen > target {
			if i == 0 {
				return 0
			}
			edge := int64(1)<<uint(i) - 1
			if edge > h.Max {
				edge = h.Max
			}
			return edge
		}
	}
	return h.Max
}

// histogramJSON is the wire form of Histogram: buckets are emitted as a
// trimmed slice so an empty histogram is tiny.
type histogramJSON struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Max     int64   `json:"max"`
	Mean    float64 `json:"mean"`
	Buckets []int64 `json:"buckets"`
}

// MarshalJSON implements json.Marshaler, trimming trailing empty
// buckets.
func (h Histogram) MarshalJSON() ([]byte, error) {
	last := 0
	for i, c := range h.Buckets {
		if c != 0 {
			last = i + 1
		}
	}
	return json.Marshal(histogramJSON{
		Count:   h.Count,
		Sum:     h.Sum,
		Max:     h.Max,
		Mean:    h.Mean(),
		Buckets: append([]int64(nil), h.Buckets[:last]...),
	})
}

// UnmarshalJSON implements json.Unmarshaler (the inverse of the trimmed
// MarshalJSON form).
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var w histogramJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if len(w.Buckets) > HistogramBuckets {
		return fmt.Errorf("obs: %d histogram buckets, max %d", len(w.Buckets), HistogramBuckets)
	}
	*h = Histogram{Count: w.Count, Sum: w.Sum, Max: w.Max}
	copy(h.Buckets[:], w.Buckets)
	return nil
}

// RankMetrics is one rank's exported metric set: the Section 4.6
// traffic counters, the engine's queueing gauges, and the wait-chain
// histogram.
type RankMetrics struct {
	// Rank is the reporting rank.
	Rank int `json:"rank"`
	// Nodes and Edges are the rank's share of the output.
	Nodes int64 `json:"nodes"`
	Edges int64 `json:"edges"`
	// Logical message counters (Figure 7 inputs).
	RequestsSent int64 `json:"requests_sent"`
	RequestsRecv int64 `json:"requests_recv"`
	ResolvedSent int64 `json:"resolved_sent"`
	ResolvedRecv int64 `json:"resolved_recv"`
	ControlSent  int64 `json:"control_sent"`
	ControlRecv  int64 `json:"control_recv"`
	// Hub-prefix replica hits: remote copy queries answered from the
	// rank's computed replica, each a request elided entirely (zero
	// unless the replica ran).
	HubCacheHit int64 `json:"hub_cache_hit,omitempty"`
	// Recompute-resolver counters (zero unless -resolve=recompute ran):
	// remote queries resolved by local stream replay, replays that hit
	// the depth cap and fell back to the wire protocol, and attachment
	// values committed to the replay memo table. ReplayDepth is the
	// histogram of replay chain depths per resolved query — compare its
	// quantiles against the Theorem 3.3 O(log n) chain-depth bound.
	RecomputeResolved int64     `json:"recompute_resolved,omitempty"`
	RecomputeFallback int64     `json:"recompute_fallback,omitempty"`
	ReplayedEdges     int64     `json:"replayed_edges,omitempty"`
	ReplayDepth       Histogram `json:"replay_depth"`
	// Transport-frame counters: how much buffering coalesced.
	FramesSent int64 `json:"frames_sent"`
	FramesRecv int64 `json:"frames_recv"`
	BytesSent  int64 `json:"bytes_sent"`
	BytesRecv  int64 `json:"bytes_recv"`
	// Engine gauges: duplicate retries, queued request waits, local
	// dependency-chain waits, and the peak number of simultaneously
	// waiting slots.
	Retries         int64 `json:"retries"`
	QueuedWaits     int64 `json:"queued_waits"`
	LocalWaits      int64 `json:"local_waits"`
	MaxPendingSlots int64 `json:"max_pending_slots"`
	// TotalLoad is the paper's Section 4.6 load measure: nodes plus
	// data messages in and out.
	TotalLoad int64 `json:"total_load"`
	// WallNanos and BusyNanos split the rank's runtime into total and
	// not-blocked-in-Wait time.
	WallNanos int64 `json:"wall_nanos"`
	BusyNanos int64 `json:"busy_nanos"`
	// WaitChain is the histogram of Q_{k,l} waiter-queue lengths at
	// resolution time (Theorem 3.3's chains keep it shallow).
	WaitChain Histogram `json:"wait_chain"`
	// Checkpoint counters (zero unless checkpointing ran): committed
	// epochs, abandoned epochs, snapshot bytes the background writer
	// published, time it spent publishing them (off the pause path),
	// and total generation pause across epochs (quiescence wait +
	// capture — the publish overlaps generation).
	CkptEpochs     int64 `json:"ckpt_epochs,omitempty"`
	CkptFailed     int64 `json:"ckpt_failed,omitempty"`
	CkptBytes      int64 `json:"ckpt_bytes,omitempty"`
	CkptWriteNanos int64 `json:"ckpt_write_nanos,omitempty"`
	CkptPauseNanos int64 `json:"ckpt_pause_nanos,omitempty"`
	// Per-epoch distributions of the generation pause and the
	// background publish (one observation per epoch).
	CkptPausePerEpoch Histogram `json:"ckpt_pause_per_epoch"`
	CkptWritePerEpoch Histogram `json:"ckpt_write_per_epoch"`
	// Streaming edge-sink counters (zero unless -stream-dir ran): shard
	// blocks flushed, compressed bytes written, fsync calls, and total
	// time stalled in fsync (cut barriers plus final close).
	SinkBlocks     int64 `json:"sink_blocks_flushed,omitempty"`
	SinkBytes      int64 `json:"sink_bytes_written,omitempty"`
	SinkFsyncs     int64 `json:"sink_fsyncs,omitempty"`
	SinkFsyncNanos int64 `json:"sink_fsync_stall_nanos,omitempty"`
	// TCP transport I/O split (zero off TCP): received frames drained
	// by the engine's own polls against frames that waited for a reader
	// goroutine (reader ≫ inline on a busy rank means the rank's round
	// trips are waiting for the scheduler), readiness probes issued and
	// those that found a readable socket, and inline writes that had to
	// wait for socket space.
	TCPFramesInline int64 `json:"tcp_frames_inline,omitempty"`
	TCPFramesReader int64 `json:"tcp_frames_reader,omitempty"`
	TCPProbes       int64 `json:"tcp_probes,omitempty"`
	TCPProbeHits    int64 `json:"tcp_probe_hits,omitempty"`
	TCPWriteStalls  int64 `json:"tcp_write_stalls,omitempty"`
}

// KLoad is one node's received-message load: K is the global node id,
// Load the number of copy-resolution queries the node's owner received
// for it (remote requests plus same-rank queries — the events Lemma 3.4
// counts). Elided counts the queries that would have reached the owner
// but were answered from a hub-prefix replica instead; Load + Elided is
// what Lemma 3.4 predicts.
type KLoad struct {
	K      int64 `json:"k"`
	Load   int64 `json:"load"`
	Elided int64 `json:"elided,omitempty"`
}

// ExpectedLoad returns the Lemma 3.4 closed form for the expected
// per-slot message load of node k in an n-node run with direct-attach
// probability p: (1-p)(H_{n-1} - H_k). Multiply by x for an x-edge run
// (each of a node's x slots queries independently).
func ExpectedLoad(n, k int64, p float64) float64 {
	if k >= n-1 || k < 0 {
		return 0
	}
	return (1 - p) * stats.HarmonicDiff(k, n-1)
}

// NodeLoadBin is one geometric bin of the per-node load curve.
type NodeLoadBin struct {
	// KLo and KHi delimit the node-id range [KLo, KHi).
	KLo int64 `json:"k_lo"`
	KHi int64 `json:"k_hi"`
	// Nodes is the number of nodes with samples in the bin.
	Nodes int64 `json:"nodes"`
	// Messages is the total load over the bin: queries that reached the
	// owner (WireMessages) plus queries a hub-prefix replica answered
	// locally (ElidedMessages). Keeping the total here is what lets the
	// Expected column stay comparable with the cache on.
	Messages int64 `json:"messages"`
	// WireMessages and ElidedMessages split Messages by path
	// (ElidedMessages is zero, and omitted, when no cache ran).
	WireMessages   int64 `json:"wire_messages,omitempty"`
	ElidedMessages int64 `json:"elided_messages,omitempty"`
	// MeanLoad is Messages / Nodes.
	MeanLoad float64 `json:"mean_load"`
	// Expected is the Lemma 3.4 prediction x·(1-p)(H_{n-1} - H_k)
	// averaged over the bin's nodes.
	Expected float64 `json:"expected"`
}

// NodeLoadCurve is the binned empirical M_k curve of Lemma 3.4 with the
// closed-form prediction alongside.
type NodeLoadCurve struct {
	// N, X and P are the run parameters the Expected column was
	// computed from.
	N int64   `json:"n"`
	X int     `json:"x"`
	P float64 `json:"p"`
	// Bins are geometric bins over k, in increasing k order.
	Bins []NodeLoadBin `json:"bins"`
}

// BinNodeLoad bins per-node load samples geometrically over k (about
// binsPerDecade bins per factor of 10; 8 when <= 0) and fills in the
// Lemma 3.4 expectation for x attachment slots per node. Samples with
// k < x are skipped: clique nodes receive no copy queries.
func BinNodeLoad(samples []KLoad, n int64, x int, p float64, binsPerDecade int) NodeLoadCurve {
	if binsPerDecade <= 0 {
		binsPerDecade = 8
	}
	curve := NodeLoadCurve{N: n, X: x, P: p}
	if n < 2 {
		return curve
	}
	// Geometric bin edges over [x, n): each bin spans a constant factor.
	factor := math.Pow(10, 1/float64(binsPerDecade))
	lo := int64(x)
	if lo < 1 {
		lo = 1
	}
	var edges []int64
	for edge := float64(lo); int64(edge) < n; edge *= factor {
		e := int64(edge)
		if len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	edges = append(edges, n)
	bins := make([]NodeLoadBin, len(edges)-1)
	expected := make([]float64, len(bins))
	for i := range bins {
		bins[i].KLo, bins[i].KHi = edges[i], edges[i+1]
	}
	findBin := func(k int64) int {
		// Bins are few (O(log n)); linear scan is fine and obvious.
		for i := range bins {
			if k >= bins[i].KLo && k < bins[i].KHi {
				return i
			}
		}
		return -1
	}
	for _, s := range samples {
		if s.K < int64(x) {
			continue
		}
		i := findBin(s.K)
		if i < 0 {
			continue
		}
		bins[i].Nodes++
		bins[i].Messages += s.Load + s.Elided
		bins[i].WireMessages += s.Load
		bins[i].ElidedMessages += s.Elided
		expected[i] += float64(x) * ExpectedLoad(n, s.K, p)
	}
	out := bins[:0]
	for i := range bins {
		if bins[i].Nodes == 0 {
			continue
		}
		bins[i].MeanLoad = float64(bins[i].Messages) / float64(bins[i].Nodes)
		bins[i].Expected = expected[i] / float64(bins[i].Nodes)
		out = append(out, bins[i])
	}
	curve.Bins = out
	return curve
}

// RunMetrics is the full exported metric set of one run.
type RunMetrics struct {
	// Run parameters.
	N      int64   `json:"n"`
	X      int     `json:"x"`
	P      float64 `json:"p"`
	Ranks  int     `json:"ranks"`
	Scheme string  `json:"scheme,omitempty"`
	Seed   uint64  `json:"seed"`
	// ElapsedNanos is the wall time of the parallel section.
	ElapsedNanos int64 `json:"elapsed_nanos"`
	// PerRank holds each rank's metric set, indexed by rank.
	PerRank []RankMetrics `json:"per_rank"`
	// NodeLoad is the Lemma 3.4 curve, present when the run collected
	// per-node loads.
	NodeLoad *NodeLoadCurve `json:"node_load,omitempty"`
}

// WriteJSON writes the metrics as indented JSON.
func (m *RunMetrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile writes the metrics as indented JSON to the file at path,
// or to stderr when path is "-" (the CLIs' -metrics convention).
func (m *RunMetrics) WriteFile(path string) error {
	if path == "-" {
		return m.WriteJSON(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadJSON parses metrics previously written with WriteJSON.
func ReadJSON(r io.Reader) (*RunMetrics, error) {
	var m RunMetrics
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("obs: decoding metrics: %w", err)
	}
	return &m, nil
}
