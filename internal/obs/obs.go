// Package obs is the observability layer of the parallel generator:
// per-rank counters and histograms collected during a run and exported
// as JSON, so the paper's analytical claims can be checked against a
// live execution instead of post-hoc traces.
//
// The metric definitions map directly onto the paper:
//
//   - Per-node received-message load (NodeLoadCurve) is the empirical
//     M_k of Lemma 3.4, binned geometrically over k, whose expectation
//     is (1-p)(H_{n-1} - H_k) per attachment slot — BinNodeLoad averages
//     the closed form over each bin so the JSON carries measured and
//     predicted columns side by side.
//   - The wait-chain histogram (RankMetrics.WaitChain) observes the
//     length of each Q_{k,l} waiter queue as it resolves — the queueing
//     behaviour Theorem 3.3's O(log n) dependency-chain bound keeps
//     shallow.
//   - Request/resolved/frame/byte counters are the Section 4.6 traffic
//     measures (Figure 7 inputs), re-exported from the communicator.
//
// Collection is allocation-free on the hot path: Histogram is a fixed
// array of power-of-two buckets, and the load curve is counted straight
// into its O(log n) bins (LoadBins), gated behind an opt-in flag.
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
	// waiting slots. The first three count work: on a resumed run they
	// are the cut's totals plus the work regenerated above the rank's
	// mark, so Retries there is not the model's retry count.
	Retries         int64 `json:"retries"`
	QueuedWaits     int64 `json:"queued_waits"`
	LocalWaits      int64 `json:"local_waits"`
	MaxPendingSlots int64 `json:"max_pending_slots"`
	// Run-ahead cap: the high-water count of unfinished initiated nodes
	// (at most the engine's cap, 1024) and the windows the cap deferred
	// while the rank drained and served instead.
	MaxSuspended   int64 `json:"max_suspended"`
	RunAheadStalls int64 `json:"run_ahead_stalls"`
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
	// Checkpoint counters (zero unless checkpointing ran): published
	// epochs, epochs whose publish failed, snapshot bytes the background
	// writer published, time it spent publishing them (off the pause
	// path), and total generation pause across epochs (the frontier
	// write and block flush plus any wait for the writer's queue — the
	// publish overlaps generation).
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
	// time spent in fsync. An epoch's sync runs on the background
	// checkpoint writer, inside CkptWriteNanos and off the checkpoint
	// pause; only the close's sync stalls the rank goroutine.
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
	// Nodes is the number of nodes in the bin, KHi - KLo in a run's
	// curve; a rank's curve counts the nodes the rank owns.
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
	// MeanLoad is Messages / Nodes (0 on a rank that owns none of
	// the bin's nodes).
	MeanLoad float64 `json:"mean_load"`
	// Expected is the Lemma 3.4 prediction x·(1-p)(H_{n-1} - H_k)
	// averaged over all the bin's nodes [KLo, KHi).
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

// LoadBins are the counters behind the Lemma 3.4 curve: about eight
// geometric bins a decade over the global node ids [x, n), counted into
// as the queries happen. The edges depend only on (n, x), so every rank
// of a run keeps the same bins and a run's counts are its ranks' summed
// bin by bin (Add).
type LoadBins struct {
	// Edges delimit the bins: bin i holds nodes [Edges[i], Edges[i+1]).
	Edges []int64
	// Nodes counts each bin's nodes that the counting rank owns; summed
	// over a run's ranks it is Edges[i+1] - Edges[i].
	Nodes []int64
	// Wire counts the copy queries for a bin's nodes that reached the
	// owner (from a peer or from the owner itself); Elided those a
	// hub-prefix replica answered at the requester instead.
	Wire, Elided []int64
	// start[q] is the bin of eighth octave q's first node (Bin).
	start []uint8
}

// NewLoadBins returns zeroed bins for an n-node run with x attachment
// slots a node (clique nodes k < x receive no copy queries and get no
// bin).
func NewLoadBins(n int64, x int) *LoadBins {
	const binsPerDecade = 8
	var edges []int64
	if n >= 2 {
		// Each bin spans a constant factor.
		factor := math.Pow(10, 1/float64(binsPerDecade))
		for edge := float64(max(int64(x), 1)); int64(edge) < n; edge *= factor {
			if e := int64(edge); len(edges) == 0 || e > edges[len(edges)-1] {
				edges = append(edges, e)
			}
		}
	}
	bins := len(edges)
	b := &LoadBins{Edges: append(edges, n), start: make([]uint8, 8*bits.Len64(uint64(n))),
		Nodes: make([]int64, bins), Wire: make([]int64, bins), Elided: make([]int64, bins)}
	for q := range b.start {
		// The first node of eighth octave q = 8e+j, or the first binned
		// node. A uint8 holds any bin index: n <= 2^57 makes at most 140.
		e, j := q/8, int64(q%8)
		first := max(((8+j)<<e+7)/8, b.Edges[0])
		i := 0
		for i+1 < bins && first >= b.Edges[i+1] {
			i++
		}
		b.start[q] = uint8(i)
	}
	return b
}

// Bin returns the index of the bin holding node k, Edges[0] <= k < n:
// the bin k's eighth octave [2^e(1+j/8), 2^e(1+(j+1)/8)) starts in, or
// the next one if an edge lies inside it. At most one does: an eighth
// octave spans at most a factor 9/8 and holds three nodes only from
// k = 32 on, where every edge exceeds 9/8 of the one before (it is at
// least 10^(1/8) times it, less one). One table read and one compare
// replace a binary search over the edges, which cost a run about 20 ns
// a query.
func (b *LoadBins) Bin(k int64) int {
	e := bits.Len64(uint64(k)) - 1
	i := int(b.start[8*e+int(uint64(k)<<3>>e&7)])
	if k >= b.Edges[i+1] {
		i++
	}
	return i
}

// Add adds o's counts into b bin by bin; both must come from the same
// (n, x).
func (b *LoadBins) Add(o *LoadBins) {
	for i := range b.Wire {
		b.Nodes[i] += o.Nodes[i]
		b.Wire[i] += o.Wire[i]
		b.Elided[i] += o.Elided[i]
	}
}

// BinNodeLoad turns counted bins into the curve and fills in the Lemma
// 3.4 expectation for x attachment slots a node, averaged over each
// bin's nodes in closed form: sum_{k=lo}^{hi-1} (H_{n-1} - H_k) is
// (hi-lo)·H_{n-1} - stats.SumHarmonic(lo, hi-1).
func BinNodeLoad(b *LoadBins, n int64, x int, p float64) NodeLoadCurve {
	curve := NodeLoadCurve{N: n, X: x, P: p}
	hn := stats.Harmonic(n - 1)
	for i := range b.Wire {
		lo, hi := b.Edges[i], b.Edges[i+1]
		bin := NodeLoadBin{KLo: lo, KHi: hi, Nodes: b.Nodes[i],
			Messages: b.Wire[i] + b.Elided[i], WireMessages: b.Wire[i], ElidedMessages: b.Elided[i],
			Expected: float64(x) * (1 - p) * (hn - stats.SumHarmonic(lo, hi-1)/float64(hi-lo))}
		if bin.Nodes > 0 {
			bin.MeanLoad = float64(bin.Messages) / float64(bin.Nodes)
		}
		curve.Bins = append(curve.Bins, bin)
	}
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
	// NodeLoad is the Lemma 3.4 curve, present when the run counted
	// node loads.
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
