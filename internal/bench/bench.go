// Package bench is the figure library behind cmd/pa-repro: one function
// per artefact of the paper's evaluation (Section 4: Figures 3-7, the
// Section 4.5 headline, the Theorem 3.3 chain bounds, the x sweep and
// the exact-versus-approximate accuracy comparison), each returning the
// rows the paper plots plus a Write* that prints them as TSV. It also
// holds the output fingerprint helper the determinism tests pin.
// Speed and per-layer cost are not measured here; they come from the
// benchmark/ ledger. EXPERIMENTS.md records paper-reported versus
// measured values.
package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"pagen/internal/analysis"
	"pagen/internal/approx"
	"pagen/internal/core"
	"pagen/internal/graph"
	"pagen/internal/loadmodel"
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/seq"
	"pagen/internal/stats"
	"pagen/internal/xrand"
)

// Fig3Row compares the exact Eqn-10 partition boundary with the LCP
// linear approximation at one rank (paper Figure 3).
type Fig3Row struct {
	Rank     int
	ExactLo  int64 // first node of the exact partition
	LinearLo int64 // first node of the LCP partition
	ExactSz  int64
	LinearSz int64
}

// Fig3 computes exact-vs-linear partition boundaries.
func Fig3(n int64, p int, b float64) []Fig3Row {
	exact := partition.NewExactCP(n, p, b)
	lcp := partition.NewLCP(n, p, b)
	rows := make([]Fig3Row, p)
	for i := 0; i < p; i++ {
		elo, _ := exact.Range(i)
		llo, _ := lcp.Range(i)
		rows[i] = Fig3Row{
			Rank: i, ExactLo: elo, LinearLo: llo,
			ExactSz: exact.Size(i), LinearSz: lcp.Size(i),
		}
	}
	return rows
}

// WriteFig3 prints Fig3 rows as a TSV table.
func WriteFig3(w io.Writer, rows []Fig3Row) error {
	if _, err := fmt.Fprintln(w, "rank\texact_start\tlinear_start\texact_size\tlinear_size"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\n", r.Rank, r.ExactLo, r.LinearLo, r.ExactSz, r.LinearSz); err != nil {
			return err
		}
	}
	return nil
}

// Fig4Result is the degree-distribution experiment output (paper
// Figure 4: log-log degree distribution, gamma ~ 2.7 at n=1e9, x=4).
type Fig4Result struct {
	Report  analysis.DegreeReport
	Elapsed time.Duration
}

// Fig4 generates a network in parallel and analyses its degree
// distribution.
func Fig4(pr model.Params, kind partition.Kind, p int, seed uint64) (Fig4Result, error) {
	part, err := partition.New(kind, pr.N, p)
	if err != nil {
		return Fig4Result{}, err
	}
	res, err := core.Run(core.Options{Params: pr, Part: part, Seed: seed}, false)
	if err != nil {
		return Fig4Result{}, err
	}
	rep, err := analysis.AnalyzeDegrees(res.Graph, int64(2*pr.X))
	if err != nil {
		return Fig4Result{}, err
	}
	return Fig4Result{Report: rep, Elapsed: res.Elapsed}, nil
}

// ScalingRow is one point of a strong- or weak-scaling series
// (paper Figures 5 and 6).
type ScalingRow struct {
	Scheme string
	P      int
	N      int64
	X      int
	// Elapsed is the measured wall time of the parallel section.
	Elapsed time.Duration
	// SeqElapsed is the sequential copy-model baseline time (T_s).
	SeqElapsed time.Duration
	// WallSpeedup is T_s / T_p measured; on a single-core host this
	// saturates near 1 regardless of P (see DESIGN.md).
	WallSpeedup float64
	// ModelSpeedup is the load-model prediction, the series whose shape
	// reproduces Figures 5-6.
	ModelSpeedup float64
	// Imbalance is max rank load / mean rank load.
	Imbalance float64
	// EdgesPerSec is measured generation throughput.
	EdgesPerSec float64
}

// StrongScaling runs the fixed-problem-size sweep of Figure 5 for each
// scheme and rank count, measuring against the sequential copy model.
func StrongScaling(pr model.Params, kinds []partition.Kind, ps []int, seed uint64) ([]ScalingRow, error) {
	seqStart := time.Now()
	if _, _, err := seq.CopyModel(pr, seed, seq.CopyModelOptions{}); err != nil {
		return nil, err
	}
	seqElapsed := time.Since(seqStart)

	var rows []ScalingRow
	for _, kind := range kinds {
		for _, p := range ps {
			row, err := scalePoint(pr, kind, p, seed, seqElapsed)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// WeakScaling runs the fixed-work-per-rank sweep of Figure 6: for each
// rank count p, a network with edgesPerRank*p edges is generated (the
// paper uses 1e7 edges per processor).
func WeakScaling(edgesPerRank int64, x int, prob float64, kinds []partition.Kind, ps []int, seed uint64) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, kind := range kinds {
		for _, p := range ps {
			n := edgesPerRank*int64(p)/int64(x) + int64(x)
			pr := model.Params{N: n, X: x, P: prob}
			if err := pr.Validate(); err != nil {
				return nil, err
			}
			seqStart := time.Now()
			if _, _, err := seq.CopyModel(pr, seed, seq.CopyModelOptions{}); err != nil {
				return nil, err
			}
			seqElapsed := time.Since(seqStart)
			row, err := scalePoint(pr, kind, p, seed, seqElapsed)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func scalePoint(pr model.Params, kind partition.Kind, p int, seed uint64, seqElapsed time.Duration) (ScalingRow, error) {
	part, err := partition.New(kind, pr.N, p)
	if err != nil {
		return ScalingRow{}, err
	}
	// Figure 5 models the baseline message pattern: the hub-prefix cache
	// elides exactly the hub-request concentration that separates the
	// partition schemes, so the figure experiments pin it off.
	res, err := core.Run(core.Options{Params: pr, Part: part, Seed: seed, HubPrefix: -1}, false)
	if err != nil {
		return ScalingRow{}, err
	}
	rep, err := loadmodel.Analyze(pr, res.Ranks, loadmodel.Default)
	if err != nil {
		return ScalingRow{}, err
	}
	row := ScalingRow{
		Scheme:       kind.String(),
		P:            p,
		N:            pr.N,
		X:            pr.X,
		Elapsed:      res.Elapsed,
		SeqElapsed:   seqElapsed,
		ModelSpeedup: rep.Speedup,
		Imbalance:    rep.Imbalance,
		EdgesPerSec:  float64(res.Graph.M()) / res.Elapsed.Seconds(),
	}
	if res.Elapsed > 0 {
		row.WallSpeedup = seqElapsed.Seconds() / res.Elapsed.Seconds()
	}
	return row, nil
}

// WriteScaling prints scaling rows as a TSV table.
func WriteScaling(w io.Writer, rows []ScalingRow) error {
	if _, err := fmt.Fprintln(w, "scheme\tP\tn\tx\twall_ms\tseq_ms\twall_speedup\tmodel_speedup\timbalance\tedges_per_sec"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f\t%.1f\t%.2f\t%.2f\t%.3f\t%.3g\n",
			r.Scheme, r.P, r.N, r.X,
			float64(r.Elapsed.Microseconds())/1000, float64(r.SeqElapsed.Microseconds())/1000,
			r.WallSpeedup, r.ModelSpeedup, r.Imbalance, r.EdgesPerSec); err != nil {
			return err
		}
	}
	return nil
}

// Fig7Row is one rank's load measurements under one scheme (paper
// Figure 7 a-d: node, outgoing-message, incoming-message and total-load
// distributions for UCP/LCP/RRP).
type Fig7Row struct {
	Scheme   string
	Rank     int
	Nodes    int64
	Outgoing int64 // request messages sent
	Incoming int64 // request messages received
	Total    int64 // paper Section 4.6.3 measure
}

// Fig7 measures per-rank distributions for each scheme. The paper uses
// n=1e8, x=10, P=160; callers scale n to their budget.
func Fig7(pr model.Params, kinds []partition.Kind, p int, seed uint64) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, kind := range kinds {
		part, err := partition.New(kind, pr.N, p)
		if err != nil {
			return nil, err
		}
		// Per-rank load is a baseline-pattern measurement; pin the
		// hub-prefix cache off (see scalePoint).
		res, err := core.Run(core.Options{Params: pr, Part: part, Seed: seed, HubPrefix: -1}, false)
		if err != nil {
			return nil, err
		}
		for _, st := range res.Ranks {
			rows = append(rows, Fig7Row{
				Scheme:   kind.String(),
				Rank:     st.Rank,
				Nodes:    st.Nodes,
				Outgoing: st.Comm.RequestsSent,
				Incoming: st.Comm.RequestsRecv,
				Total:    st.TotalLoad(),
			})
		}
	}
	return rows, nil
}

// WriteFig7 prints Fig7 rows as a TSV table.
func WriteFig7(w io.Writer, rows []Fig7Row) error {
	if _, err := fmt.Fprintln(w, "scheme\trank\tnodes\toutgoing\tincoming\ttotal_load"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n",
			r.Scheme, r.Rank, r.Nodes, r.Outgoing, r.Incoming, r.Total); err != nil {
			return err
		}
	}
	return nil
}

// XRow is one point of the x-sweep experiment (the paper's setup varies
// x from 4 to 10, Section 4.1): how per-edge cost and traffic scale with
// the attachment count.
type XRow struct {
	X           int
	N           int64
	Edges       int64
	Elapsed     time.Duration
	EdgesPerSec float64
	// MsgsPerEdge is total request+resolved messages per generated edge.
	MsgsPerEdge float64
	// RetriesPerEdge is duplicate retries per edge (grows with x: more
	// slots per node to collide with).
	RetriesPerEdge float64
}

// XSweep measures generation behaviour across the paper's x range.
func XSweep(n int64, xs []int, prob float64, p int, seed uint64) ([]XRow, error) {
	var rows []XRow
	for _, x := range xs {
		pr := model.Params{N: n, X: x, P: prob}
		if err := pr.Validate(); err != nil {
			return nil, err
		}
		part, err := partition.New(partition.KindRRP, n, p)
		if err != nil {
			return nil, err
		}
		// Message counts are a baseline-pattern measurement; pin the
		// hub-prefix cache off (see scalePoint).
		res, err := core.Run(core.Options{Params: pr, Part: part, Seed: seed, HubPrefix: -1}, false)
		if err != nil {
			return nil, err
		}
		var msgs, retries int64
		for _, st := range res.Ranks {
			msgs += st.Comm.RequestsSent + st.Comm.ResolvedSent
			retries += st.Retries
		}
		m := res.Graph.M()
		rows = append(rows, XRow{
			X: x, N: n, Edges: m, Elapsed: res.Elapsed,
			EdgesPerSec:    float64(m) / res.Elapsed.Seconds(),
			MsgsPerEdge:    float64(msgs) / float64(m),
			RetriesPerEdge: float64(retries) / float64(m),
		})
	}
	return rows, nil
}

// WriteXSweep prints x-sweep rows as a TSV table.
func WriteXSweep(w io.Writer, rows []XRow) error {
	if _, err := fmt.Fprintln(w, "x\tn\tedges\twall_ms\tedges_per_sec\tmsgs_per_edge\tretries_per_edge"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%d\t%d\t%d\t%.1f\t%.3g\t%.3f\t%.5f\n",
			r.X, r.N, r.Edges, float64(r.Elapsed.Microseconds())/1000,
			r.EdgesPerSec, r.MsgsPerEdge, r.RetriesPerEdge); err != nil {
			return err
		}
	}
	return nil
}

// HeadlineResult reports the Section 4.5 large-network experiment:
// the paper generates 50B edges (n=1B, x=5) in 123 s on 768 processors;
// here the size is scaled to the host.
type HeadlineResult struct {
	N           int64
	X           int
	P           int
	Edges       int64
	Elapsed     time.Duration
	EdgesPerSec float64
}

// Headline generates the largest configured network with RRP (the scheme
// the paper uses for its record run) and reports throughput.
func Headline(pr model.Params, p int, seed uint64) (HeadlineResult, error) {
	part, err := partition.New(partition.KindRRP, pr.N, p)
	if err != nil {
		return HeadlineResult{}, err
	}
	res, err := core.Run(core.Options{Params: pr, Part: part, Seed: seed}, false)
	if err != nil {
		return HeadlineResult{}, err
	}
	return HeadlineResult{
		N: pr.N, X: pr.X, P: p,
		Edges:       res.Graph.M(),
		Elapsed:     res.Elapsed,
		EdgesPerSec: float64(res.Graph.M()) / res.Elapsed.Seconds(),
	}, nil
}

// ChainResult validates Theorem 3.3 empirically (dependency-chain
// lengths versus the log n bounds).
type ChainResult struct {
	N        int64
	Mean     float64
	Max      int32
	LogN     float64
	FiveLogN float64
}

// Chains runs the chain-length experiment on a sequential trace.
func Chains(pr model.Params, seed uint64) (ChainResult, error) {
	_, tr, err := seq.CopyModel(pr, seed, seq.CopyModelOptions{RecordTrace: true})
	if err != nil {
		return ChainResult{}, err
	}
	st := analysis.SummarizeChains(analysis.DependencyChainLengths(tr))
	ln := math.Log(float64(pr.N))
	return ChainResult{N: pr.N, Mean: st.Mean, Max: st.Max, LogN: ln, FiveLogN: 5 * ln}, nil
}

// AccuracyRow is one algorithm's fitted power-law exponent against the
// sequential reference: the exact parallel algorithm, or the
// Yoo-Henderson-style approximate baseline (the paper's reference [28])
// at one synchronisation interval.
type AccuracyRow struct {
	Algorithm    string
	SyncInterval int64 // 0 for the exact algorithm, which has none
	Gamma        float64
	GammaError   float64 // |Gamma - RefGamma|
	MaxDegree    int64
}

// AccuracyResult is the accuracy-versus-parallelism tradeoff the exact
// algorithm eliminates: the approximate baseline's error grows with its
// synchronisation interval, the exact algorithm has no such knob.
type AccuracyResult struct {
	N        int64
	X        int
	P        int
	RefGamma float64 // sequential Batagelj-Brandes, the exact BA reference
	Rows     []AccuracyRow
}

// Accuracy fits gamma (MLE, d >= 2x) to the exact parallel algorithm on
// p ranks and to the approximate baseline at sync intervals 16, 256,
// 4096 and n, each against a sequential Batagelj-Brandes reference.
func Accuracy(pr model.Params, p int, seed uint64) (AccuracyResult, error) {
	out := AccuracyResult{N: pr.N, X: pr.X, P: p}
	gamma := func(name string, g *graph.Graph) (float64, error) {
		fit, err := stats.PowerLawMLE(g.Degrees(), int64(2*pr.X))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		return fit.Gamma, nil
	}
	row := func(name string, interval int64, g *graph.Graph) error {
		gm, err := gamma(name, g)
		if err != nil {
			return err
		}
		maxD, _ := g.DegreeHistogram().Max()
		out.Rows = append(out.Rows, AccuracyRow{
			Algorithm: name, SyncInterval: interval, Gamma: gm,
			GammaError: math.Abs(gm - out.RefGamma), MaxDegree: maxD,
		})
		return nil
	}

	ref, err := seq.BatageljBrandes(pr, xrand.New(seed))
	if err != nil {
		return out, err
	}
	if out.RefGamma, err = gamma("reference", ref); err != nil {
		return out, err
	}

	part, err := partition.New(partition.KindRRP, pr.N, p)
	if err != nil {
		return out, err
	}
	res, err := core.Run(core.Options{Params: pr, Part: part, Seed: seed + 1}, false)
	if err != nil {
		return out, err
	}
	if err := row("exact (this paper)", 0, res.Graph); err != nil {
		return out, err
	}
	for _, interval := range []int64{16, 256, 4096, pr.N} {
		g, err := approx.Generate(pr, approx.Options{Ranks: p, SyncInterval: interval, Seed: seed + 2})
		if err != nil {
			return out, err
		}
		if err := row("approx [28]", interval, g); err != nil {
			return out, err
		}
	}
	return out, nil
}

// WriteAccuracy prints an accuracy comparison as a commented TSV table.
func WriteAccuracy(w io.Writer, res AccuracyResult) error {
	if _, err := fmt.Fprintf(w, "# exact vs approximate distributed PA (n=%d, x=%d, ranks=%d)\n"+
		"# reference sequential BA gamma = %.3f\n"+
		"algorithm\tsync_interval\tgamma\tgamma_error\tmax_degree\n",
		res.N, res.X, res.P, res.RefGamma); err != nil {
		return err
	}
	for _, r := range res.Rows {
		interval := "-"
		if r.SyncInterval > 0 {
			interval = fmt.Sprint(r.SyncInterval)
		}
		if _, err := fmt.Fprintf(w, "%s\t%s\t%.3f\t%.3f\t%d\n",
			r.Algorithm, interval, r.Gamma, r.GammaError, r.MaxDegree); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "# exact needs no tuning; approx error grows with the interval")
	return err
}
