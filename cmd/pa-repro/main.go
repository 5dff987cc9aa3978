// Command pa-repro regenerates the paper's evaluation, one step per
// artefact, writing each step's TSV/text (and SVG plot, for figures)
// into the -out directory at sizes scaled by -scale. It is the only
// producer of the files in results/ other than LOADTEST_pa_serve.json.
//
// Usage:
//
//	pa-repro [-out results] [-scale 1.0] [-seed 1] [step ...]
//
// Steps, run in this order (no names = all):
//
//	fig3      exact Eqn-10 partition vs the LCP linear approximation
//	fig4      degree distribution and fitted power-law exponent
//	fig5      strong scaling, UCP/LCP/RRP (wall and load-model speedup)
//	fig6      weak scaling
//	headline  Section 4.5 largest-network throughput (RRP)
//	fig7      per-processor node/message/total load distributions
//	chains    Theorem 3.3 dependency-chain lengths vs the ln n bounds
//	accuracy  exact algorithm vs the approximate baseline [28]
//	xsweep    cost and traffic across the paper's x = 4..10
//
// An unknown step name is an error before anything runs; a failing step
// removes its partial output.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pagen/internal/bench"
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/svgplot"
)

var kinds = []partition.Kind{partition.KindUCP, partition.KindLCP, partition.KindRRP}

// env is what a step needs from the command line.
type env struct {
	seed  uint64
	scale float64
}

// sz scales a step's base node count by -scale (floor 1000).
func (e env) sz(base int64) int64 {
	return max(int64(float64(base)*e.scale), 1000)
}

// step is one artefact of the evaluation. run writes the data file to w
// and returns the figure to plot beside it (nil for text-only steps).
type step struct {
	name  string
	title string
	data  string // data file name; a returned plot goes to name.svg
	run   func(e env, w io.Writer) (*svgplot.Plot, error)
}

var steps = []step{
	{"fig3", "Figure 3 (LCP solver)", "fig3.tsv", fig3},
	{"fig4", "Figure 4 (degree distribution)", "fig4.tsv", fig4},
	{"fig5", "Figure 5 (strong scaling)", "fig5.tsv", fig5},
	{"fig6", "Figure 6 (weak scaling)", "fig6.tsv", fig6},
	{"headline", "Section 4.5 (headline)", "headline.txt", headline},
	{"fig7", "Figure 7 (load distributions)", "fig7.tsv", fig7},
	{"chains", "Theorem 3.3 (dependency chains)", "chains.txt", chains},
	{"accuracy", "Exact vs approximate [28]", "accuracy.tsv", accuracy},
	{"xsweep", "x sweep (Section 4.1)", "xsweep.tsv", xsweep},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "pa-repro:", err)
		os.Exit(1)
	}
}

// run parses args, validates the step selection and runs it, reporting
// progress on stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pa-repro", flag.ContinueOnError)
	var (
		out   = fs.String("out", "results", "output directory")
		scale = fs.Float64("scale", 1.0, "size multiplier for every experiment")
		seed  = fs.Uint64("seed", 1, "random seed")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: pa-repro [flags] [%s]\n", stepNames())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	selected, err := selectSteps(fs.Args())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	e := env{seed: *seed, scale: *scale}
	start := time.Now()
	for _, s := range selected {
		fmt.Fprintf(stdout, "%-36s -> %s\n", s.title, s.data)
		if err := runStep(s, e, *out); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	fmt.Fprintf(stdout, "%d of %d steps regenerated into %s in %v\n",
		len(selected), len(steps), *out, time.Since(start).Round(time.Millisecond))
	return nil
}

func stepNames() string {
	names := make([]string, len(steps))
	for i, s := range steps {
		names[i] = s.name
	}
	return strings.Join(names, " ")
}

// selectSteps maps positional names to steps, in the canonical order; no
// names selects every step.
func selectSteps(names []string) ([]step, error) {
	if len(names) == 0 {
		return steps, nil
	}
	known := map[string]bool{}
	for _, s := range steps {
		known[s.name] = true
	}
	want := map[string]bool{}
	for _, n := range names {
		if !known[n] {
			return nil, fmt.Errorf("unknown step %q (valid: %s)", n, stepNames())
		}
		want[n] = true
	}
	var sel []step
	for _, s := range steps {
		if want[s.name] {
			sel = append(sel, s)
		}
	}
	return sel, nil
}

// runStep runs s into dir. On any failure the step's files are removed,
// so a truncated TSV is never left beside good ones.
func runStep(s step, e env, dir string) error {
	data := filepath.Join(dir, s.data)
	svg := filepath.Join(dir, s.name+".svg")
	var p *svgplot.Plot
	err := writeFile(data, func(w io.Writer) (err error) {
		p, err = s.run(e, w)
		return err
	})
	if err == nil && p != nil {
		err = writeFile(svg, p.Render)
	}
	if err != nil {
		os.Remove(data)
		os.Remove(svg)
	}
	return err
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fig3(e env, w io.Writer) (*svgplot.Plot, error) {
	rows := bench.Fig3(e.sz(1_000_000), 160, partition.DefaultB)
	exact := svgplot.Series{Name: "exact Eqn 10"}
	linear := svgplot.Series{Name: "LCP linear"}
	for _, r := range rows {
		exact.X = append(exact.X, float64(r.Rank))
		exact.Y = append(exact.Y, float64(r.ExactSz))
		linear.X = append(linear.X, float64(r.Rank))
		linear.Y = append(linear.Y, float64(r.LinearSz))
	}
	return &svgplot.Plot{
		Title: "Figure 3: nodes per processor", XLabel: "processor rank", YLabel: "nodes",
		Series: []svgplot.Series{exact, linear},
	}, bench.WriteFig3(w, rows)
}

func fig4(e env, w io.Writer) (*svgplot.Plot, error) {
	res, err := bench.Fig4(model.Params{N: e.sz(1_000_000), X: 4, P: 0.5}, partition.KindRRP, 8, e.seed)
	if err != nil {
		return nil, err
	}
	rep := res.Report
	s := svgplot.Series{Name: "P(degree)"}
	for _, b := range rep.DegreeHistogram.LogBins(1.5) {
		s.X = append(s.X, b.Center)
		s.Y = append(s.Y, b.Density/float64(rep.DegreeHistogram.Total()))
	}
	if _, err := fmt.Fprintf(w, "# gamma=%.3f KS=%.4f loglog_slope=%.3f R2=%.4f\n",
		rep.Gamma, rep.GammaKS, rep.LogLogSlope, rep.LogLogR2); err != nil {
		return nil, err
	}
	return &svgplot.Plot{
		Title:  fmt.Sprintf("Figure 4: degree distribution (gamma=%.2f)", rep.Gamma),
		XLabel: "degree", YLabel: "probability",
		LogX: true, LogY: true, Markers: true,
		Series: []svgplot.Series{s},
	}, rep.WriteDistributionTSV(w)
}

func fig5(e env, w io.Writer) (*svgplot.Plot, error) {
	rows, err := bench.StrongScaling(model.Params{N: e.sz(1_000_000), X: 6, P: 0.5},
		kinds, []int{1, 2, 4, 8, 16, 32, 64, 128}, e.seed)
	if err != nil {
		return nil, err
	}
	p := &svgplot.Plot{Title: "Figure 5: strong scaling (model speedup)",
		XLabel: "processors", YLabel: "speedup", Markers: true}
	for _, r := range rows {
		addPoint(p, r.Scheme, float64(r.P), r.ModelSpeedup)
	}
	return p, bench.WriteScaling(w, rows)
}

func fig6(e env, w io.Writer) (*svgplot.Plot, error) {
	rows, err := bench.WeakScaling(e.sz(200_000), 6, 0.5, kinds, []int{2, 4, 8, 16, 32}, e.seed)
	if err != nil {
		return nil, err
	}
	p := &svgplot.Plot{Title: "Figure 6: weak scaling (model efficiency)",
		XLabel: "processors", YLabel: "efficiency", Markers: true}
	for _, r := range rows {
		addPoint(p, r.Scheme, float64(r.P), r.ModelSpeedup/float64(r.P))
	}
	return p, bench.WriteScaling(w, rows)
}

func headline(e env, w io.Writer) (*svgplot.Plot, error) {
	res, err := bench.Headline(model.Params{N: e.sz(2_000_000), X: 5, P: 0.5}, 8, e.seed)
	if err != nil {
		return nil, err
	}
	_, err = fmt.Fprintf(w, "n=%d x=%d ranks=%d edges=%d elapsed=%v edges_per_sec=%.4g\n",
		res.N, res.X, res.P, res.Edges, res.Elapsed, res.EdgesPerSec)
	return nil, err
}

func fig7(e env, w io.Writer) (*svgplot.Plot, error) {
	rows, err := bench.Fig7(model.Params{N: e.sz(100_000), X: 10, P: 0.5}, kinds, 160, e.seed)
	if err != nil {
		return nil, err
	}
	p := &svgplot.Plot{Title: "Figure 7d: total load per processor",
		XLabel: "processor rank", YLabel: "total load"}
	for _, r := range rows {
		addPoint(p, r.Scheme, float64(r.Rank), float64(r.Total))
	}
	return p, bench.WriteFig7(w, rows)
}

func chains(e env, w io.Writer) (*svgplot.Plot, error) {
	res, err := bench.Chains(model.Params{N: e.sz(1_000_000), X: 1, P: 0.5}, e.seed)
	if err != nil {
		return nil, err
	}
	_, err = fmt.Fprintf(w, "n=%d mean=%.4f max=%d ln_n=%.2f 5ln_n=%.2f\n",
		res.N, res.Mean, res.Max, res.LogN, res.FiveLogN)
	return nil, err
}

func accuracy(e env, w io.Writer) (*svgplot.Plot, error) {
	res, err := bench.Accuracy(model.Params{N: e.sz(50_000), X: 4, P: 0.5}, 8, e.seed)
	if err != nil {
		return nil, err
	}
	return nil, bench.WriteAccuracy(w, res)
}

func xsweep(e env, w io.Writer) (*svgplot.Plot, error) {
	n := e.sz(200_000)
	rows, err := bench.XSweep(n, []int{4, 6, 8, 10}, 0.5, 8, e.seed)
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintf(w, "# x sweep (n=%d, RRP, 8 ranks)\n", n); err != nil {
		return nil, err
	}
	return nil, bench.WriteXSweep(w, rows)
}

// addPoint appends (x, y) to the series called name, creating it on
// first use, so rows grouped by scheme plot as one line per scheme.
func addPoint(p *svgplot.Plot, name string, x, y float64) {
	for i := range p.Series {
		if p.Series[i].Name == name {
			p.Series[i].X = append(p.Series[i].X, x)
			p.Series[i].Y = append(p.Series[i].Y, y)
			return
		}
	}
	p.Series = append(p.Series, svgplot.Series{Name: name, X: []float64{x}, Y: []float64{y}})
}
