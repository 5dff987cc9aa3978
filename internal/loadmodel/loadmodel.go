// Package loadmodel turns per-rank load statistics into predicted
// speedups. The paper measures per-processor computational load as
// "the sum of the number of nodes in the processor and the number of
// incoming and outgoing messages" (Section 4.6.3); on hardware, runtime
// is proportional to the maximum per-rank load (the makespan), so
//
//	predicted speedup(P) = sequential cost / makespan(P)
//
// reproduces the relative behaviour of UCP/LCP/RRP in Figures 5 and 6
// independently of how many physical cores execute the simulation — the
// substitution DESIGN.md documents for this container's single core.
//
// The same makespan is the job-length scale in the pa-serve control
// plane's admission analysis (DESIGN.md §14.2): under FIFO admission a
// job waits at most for the jobs admitted ahead of it to drain, so the
// queue-wait bound is a sum of their makespans.
package loadmodel

import (
	"fmt"

	"pagen/internal/core"
	"pagen/internal/model"
)

// Weights are the per-unit costs of the load model: one unit per edge
// placed (the constant per-attachment work the paper's constant c
// stands for) and one unit per message sent and received (the paper's
// simplifying assumption i in Section 3.5.1).
type Weights struct {
	Edge float64
	Send float64
	Recv float64
}

// Default weighs attachment work and messages equally, matching the
// paper's Section 4.6.3 load measure.
var Default = Weights{Edge: 1, Send: 1, Recv: 1}

// RankLoads computes the modelled load of every rank from its stats.
func RankLoads(stats []core.RankStats, w Weights) []float64 {
	loads := make([]float64, len(stats))
	for i, st := range stats {
		sent := float64(st.Comm.RequestsSent + st.Comm.ResolvedSent)
		recv := float64(st.Comm.RequestsRecv + st.Comm.ResolvedRecv)
		loads[i] = w.Edge*float64(st.Edges) + w.Send*sent + w.Recv*recv
	}
	return loads
}

// Makespan returns the maximum rank load — the model's parallel runtime.
func Makespan(loads []float64) float64 {
	max := 0.0
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}

// SequentialCost returns the modelled cost of the sequential copy model:
// every edge placed once, no messages.
func SequentialCost(pr model.Params, w Weights) float64 {
	return w.Edge * float64(pr.M())
}

// Report is the modelled scaling summary of one parallel run.
type Report struct {
	P          int
	Makespan   float64
	Total      float64 // sum of rank loads
	Imbalance  float64 // makespan / (total/P); 1.0 = perfect
	Speedup    float64 // sequential cost / makespan
	Efficiency float64 // speedup / P
}

// Analyze builds a Report from per-rank stats.
func Analyze(pr model.Params, stats []core.RankStats, w Weights) (Report, error) {
	if len(stats) == 0 {
		return Report{}, fmt.Errorf("loadmodel: no rank stats")
	}
	loads := RankLoads(stats, w)
	mk := Makespan(loads)
	total := 0.0
	for _, l := range loads {
		total += l
	}
	r := Report{
		P:        len(stats),
		Makespan: mk,
		Total:    total,
	}
	if mk > 0 {
		r.Imbalance = mk / (total / float64(len(stats)))
		r.Speedup = SequentialCost(pr, w) / mk
		r.Efficiency = r.Speedup / float64(len(stats))
	}
	return r, nil
}
