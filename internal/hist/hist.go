// Package hist provides integer-valued histograms, complementary
// cumulative distributions and logarithmic binning. These are the tools
// used to reproduce the paper's Figure 4 (degree distribution in log-log
// scale) and to summarise per-processor load distributions (Figure 7).
package hist

import (
	"math"
	"sort"
)

// Int counts occurrences of non-negative int64 values. The zero value is
// ready to use.
type Int struct {
	counts map[int64]int64
	total  int64
}

// NewInt returns an empty histogram.
func NewInt() *Int {
	return &Int{counts: make(map[int64]int64)}
}

// Add increments the count of v by 1.
func (h *Int) Add(v int64) { h.AddN(v, 1) }

// AddN increments the count of v by n.
func (h *Int) AddN(v, n int64) {
	if h.counts == nil {
		h.counts = make(map[int64]int64)
	}
	h.counts[v] += n
	h.total += n
}

// Count returns the number of occurrences of v.
func (h *Int) Count(v int64) int64 { return h.counts[v] }

// Total returns the number of samples added.
func (h *Int) Total() int64 { return h.total }

// Values returns the observed values in increasing order.
func (h *Int) Values() []int64 {
	vs := make([]int64, 0, len(h.counts))
	for v := range h.counts {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// Min returns the smallest observed value; ok is false if empty.
func (h *Int) Min() (v int64, ok bool) {
	first := true
	for x := range h.counts {
		if first || x < v {
			v = x
			first = false
		}
	}
	return v, !first
}

// Max returns the largest observed value; ok is false if empty.
func (h *Int) Max() (v int64, ok bool) {
	first := true
	for x := range h.counts {
		if first || x > v {
			v = x
			first = false
		}
	}
	return v, !first
}

// Mean returns the sample mean (0 if empty).
func (h *Int) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var s float64
	for v, c := range h.counts {
		s += float64(v) * float64(c)
	}
	return s / float64(h.total)
}

// PMF returns parallel slices (value, probability) in increasing value
// order: probability = count/total.
func (h *Int) PMF() (values []int64, probs []float64) {
	values = h.Values()
	probs = make([]float64, len(values))
	for i, v := range values {
		probs[i] = float64(h.counts[v]) / float64(h.total)
	}
	return values, probs
}

// CCDF returns parallel slices (value, Pr{X >= value}) in increasing value
// order.
func (h *Int) CCDF() (values []int64, ccdf []float64) {
	values = h.Values()
	ccdf = make([]float64, len(values))
	remaining := h.total
	for i, v := range values {
		ccdf[i] = float64(remaining) / float64(h.total)
		remaining -= h.counts[v]
	}
	return values, ccdf
}

// Samples expands the histogram back into a flat slice of samples (in
// increasing value order). Intended for handing to estimators that take
// raw samples; costs Total() memory.
func (h *Int) Samples() []int64 {
	out := make([]int64, 0, h.total)
	for _, v := range h.Values() {
		for i := int64(0); i < h.counts[v]; i++ {
			out = append(out, v)
		}
	}
	return out
}

// Merge adds all counts from other into h.
func (h *Int) Merge(other *Int) {
	for v, c := range other.counts {
		h.AddN(v, c)
	}
}

// LogBin is one logarithmic bin: values in [Lo, Hi) with total Count and
// count density (count per unit value) Density, centred at Center
// (geometric mean of the bin edges).
type LogBin struct {
	Lo, Hi  int64
	Center  float64
	Count   int64
	Density float64
}

// LogBins groups the histogram into bins whose widths grow geometrically
// by factor base (> 1), starting at the smallest positive observed value.
// Log binning removes the noisy tail of raw log-log degree plots — it is
// the standard presentation for Figure-4-style plots.
func (h *Int) LogBins(base float64) []LogBin {
	if base <= 1 {
		panic("hist: LogBins base must be > 1")
	}
	var minPos int64 = -1
	maxV := int64(0)
	for v := range h.counts {
		if v > 0 && (minPos == -1 || v < minPos) {
			minPos = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if minPos == -1 {
		return nil
	}
	var bins []LogBin
	lo := minPos
	loF := float64(minPos)
	for lo <= maxV {
		loF *= base
		hi := int64(math.Ceil(loF))
		if hi <= lo {
			hi = lo + 1
		}
		bins = append(bins, LogBin{Lo: lo, Hi: hi})
		lo = hi
	}
	for v, c := range h.counts {
		if v <= 0 {
			continue
		}
		idx := sort.Search(len(bins), func(i int) bool { return bins[i].Hi > v })
		bins[idx].Count += c
	}
	out := bins[:0]
	for _, b := range bins {
		if b.Count == 0 {
			continue
		}
		width := float64(b.Hi - b.Lo)
		b.Center = math.Sqrt(float64(b.Lo) * float64(b.Hi-1))
		if b.Hi-1 == b.Lo {
			b.Center = float64(b.Lo)
		}
		b.Density = float64(b.Count) / width
		out = append(out, b)
	}
	return out
}
