package stats

import (
	"errors"
	"math"
	"sort"
)

// LinearFit is the result of an ordinary least-squares line fit
// y = Slope*x + Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64 // coefficient of determination
	N         int     // points used
}

// ErrTooFewPoints is returned when a fit has fewer than two usable points.
var ErrTooFewPoints = errors.New("stats: too few points for fit")

// LeastSquares fits y = a*x + b by ordinary least squares.
func LeastSquares(xs, ys []float64) (LinearFit, error) {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n < 2 {
		return LinearFit{}, ErrTooFewPoints
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: degenerate x values")
	}
	slope := sxy / sxx
	fit := LinearFit{
		Slope:     slope,
		Intercept: my - slope*mx,
		N:         n,
	}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1 // all y identical and fitted exactly
	}
	return fit, nil
}

// LogLogFit fits y = c * x^slope by least squares in log-log space,
// skipping non-positive points. The returned Slope is the power-law
// exponent of the fitted relation.
func LogLogFit(xs, ys []float64) (LinearFit, error) {
	lx := make([]float64, 0, len(xs))
	ly := make([]float64, 0, len(ys))
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	for i := 0; i < n; i++ {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	return LeastSquares(lx, ly)
}

// PowerLawFit is the result of a maximum-likelihood power-law fit
// P(d) ~ d^-Gamma for d >= DMin.
type PowerLawFit struct {
	Gamma float64 // estimated exponent
	DMin  int64   // lower cutoff used
	N     int64   // samples at or above DMin
	KS    float64 // Kolmogorov–Smirnov distance of fit vs empirical CCDF
}

// PowerLawMLE estimates the exponent gamma of a discrete power-law tail by
// the continuous-approximation maximum-likelihood estimator of Clauset,
// Shalizi & Newman:
//
//	gamma = 1 + n / sum_i ln(d_i / (dmin - 1/2))
//
// using only samples d_i >= dmin. The estimator is the standard tool for
// validating that a generated network's degree distribution is power-law,
// as the paper does for Figure 4 (reporting gamma ≈ 2.7 at x = 4).
func PowerLawMLE(degrees []int64, dmin int64) (PowerLawFit, error) {
	if dmin < 1 {
		dmin = 1
	}
	var n int64
	var sum float64
	shift := float64(dmin) - 0.5
	for _, d := range degrees {
		if d >= dmin {
			n++
			sum += math.Log(float64(d) / shift)
		}
	}
	if n < 2 || sum <= 0 {
		return PowerLawFit{}, ErrTooFewPoints
	}
	fit := PowerLawFit{
		Gamma: 1 + float64(n)/sum,
		DMin:  dmin,
		N:     n,
	}
	fit.KS = powerLawKS(degrees, fit.Gamma, dmin)
	return fit, nil
}

// powerLawKS computes the KS distance between the empirical CCDF of the
// tail (d >= dmin) and the fitted discrete power-law CCDF in the
// continuous approximation of Clauset et al.:
//
//	Pr{D >= d} = ((d - 1/2) / (dmin - 1/2))^{-(gamma-1)}
//
// which equals 1 at d = dmin, matching the empirical tail exactly there.
func powerLawKS(degrees []int64, gamma float64, dmin int64) float64 {
	tail := make([]int64, 0, len(degrees))
	for _, d := range degrees {
		if d >= dmin {
			tail = append(tail, d)
		}
	}
	if len(tail) == 0 {
		return math.NaN()
	}
	sort.Slice(tail, func(i, j int) bool { return tail[i] < tail[j] })
	n := float64(len(tail))
	shift := float64(dmin) - 0.5
	maxD := 0.0
	for i := 0; i < len(tail); {
		d := tail[i]
		j := i
		for j < len(tail) && tail[j] == d {
			j++
		}
		// Empirical Pr{D >= d} counts samples from index i on.
		emp := 1 - float64(i)/n
		model := math.Pow((float64(d)-0.5)/shift, -(gamma - 1))
		if diff := math.Abs(emp - model); diff > maxD {
			maxD = diff
		}
		// Also compare just above this value (empirical drops to j).
		empAbove := 1 - float64(j)/n
		modelAbove := math.Pow((float64(d)+0.5)/shift, -(gamma - 1))
		if diff := math.Abs(empAbove - modelAbove); diff > maxD {
			maxD = diff
		}
		i = j
	}
	return maxD
}

// SamplePowerLaw draws n samples from a discrete power law with exponent
// gamma and minimum value dmin using the continuous approximation of
// Clauset, Shalizi & Newman (Appendix D):
//
//	d = floor((dmin - 1/2) * (1-u)^{-1/(gamma-1)} + 1/2)
//
// which pairs exactly with the shifted MLE in PowerLawMLE. rng must return
// uniforms in [0,1). Used by tests to validate the estimator itself.
func SamplePowerLaw(n int, gamma float64, dmin int64, rng func() float64) []int64 {
	out := make([]int64, n)
	exp := -1 / (gamma - 1)
	shift := float64(dmin) - 0.5
	for i := range out {
		u := rng()
		v := shift*math.Pow(1-u, exp) + 0.5
		out[i] = int64(v)
		if out[i] < dmin {
			out[i] = dmin
		}
	}
	return out
}
