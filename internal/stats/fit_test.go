package stats

import (
	"math"
	"testing"

	"pagen/internal/xrand"
)

func TestLeastSquaresExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2*x - 3
	}
	fit, err := LeastSquares(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept+3) > 1e-12 {
		t.Fatalf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
}

func TestLeastSquaresNoisy(t *testing.T) {
	rng := xrand.New(4)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 0.7*xs[i] + 10 + (rng.Float64()-0.5)*2
	}
	fit, err := LeastSquares(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-0.7) > 0.01 {
		t.Fatalf("slope = %v, want ~0.7", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R2 = %v too low", fit.R2)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares([]float64{1}, []float64{1}); err == nil {
		t.Error("single point did not error")
	}
	if _, err := LeastSquares([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x did not error")
	}
}

func TestLeastSquaresConstantY(t *testing.T) {
	fit, err := LeastSquares([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.Intercept != 5 || fit.R2 != 1 {
		t.Fatalf("constant-y fit = %+v", fit)
	}
}

func TestLogLogFitPowerLaw(t *testing.T) {
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		x := float64(i + 1)
		xs[i] = x
		ys[i] = 3 * math.Pow(x, -2.5)
	}
	fit, err := LogLogFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope+2.5) > 1e-9 {
		t.Fatalf("loglog slope = %v, want -2.5", fit.Slope)
	}
	if math.Abs(math.Exp(fit.Intercept)-3) > 1e-9 {
		t.Fatalf("prefactor = %v, want 3", math.Exp(fit.Intercept))
	}
}

func TestLogLogFitSkipsNonPositive(t *testing.T) {
	xs := []float64{0, -1, 1, 2, 4}
	ys := []float64{9, 9, 1, 2, 4}
	fit, err := LogLogFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.N != 3 {
		t.Fatalf("used %d points, want 3", fit.N)
	}
	if math.Abs(fit.Slope-1) > 1e-12 {
		t.Fatalf("slope = %v, want 1", fit.Slope)
	}
}

func TestPowerLawMLERecoversExponent(t *testing.T) {
	rng := xrand.New(8)
	for _, gamma := range []float64{2.1, 2.5, 3.0} {
		samples := SamplePowerLaw(200000, gamma, 4, rng.Float64)
		fit, err := PowerLawMLE(samples, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Discretisation of the continuous sampler biases the estimate
		// slightly; 0.1 absolute tolerance is ample to catch regressions.
		if math.Abs(fit.Gamma-gamma) > 0.1 {
			t.Errorf("gamma estimate %v for true %v", fit.Gamma, gamma)
		}
		if fit.KS > 0.05 {
			t.Errorf("KS = %v too large for true power law", fit.KS)
		}
		if fit.N == 0 || fit.DMin != 4 {
			t.Errorf("fit metadata wrong: %+v", fit)
		}
	}
}

func TestPowerLawMLEFiltersBelowDMin(t *testing.T) {
	degrees := []int64{1, 1, 1, 1, 10, 20, 40}
	fit, err := PowerLawMLE(degrees, 10)
	if err != nil {
		t.Fatal(err)
	}
	if fit.N != 3 {
		t.Fatalf("N = %d, want 3", fit.N)
	}
}

func TestPowerLawMLEErrors(t *testing.T) {
	if _, err := PowerLawMLE([]int64{5}, 1); err == nil {
		t.Error("single sample did not error")
	}
	if _, err := PowerLawMLE([]int64{1, 1, 1}, 10); err == nil {
		t.Error("empty tail did not error")
	}
}

func TestPowerLawMLEClampsDMin(t *testing.T) {
	degrees := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	a, err := PowerLawMLE(degrees, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PowerLawMLE(degrees, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("dmin=0 not clamped to 1: %+v vs %+v", a, b)
	}
}

func TestPowerLawKSDetectsNonPowerLaw(t *testing.T) {
	// Uniform degrees are far from any power law: KS should be large
	// relative to the power-law case.
	degrees := make([]int64, 5000)
	rng := xrand.New(3)
	for i := range degrees {
		degrees[i] = 10 + rng.Int64n(90)
	}
	fit, err := PowerLawMLE(degrees, 10)
	if err != nil {
		t.Fatal(err)
	}
	if fit.KS < 0.1 {
		t.Fatalf("KS = %v suspiciously small for uniform data", fit.KS)
	}
}

func TestSamplePowerLawRespectsDMin(t *testing.T) {
	rng := xrand.New(2)
	for _, s := range SamplePowerLaw(10000, 2.5, 3, rng.Float64) {
		if s < 3 {
			t.Fatalf("sample %d below dmin", s)
		}
	}
}
