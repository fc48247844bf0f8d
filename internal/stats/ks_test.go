package stats

import (
	"math"
	"testing"
)

func TestKSStatisticIdenticalSamples(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if d := KSStatistic(xs, xs); d != 0 {
		t.Errorf("KS of identical samples = %v, want 0", d)
	}
}

func TestKSStatisticDisjointSamples(t *testing.T) {
	xs := []float64{1, 2, 3}
	ys := []float64{10, 11, 12}
	if d := KSStatistic(xs, ys); math.Abs(d-1) > 1e-12 {
		t.Errorf("KS of disjoint samples = %v, want 1", d)
	}
}

func TestKSStatisticEmptyNaN(t *testing.T) {
	if !math.IsNaN(KSStatistic(nil, []float64{1})) {
		t.Error("empty sample should give NaN")
	}
}

func TestKSSameDistributionPassesCritical(t *testing.T) {
	r := NewRNG(1)
	const n = 5000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Normal(3, 2)
		ys[i] = r.Normal(3, 2)
	}
	d := KSStatistic(xs, ys)
	crit := KSCritical(n, n, 0.001)
	if d > crit {
		t.Errorf("same-distribution KS %.4f exceeds critical %.4f", d, crit)
	}
}

func TestKSDifferentDistributionsFailCritical(t *testing.T) {
	r := NewRNG(2)
	const n = 5000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Normal(0, 1)
		ys[i] = r.Normal(0.3, 1) // shifted mean
	}
	d := KSStatistic(xs, ys)
	crit := KSCritical(n, n, 0.001)
	if d <= crit {
		t.Errorf("shifted distributions KS %.4f below critical %.4f", d, crit)
	}
}

func TestKSCriticalShapes(t *testing.T) {
	if !math.IsNaN(KSCritical(0, 5, 0.05)) {
		t.Error("n=0 should give NaN")
	}
	// Critical value shrinks with sample size.
	if KSCritical(100, 100, 0.05) <= KSCritical(10000, 10000, 0.05) {
		t.Error("critical value should shrink with n")
	}
	// And grows as alpha tightens.
	if KSCritical(100, 100, 0.001) <= KSCritical(100, 100, 0.05) {
		t.Error("critical value should grow as alpha shrinks")
	}
}

func TestKSAgainstCDFUniform(t *testing.T) {
	r := NewRNG(3)
	const n = 10000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
	}
	d := KSAgainstCDF(xs, func(x float64) float64 {
		switch {
		case x < 0:
			return 0
		case x > 1:
			return 1
		default:
			return x
		}
	})
	// One-sample critical value at alpha=0.001 ≈ 1.95/sqrt(n).
	if d > 1.95/math.Sqrt(n) {
		t.Errorf("uniform sample KS %.4f too large", d)
	}
	if !math.IsNaN(KSAgainstCDF(nil, func(float64) float64 { return 0 })) {
		t.Error("empty sample should give NaN")
	}
}

func TestKSAgainstCDFDetectsMismatch(t *testing.T) {
	r := NewRNG(4)
	const n = 10000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(0.2, 1)
	}
	d := KSAgainstCDF(xs, StdNormalCDF) // wrong mean
	if d < 0.05 {
		t.Errorf("mismatched CDF KS %.4f suspiciously small", d)
	}
}

func TestKSCriticalOneSampleIsTwoSampleLimit(t *testing.T) {
	if !math.IsNaN(KSCriticalOneSample(0, 0.001)) {
		t.Error("n=0 should give NaN")
	}
	// 1.9495/sqrt(n) at alpha=0.001.
	if got := KSCriticalOneSample(200000, 0.001); math.Abs(got-0.004359) > 1e-6 {
		t.Errorf("one-sample critical at n=2e5: %.6f, want 0.004359", got)
	}
	one := KSCriticalOneSample(1000, 0.01)
	two := KSCritical(1000, 1<<40, 0.01)
	if math.Abs(one-two) > 1e-9 {
		t.Errorf("one-sample %.9f is not the two-sample limit %.9f", one, two)
	}
}
