package stats

import (
	"math"
	"sort"
)

// KSStatistic returns the two-sample Kolmogorov–Smirnov statistic: the
// maximum absolute difference between the empirical CDFs of xs and ys.
// Used by the model-validation tests to compare Monte Carlo output
// against reference distributions without binning choices.
func KSStatistic(xs, ys []float64) float64 {
	if len(xs) == 0 || len(ys) == 0 {
		return math.NaN()
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)
	var d float64
	i, j := 0, 0
	na, nb := float64(len(a)), float64(len(b))
	for i < len(a) && j < len(b) {
		// Advance both ECDFs past the next value, consuming ties on both
		// sides, then measure — evaluating mid-tie would report spurious
		// differences for identical samples.
		x := a[i]
		if b[j] < x {
			x = b[j]
		}
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		diff := math.Abs(float64(i)/na - float64(j)/nb)
		if diff > d {
			d = diff
		}
	}
	return d
}

// KSCritical returns the approximate critical value of the two-sample KS
// statistic at significance alpha (two-sided, large-sample formula):
// c(α)·sqrt((n+m)/(n·m)) with c from the asymptotic Kolmogorov
// distribution. Supported alphas: 0.10, 0.05, 0.01, 0.001; other values
// fall back to the direct formula c(α) = sqrt(-ln(α/2)/2).
func KSCritical(n, m int, alpha float64) float64 {
	if n < 1 || m < 1 {
		return math.NaN()
	}
	c := math.Sqrt(-math.Log(alpha/2) / 2)
	return c * math.Sqrt(float64(n+m)/float64(n*m))
}

// KSCriticalOneSample returns the approximate critical value of the
// one-sample KS statistic over n draws at significance alpha (two-sided,
// large-sample formula): c(α)/sqrt(n), the m → ∞ limit of KSCritical.
func KSCriticalOneSample(n int, alpha float64) float64 {
	if n < 1 {
		return math.NaN()
	}
	return math.Sqrt(-math.Log(alpha/2)/2) / math.Sqrt(float64(n))
}

// KSAgainstCDF returns the one-sample KS statistic of xs against the
// continuous reference CDF.
func KSAgainstCDF(xs []float64, cdf func(float64) float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	a := append([]float64(nil), xs...)
	sort.Float64s(a)
	n := float64(len(a))
	var d float64
	for i, x := range a {
		f := cdf(x)
		lo := math.Abs(f - float64(i)/n)
		hi := math.Abs(float64(i+1)/n - f)
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	return d
}
