package stats

import (
	"math"
	"testing"
)

// The statistical contract of the exponential generator. Every drift
// error in the simulator is placed by exponential spacings, so a change
// to how Exponential turns uniform bits into a variate moves every
// golden digest; these tests decide whether the new bits still follow
// Exp(rate). Each runs at a fixed seed and a fixed sample size with no
// slack term.

// expTailFrom is the base of the 256-layer exponential ziggurat's tail
// strip (Marsaglia and Tsang, 2000). Draws beyond it come from a
// separate code path in a ziggurat generator, so the contract tests
// them on their own.
const expTailFrom = 7.69711747013104972

// TestExponentialMatchesCDF KS-tests 1e6 Exp(1) draws against 1 − e^{−x}
// at α = 0.001, and a second, independent stream at rate 4 scaled back
// to unit rate.
func TestExponentialMatchesCDF(t *testing.T) {
	const (
		n     = 1000000
		alpha = 0.001
	)
	cdf := func(x float64) float64 { return -math.Expm1(-x) }
	for i, rate := range []float64{1, 4} {
		r := NewRNG(31 + uint64(i))
		xs := make([]float64, n)
		for k := range xs {
			xs[k] = r.Exponential(rate) * rate
		}
		d := KSAgainstCDF(xs, cdf)
		crit := KSCriticalOneSample(n, alpha)
		t.Logf("rate %g: D=%.6f over n=%d draws, critical %.6f", rate, d, n, crit)
		if d > crit {
			t.Errorf("rate %g: KS D=%.6f exceeds critical %.6f (n=%d)", rate, d, crit, n)
		}
	}
}

// TestExponentialTail covers the draws beyond expTailFrom: their count
// must match the mass e^{−r} within 4.5 binomial standard deviations,
// and by memorylessness their excess over r is again Exp(1), KS-tested
// at α = 0.001.
func TestExponentialTail(t *testing.T) {
	const (
		n     = 6000000
		alpha = 0.001
	)
	r := NewRNG(37)
	var excess []float64
	for i := 0; i < n; i++ {
		if x := r.Exponential(1); x > expTailFrom {
			excess = append(excess, x-expTailFrom)
		}
	}
	p := math.Exp(-expTailFrom)
	mean, sd := n*p, math.Sqrt(n*p*(1-p))
	t.Logf("%d of %d draws beyond %.4f, expected %.1f ± %.1f", len(excess), n, expTailFrom, mean, sd)
	if z := (float64(len(excess)) - mean) / sd; math.Abs(z) > 4.5 {
		t.Errorf("tail count %d is %.2f sd from %.1f", len(excess), z, mean)
	}
	d := KSAgainstCDF(excess, func(y float64) float64 { return -math.Expm1(-y) })
	crit := KSCriticalOneSample(len(excess), alpha)
	t.Logf("tail excess: D=%.5f over n=%d, critical %.5f", d, len(excess), crit)
	if d > crit {
		t.Errorf("tail excess: KS D=%.5f exceeds critical %.5f (n=%d)", d, crit, len(excess))
	}
}

// TestExponentialMoments checks the mean 1/λ and variance 1/λ² of 1e6
// draws at two rates, each within 4.5 standard errors (the sample
// variance of Exp(1) has variance 8/n).
func TestExponentialMoments(t *testing.T) {
	const n = 1000000
	for i, rate := range []float64{1, 0.25} {
		r := NewRNG(41 + uint64(i))
		var s Summary
		for k := 0; k < n; k++ {
			s.Add(r.Exponential(rate) * rate)
		}
		seMean, seVar := 1/math.Sqrt(n), math.Sqrt(8.0/n)
		v := s.Variance()
		t.Logf("rate %g: scaled mean %.5f (se %.5f), variance %.5f (se %.5f)", rate, s.Mean(), seMean, v, seVar)
		if math.Abs(s.Mean()-1) > 4.5*seMean {
			t.Errorf("rate %g: scaled mean %.5f, want 1 ± %.5f", rate, s.Mean(), 4.5*seMean)
		}
		if math.Abs(v-1) > 4.5*seVar {
			t.Errorf("rate %g: scaled variance %.5f, want 1 ± %.5f", rate, v, 4.5*seVar)
		}
	}
}

var expSink float64

func BenchmarkExponential(b *testing.B) {
	r := NewRNG(43)
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += r.Exponential(1)
	}
	expSink = sum
}
