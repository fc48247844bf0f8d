package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed degenerate: only %d distinct values in 100", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Float64())
	}
	if math.Abs(s.Mean()-0.5) > 0.005 {
		t.Fatalf("uniform mean %.4f, want ~0.5", s.Mean())
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for n := 1; n <= 17; n++ {
		seen := make([]bool, n)
		for i := 0; i < 200*n; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("Intn(%d) never produced %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := NewRNG(5)
	const n = 10
	counts := make([]int, n)
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	want := trials / n
	for v, c := range counts {
		if math.Abs(float64(c-want)) > 4*math.Sqrt(float64(want)) {
			t.Errorf("bucket %d count %d deviates from %d", v, c, want)
		}
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b   uint64
		hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(13)
	var s Summary
	const mean, sd = 3.5, 2.0
	for i := 0; i < 200000; i++ {
		s.Add(r.Normal(mean, sd))
	}
	if math.Abs(s.Mean()-mean) > 0.02 {
		t.Errorf("normal mean %.4f, want ~%.1f", s.Mean(), mean)
	}
	if math.Abs(s.StdDev()-sd) > 0.02 {
		t.Errorf("normal sd %.4f, want ~%.1f", s.StdDev(), sd)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRNG(17)
	xs := make([]float64, 100001)
	for i := range xs {
		xs[i] = r.LogNormal(2, 0.5)
	}
	med := Quantile(xs, 0.5)
	want := math.Exp(2.0)
	if math.Abs(med-want)/want > 0.02 {
		t.Errorf("lognormal median %.3f, want ~%.3f", med, want)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(19)
	var s Summary
	const rate = 4.0
	for i := 0; i < 200000; i++ {
		x := r.Exponential(rate)
		if x < 0 {
			t.Fatalf("negative exponential variate %v", x)
		}
		s.Add(x)
	}
	if math.Abs(s.Mean()-1/rate) > 0.005 {
		t.Errorf("exponential mean %.4f, want ~%.4f", s.Mean(), 1/rate)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := NewRNG(23)
	for _, lambda := range []float64{0.5, 3, 12, 80, 400} {
		var s Summary
		for i := 0; i < 50000; i++ {
			s.Add(float64(r.Poisson(lambda)))
		}
		tol := 5 * math.Sqrt(lambda/50000) * 3
		if tol < 0.05 {
			tol = 0.05
		}
		if math.Abs(s.Mean()-lambda) > lambda*0.05+tol {
			t.Errorf("Poisson(%g) mean %.3f", lambda, s.Mean())
		}
		if math.Abs(s.Variance()-lambda) > lambda*0.10+tol {
			t.Errorf("Poisson(%g) variance %.3f", lambda, s.Variance())
		}
	}
}

func TestPoissonZero(t *testing.T) {
	r := NewRNG(1)
	if v := r.Poisson(0); v != 0 {
		t.Fatalf("Poisson(0) = %d", v)
	}
}

func TestBinomialEdges(t *testing.T) {
	r := NewRNG(29)
	if v := r.Binomial(0, 0.5); v != 0 {
		t.Errorf("Binomial(0,.5)=%d", v)
	}
	if v := r.Binomial(10, 0); v != 0 {
		t.Errorf("Binomial(10,0)=%d", v)
	}
	if v := r.Binomial(10, 1); v != 10 {
		t.Errorf("Binomial(10,1)=%d", v)
	}
}

func TestBinomialMoments(t *testing.T) {
	r := NewRNG(31)
	cases := []struct {
		n int64
		p float64
	}{
		{10, 0.3}, {100, 0.01}, {1000, 0.5}, {256, 0.002}, {50000, 0.001}, {64, 0.9},
	}
	for _, c := range cases {
		var s Summary
		trials := 20000
		for i := 0; i < trials; i++ {
			v := r.Binomial(c.n, c.p)
			if v < 0 || v > c.n {
				t.Fatalf("Binomial(%d,%g)=%d out of range", c.n, c.p, v)
			}
			s.Add(float64(v))
		}
		mean := float64(c.n) * c.p
		variance := mean * (1 - c.p)
		tolM := 5 * math.Sqrt(variance/float64(trials))
		if math.Abs(s.Mean()-mean) > tolM+0.01 {
			t.Errorf("Binomial(%d,%g) mean %.4f want %.4f", c.n, c.p, s.Mean(), mean)
		}
		if variance > 0.01 && math.Abs(s.Variance()-variance)/variance > 0.15 {
			t.Errorf("Binomial(%d,%g) var %.4f want %.4f", c.n, c.p, s.Variance(), variance)
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRNG(37)
	const p = 0.125
	hit := 0
	const trials = 200000
	for i := 0; i < trials; i++ {
		if r.Bernoulli(p) {
			hit++
		}
	}
	f := float64(hit) / trials
	if math.Abs(f-p) > 0.005 {
		t.Errorf("Bernoulli frequency %.4f, want ~%.3f", f, p)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(43)
	child := r.Split()
	// The child stream should not be identical to the parent's continuation.
	same := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split child mirrors parent (%d/64 collisions)", same)
	}
}

// TestZigguratLayersHaveEqualArea checks the exponential ziggurat's
// tables: the recurrence from r closes at x_0 = 0, every layer holds the
// area v (the base strip with its tail included), and the fast-path
// bound of layer i is x_{i−1}/x_i (r/q for the base strip of width q).
func TestZigguratLayersHaveEqualArea(t *testing.T) {
	width := func(i int) float64 { return zigW[i] * (1 << 56) }
	areas := []float64{zigR*math.Exp(-zigR) + math.Exp(-zigR), width(1) * (1 - zigF[1])}
	for i := 2; i < zigLayers; i++ {
		areas = append(areas, width(i)*(zigF[i-1]-zigF[i]))
		if got, want := float64(zigK[i])/(1<<56), width(i-1)/width(i); math.Abs(got-want) > 1e-15 {
			t.Errorf("layer %d: fast bound %.17g, want %.17g", i, got, want)
		}
	}
	for i, a := range areas {
		if rel := math.Abs(a/zigV - 1); rel > 1e-11 {
			t.Errorf("area %d = %.17g, want %.17g (relative error %.2g)", i, a, zigV, rel)
		}
	}
	if zigK[1] != 0 || zigF[0] != 1 || width(zigLayers-1) != zigR {
		t.Errorf("edges: k[1]=%d f[0]=%g x_255=%g, want 0, 1, r", zigK[1], zigF[0], width(zigLayers-1))
	}
	if got, want := float64(zigK[0])/(1<<56), zigR/width(0); math.Abs(got-want) > 1e-15 {
		t.Errorf("base strip: fast bound %.17g, want r/q = %.17g", got, want)
	}
}
