package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct {
		x, want float64
	}{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{2, 0.9772498680518208},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		got := StdNormalCDF(c.x)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Φ(%g) = %.15f, want %.15f", c.x, got, c.want)
		}
	}
}

func TestNormalCDFDegenerateSigma(t *testing.T) {
	if got := NormalCDF(1, 2, 0); got != 0 {
		t.Errorf("CDF below point mass = %v, want 0", got)
	}
	if got := NormalCDF(3, 2, 0); got != 1 {
		t.Errorf("CDF above point mass = %v, want 1", got)
	}
}

func TestQFuncComplementsCDF(t *testing.T) {
	f := func(raw int16) bool {
		x := float64(raw) / 4096 // range ±8
		return math.Abs(QFunc(x)+StdNormalCDF(x)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQFuncDeepTail(t *testing.T) {
	// Q(8) ≈ 6.22e-16; a naive 1-Φ(x) would underflow to 0.
	q := QFunc(8)
	if q <= 0 || q > 1e-14 {
		t.Errorf("Q(8) = %g, want ~6e-16", q)
	}
}

func TestStdNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-9, 1e-6, 0.001, 0.025, 0.5, 0.8, 0.975, 0.999, 1 - 1e-9} {
		x := StdNormalQuantile(p)
		back := StdNormalCDF(x)
		if math.Abs(back-p) > 1e-9*math.Max(1, 1/p) && math.Abs(back-p) > 1e-12 {
			t.Errorf("Φ(Φ⁻¹(%g)) = %g", p, back)
		}
	}
	if math.Abs(StdNormalQuantile(0.5)) > 1e-12 {
		t.Errorf("median quantile not 0: %g", StdNormalQuantile(0.5))
	}
}

// TestStdNormalQuantileRoundTripRelative is the quantile's accuracy
// contract: Φ(Φ⁻¹(p)) returns p to within a relative error that grows
// only with the round trip's conditioning. Near the quantile x a relative
// error δ in x moves Φ by a relative (1+x²)·δ, so the bound is a few ulps
// scaled by 1+x², from p = 1e-300 (x ≈ −37) to p = 1−1e-12.
func TestStdNormalQuantileRoundTripRelative(t *testing.T) {
	const ulps = 16
	var ps []float64
	for i := 0; i <= 3000; i++ { // log-spaced lower half
		ps = append(ps, math.Pow(10, -300+float64(i)*(300-math.Log10(2))/3000))
	}
	for i := 1; i < 1000; i++ { // linear body
		ps = append(ps, float64(i)/1000)
	}
	for i := 0; i <= 1000; i++ { // log-spaced upper half, 1−p down to 1e-12
		ps = append(ps, 1-math.Pow(10, -12+float64(i)*(12-math.Log10(2))/1000))
	}
	for _, p := range ps {
		x := StdNormalQuantile(p)
		bound := ulps * 0x1p-52 * (1 + x*x) * p
		if err := math.Abs(StdNormalCDF(x) - p); !(err <= bound) {
			t.Fatalf("Φ(Φ⁻¹(%g)) = %g: error %.3g exceeds %.3g", p, StdNormalCDF(x), err, bound)
		}
	}
}

// TestStdNormalQuantileUpperTail holds the upper tail to the same
// conditioning-scaled relative bound, measured on 1−p: Q(Φ⁻¹(p)) must
// return 1−p, which a quantile refined through Φ(x)−p cannot resolve once
// 1−p nears the float spacing of p.
func TestStdNormalQuantileUpperTail(t *testing.T) {
	const ulps = 16
	for i := 0; i <= 1000; i++ {
		q := math.Pow(10, -15+float64(i)*(15-math.Log10(2))/1000)
		p := 1 - q
		q = 1 - p // the tail the float p actually carries
		x := StdNormalQuantile(p)
		bound := ulps * 0x1p-52 * (1 + x*x) * q
		if err := math.Abs(QFunc(x) - q); !(err <= bound) {
			t.Fatalf("Q(Φ⁻¹(1−%g)) = %g: error %.3g exceeds %.3g", q, QFunc(x), err, bound)
		}
	}
}

func TestStdNormalQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StdNormalQuantile(%g) did not panic", p)
				}
			}()
			StdNormalQuantile(p)
		}()
	}
}

func TestBinomialTailGEBasics(t *testing.T) {
	if got := BinomialTailGE(10, 0, 0.3); got != 1 {
		t.Errorf("P(X>=0) = %v, want 1", got)
	}
	if got := BinomialTailGE(10, 11, 0.3); got != 0 {
		t.Errorf("P(X>=11) = %v, want 0", got)
	}
	// P(X>=1) = 1-(1-p)^n.
	n, p := 20, 0.05
	want := 1 - math.Pow(1-p, float64(n))
	if got := BinomialTailGE(n, 1, p); math.Abs(got-want) > 1e-12 {
		t.Errorf("P(X>=1) = %v, want %v", got, want)
	}
	// P(X>=n) = p^n.
	if got := BinomialTailGE(4, 4, 0.5); math.Abs(got-0.0625) > 1e-12 {
		t.Errorf("P(X>=4) = %v, want 0.0625", got)
	}
}

func TestBinomialTailMatchesPMFSum(t *testing.T) {
	n, p := 32, 0.07
	for k := 0; k <= n; k++ {
		sum := 0.0
		for i := k; i <= n; i++ {
			sum += BinomialPMF(n, i, p)
		}
		got := BinomialTailGE(n, k, p)
		if math.Abs(got-sum) > 1e-10 {
			t.Errorf("tail(%d) = %g, pmf-sum = %g", k, got, sum)
		}
	}
}

func TestBinomialPMFNormalizes(t *testing.T) {
	f := func(nRaw uint8, pRaw uint16) bool {
		n := int(nRaw%100) + 1
		p := float64(pRaw) / 65536
		sum := 0.0
		for k := 0; k <= n; k++ {
			sum += BinomialPMF(n, k, p)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialPMFEdges(t *testing.T) {
	if BinomialPMF(5, -1, 0.5) != 0 || BinomialPMF(5, 6, 0.5) != 0 {
		t.Error("out-of-range k should have zero mass")
	}
	if BinomialPMF(5, 0, 0) != 1 || BinomialPMF(5, 5, 1) != 1 {
		t.Error("degenerate p mass misplaced")
	}
}

func TestZipfUniformWhenSkewZero(t *testing.T) {
	z := NewZipf(8, 0)
	for i := 0; i < 8; i++ {
		if math.Abs(z.Prob(i)-0.125) > 1e-12 {
			t.Errorf("P(%d) = %v, want 0.125", i, z.Prob(i))
		}
	}
}

func TestZipfSkewOrdersProbabilities(t *testing.T) {
	z := NewZipf(100, 1.0)
	for i := 1; i < 100; i++ {
		if z.Prob(i) > z.Prob(i-1)+1e-15 {
			t.Fatalf("P(%d)=%g > P(%d)=%g", i, z.Prob(i), i-1, z.Prob(i-1))
		}
	}
	// Element 0 should carry ~1/H(100) of the mass.
	h := 0.0
	for i := 1; i <= 100; i++ {
		h += 1 / float64(i)
	}
	if math.Abs(z.Prob(0)-1/h) > 1e-12 {
		t.Errorf("P(0) = %v, want %v", z.Prob(0), 1/h)
	}
}

func TestZipfSampleFrequencies(t *testing.T) {
	r := NewRNG(101)
	z := NewZipf(16, 0.8)
	counts := make([]int, 16)
	const trials = 200000
	for i := 0; i < trials; i++ {
		counts[z.Sample(r)]++
	}
	for i, c := range counts {
		want := z.Prob(i) * trials
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want)+5 {
			t.Errorf("element %d: count %d, want ~%.0f", i, c, want)
		}
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	f := func(nRaw uint8, sRaw uint8) bool {
		n := int(nRaw%200) + 1
		s := float64(sRaw) / 64 // 0..4
		z := NewZipf(n, s)
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += z.Prob(i)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfPanics(t *testing.T) {
	for _, c := range []struct {
		n int
		s float64
	}{{0, 1}, {-1, 1}, {5, -0.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d,%g) did not panic", c.n, c.s)
				}
			}()
			NewZipf(c.n, c.s)
		}()
	}
}

func TestZipfProbOutOfRange(t *testing.T) {
	z := NewZipf(4, 1)
	if z.Prob(-1) != 0 || z.Prob(4) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
}

func BenchmarkStdNormalQuantile(b *testing.B) {
	// Spread the arguments over the lower tail and the body, the range the
	// endurance sampler's order statistics visit.
	var ps [1024]float64
	for i := range ps {
		ps[i] = math.Pow(10, -6*float64(i)/float64(len(ps))) * 0.5
	}
	b.ResetTimer()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += StdNormalQuantile(ps[i&(len(ps)-1)])
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN quantile")
	}
}
