package wear

import (
	"math"
	"sort"
	"testing"

	"repro/internal/stats"
)

func TestDefaultParamsValid(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.MeanLog10Writes = 0 },
		func(p *Params) { p.SigmaLog10 = -1 },
		func(p *Params) { p.CellsPerLine = 0 },
		func(p *Params) { p.K = 0 },
		func(p *Params) { p.K = p.CellsPerLine + 1 },
	}
	for i, mut := range cases {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestSampleWeakestSortedPositive(t *testing.T) {
	m := MustModel(DefaultParams())
	r := stats.NewRNG(1)
	var buf []float64
	for trial := 0; trial < 200; trial++ {
		buf = m.SampleWeakest(r, buf)
		if len(buf) != m.Params().K {
			t.Fatalf("got %d weakest, want %d", len(buf), m.Params().K)
		}
		if !sort.Float64sAreSorted(buf) {
			t.Fatalf("weakest not ascending: %v", buf)
		}
		for _, e := range buf {
			if e <= 0 || math.IsNaN(e) {
				t.Fatalf("bad endurance %g", e)
			}
		}
	}
}

func TestSampleWeakestMatchesBruteForceMinimum(t *testing.T) {
	// The first order statistic from the fast sampler must match the
	// distribution of min over CellsPerLine lognormal draws.
	p := DefaultParams()
	p.CellsPerLine = 64
	p.K = 1
	m := MustModel(p)
	const trials = 5000
	r1 := stats.NewRNG(3)
	var fast stats.Summary
	for i := 0; i < trials; i++ {
		w := m.SampleWeakest(r1, nil)
		fast.Add(math.Log10(w[0]))
	}
	r2 := stats.NewRNG(4)
	var brute stats.Summary
	ln10 := math.Ln10
	for i := 0; i < trials; i++ {
		minE := math.Inf(1)
		for c := 0; c < p.CellsPerLine; c++ {
			e := r2.LogNormal(p.MeanLog10Writes*ln10, p.SigmaLog10*ln10)
			if e < minE {
				minE = e
			}
		}
		brute.Add(math.Log10(minE))
	}
	if math.Abs(fast.Mean()-brute.Mean()) > 0.02 {
		t.Errorf("min endurance mean: fast %.4f vs brute %.4f (log10)", fast.Mean(), brute.Mean())
	}
	if math.Abs(fast.StdDev()-brute.StdDev()) > 0.02 {
		t.Errorf("min endurance sd: fast %.4f vs brute %.4f (log10)", fast.StdDev(), brute.StdDev())
	}
}

// TestSampleWeakestOrderStatisticsKS is the endurance sampler's
// statistical contract: at a fixed seed and sample size, the j-th weakest
// endurance of a line must follow the exact order-statistic law
// P(W_(j) <= w) = P(Binomial(n, F(w)) >= j), F the lognormal CDF, under
// a one-sample KS test at α = 0.001 for j ∈ {1, 4, 12}.
func TestSampleWeakestOrderStatisticsKS(t *testing.T) {
	checkOrderStatisticsKS(t, DefaultParams(), []int{1, 4, 12}, 2024)
}

// TestSampleWeakestSmallLineKS holds the same contract on a 16-cell line
// that tracks all 16 cells. Its last spacings are divided by 2 and 1
// rather than by ~250, so j = 16 is the line's strongest cell and its
// spacing sums reach ~13, against ~0.1 for the default line's 12th.
func TestSampleWeakestSmallLineKS(t *testing.T) {
	p := DefaultParams()
	p.CellsPerLine = 16
	p.K = 16
	checkOrderStatisticsKS(t, p, []int{1, 8, 16}, 2025)
}

// checkOrderStatisticsKS draws 20 000 lines from a model with params p
// and KS-tests each listed order statistic against its exact law at
// α = 0.001.
func checkOrderStatisticsKS(t *testing.T, p Params, orders []int, seed uint64) {
	t.Helper()
	const (
		lines = 20000
		alpha = 0.001
	)
	m := MustModel(p)
	r := stats.NewRNG(seed)
	samples := make([][]float64, len(orders))
	var buf []float64
	for i := 0; i < lines; i++ {
		buf = m.SampleWeakest(r, buf)
		for o, j := range orders {
			samples[o] = append(samples[o], buf[j-1])
		}
	}
	for o, j := range orders {
		cdf := func(w float64) float64 {
			f := stats.StdNormalCDF((math.Log10(w) - p.MeanLog10Writes) / p.SigmaLog10)
			return stats.BinomialTailGE(p.CellsPerLine, j, f)
		}
		d := stats.KSAgainstCDF(samples[o], cdf)
		crit := stats.KSCriticalOneSample(lines, alpha)
		t.Logf("n=%d j=%d: D=%.5f, critical %.5f", p.CellsPerLine, j, d, crit)
		if d > crit {
			t.Errorf("order statistic j=%d of %d: KS D=%.5f exceeds critical %.5f", j, p.CellsPerLine, d, crit)
		}
	}
}

// TestWeakestZTableSweep is the endurance table's accuracy contract, in
// the style of pcm.TestInversionStaysInBracketingCell: at every bucket's
// midpoint and quarter points, where linear interpolation is furthest
// from the curve, the table's z must be within 1e-5 of the exact
// Φ⁻¹(1 − e^{−s}), and z must not decrease across the whole table.
func TestWeakestZTableSweep(t *testing.T) {
	const bound = 1e-5
	worst, worstS := 0.0, 0.0
	prev := math.Inf(-1)
	for i := 0; i < zBuckets; i++ {
		lo := math.Ldexp(1+float64(i%(1<<zBits))/(1<<zBits), zMinExp+i/(1<<zBits))
		width := math.Ldexp(1.0/(1<<zBits), zMinExp+i/(1<<zBits))
		for _, f := range []float64{0, 0.25, 0.5, 0.75} {
			s := lo + f*width
			got := weakestZ(s)
			if got < prev {
				t.Fatalf("z decreases at s=%g: %.17g after %.17g", s, got, prev)
			}
			prev = got
			if d := math.Abs(got - exactZ(s)); d > worst {
				worst, worstS = d, s
			}
		}
	}
	t.Logf("%d buckets over [2^%d, 2^%d): max |Δz| %.3g at s=%.4g", zBuckets, zMinExp, zMaxExp, worst, worstS)
	if worst > bound {
		t.Errorf("table z off by %.3g at s=%g, bound %g", worst, worstS, bound)
	}
}

// TestExactZMatchesQuantile pins exactZ to the quantile of 1 − e^{−s}
// where −expm1(−s) still resolves it (s ≤ 20, so e^{−s} ≥ 2e-9 keeps
// more than 6 significant digits next to 1), and checks its upper-tail
// form stays finite where −expm1(−s) rounds to 1.
func TestExactZMatchesQuantile(t *testing.T) {
	for s := 1e-15; s <= 20; s *= 1.1 {
		want := stats.StdNormalQuantile(-math.Expm1(-s))
		if got := exactZ(s); math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Errorf("exactZ(%g) = %.17g, want %.17g", s, got, want)
		}
	}
	if z := exactZ(50); math.IsInf(z, 0) || math.IsNaN(z) || z <= exactZ(20) {
		t.Errorf("exactZ(50) = %g, want a finite score above exactZ(20) = %g", z, exactZ(20))
	}
}

// TestWeakestZEdges checks the lookup at its boundaries: s = 0 (an
// exponential draw can be exactly 0) gives a finite score below the
// table's floor, and the table's first and one-past-last nodes agree
// with the exact path.
func TestWeakestZEdges(t *testing.T) {
	floor := math.Ldexp(1, zMinExp)
	top := math.Ldexp(1, zMaxExp)
	z0 := weakestZ(0)
	if math.IsInf(z0, 0) || math.IsNaN(z0) || z0 >= weakestZ(floor) {
		t.Errorf("weakestZ(0) = %g, want finite and below weakestZ(2^%d) = %g", z0, zMinExp, weakestZ(floor))
	}
	for _, s := range []float64{floor, top, math.Nextafter(top, 0)} {
		if got, want := weakestZ(s), exactZ(s); math.Abs(got-want) > 1e-12 {
			t.Errorf("weakestZ(%g) = %.17g, exact %.17g", s, got, want)
		}
	}
}

func TestDeadCells(t *testing.T) {
	weakest := []float64{100, 200, 300}
	cases := []struct {
		writes uint64
		want   int
	}{
		{0, 0}, {99, 0}, {100, 1}, {250, 2}, {300, 3}, {1e6, 3},
	}
	for _, c := range cases {
		if got := DeadCells(weakest, c.writes); got != c.want {
			t.Errorf("DeadCells(%d) = %d, want %d", c.writes, got, c.want)
		}
	}
	if DeadCells(nil, 100) != 0 {
		t.Error("empty weakest should report 0 dead")
	}
}

func TestStuckErrorsStatistics(t *testing.T) {
	r := stats.NewRNG(5)
	const dead = 4
	const trials = 50000
	var wrongSum, bitsSum float64
	for i := 0; i < trials; i++ {
		wrong, bits := StuckErrors(r, dead)
		if wrong < 0 || wrong > dead {
			t.Fatalf("wrong cells %d out of range", wrong)
		}
		if bits < wrong || bits > 2*wrong {
			t.Fatalf("bit errors %d inconsistent with %d wrong cells", bits, wrong)
		}
		wrongSum += float64(wrong)
		bitsSum += float64(bits)
	}
	wantWrong := dead * StuckWrongProb
	if math.Abs(wrongSum/trials-wantWrong) > 0.05 {
		t.Errorf("mean wrong cells %.3f, want ~%.3f", wrongSum/trials, wantWrong)
	}
	wantBits := wantWrong * (1 + TwoBitProb)
	if math.Abs(bitsSum/trials-wantBits) > 0.07 {
		t.Errorf("mean stuck bit errors %.3f, want ~%.3f", bitsSum/trials, wantBits)
	}
}

func TestStuckErrorsZeroDead(t *testing.T) {
	r := stats.NewRNG(6)
	if w, b := StuckErrors(r, 0); w != 0 || b != 0 {
		t.Error("zero dead cells should contribute nothing")
	}
}

func TestExpectedFirstDeathBelowMedian(t *testing.T) {
	m := MustModel(DefaultParams())
	first := m.ExpectedFirstDeathWrites()
	median := math.Pow(10, m.Params().MeanLog10Writes)
	if first >= median {
		t.Errorf("first death (%g) should be well below the median endurance (%g)", first, median)
	}
	if first <= 0 {
		t.Error("first death must be positive")
	}
}

func TestLifetimeWritesMonotoneInBudget(t *testing.T) {
	m := MustModel(DefaultParams())
	prev := 0.0
	for _, budget := range []int{1, 2, 4, 8, 16} {
		lt := m.LifetimeWrites(budget)
		if lt <= prev {
			t.Fatalf("lifetime should grow with ECC budget: budget=%d lt=%g prev=%g", budget, lt, prev)
		}
		prev = lt
	}
	if !math.IsInf(m.LifetimeWrites(256), 1) {
		t.Error("budget >= all cells should be infinite lifetime")
	}
	if m.LifetimeWrites(0) != m.LifetimeWrites(1) {
		t.Error("budget 0 should clamp to 1")
	}
}

func BenchmarkSampleWeakest(b *testing.B) {
	m := MustModel(DefaultParams())
	r := stats.NewRNG(95)
	var buf []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.SampleWeakest(r, buf)
	}
}
