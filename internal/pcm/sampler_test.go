package pcm

import (
	"math"
	"sort"
	"testing"

	"repro/internal/stats"
)

func TestNewLineSamplerValidation(t *testing.T) {
	m := MustModel(DefaultParams())
	if _, err := NewLineSampler(m, LevelMix{2, 0, 0, 0}, 256, 12); err == nil {
		t.Error("invalid mix accepted")
	}
	if _, err := NewLineSampler(m, UniformMix(), 0, 12); err == nil {
		t.Error("zero cells accepted")
	}
	if _, err := NewLineSampler(m, UniformMix(), 256, 0); err == nil {
		t.Error("zero k accepted")
	}
}

func TestSampleCrossingsSortedAndBounded(t *testing.T) {
	m := MustModel(DefaultParams())
	s, err := NewLineSampler(m, UniformMix(), 256, 12)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(81)
	var buf []float64
	for trial := 0; trial < 500; trial++ {
		buf = s.SampleCrossings(r, buf)
		if len(buf) > 12 {
			t.Fatalf("returned %d crossings, k=12", len(buf))
		}
		if !sort.Float64sAreSorted(buf) {
			t.Fatalf("crossings not sorted: %v", buf)
		}
		for _, ct := range buf {
			if ct < 0 || math.IsInf(ct, 0) || math.IsNaN(ct) {
				t.Fatalf("bad crossing time %g", ct)
			}
		}
	}
}

func TestSampleCrossingsCountMatchesAnalytic(t *testing.T) {
	// The number of crossings before time t must follow the analytic
	// expectation E = Σ_level n_level · P_level(t), well below saturation.
	m := MustModel(DefaultParams())
	const ncells = 256
	s, err := NewLineSampler(m, UniformMix(), ncells, 16)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(83)
	const trials = 30000
	checkAt := []float64{1e4, 1e5, 1e6}
	sums := make([]float64, len(checkAt))
	var buf []float64
	for trial := 0; trial < trials; trial++ {
		buf = s.SampleCrossings(r, buf)
		for j, tt := range checkAt {
			c := 0
			for _, ct := range buf {
				if ct <= tt {
					c++
				}
			}
			sums[j] += float64(c)
		}
	}
	for j, tt := range checkAt {
		want := m.ExpectedLineErrors(UniformMix(), ncells, tt)
		got := sums[j] / trials
		if want > 10 {
			continue // too close to the k=16 saturation cap for a fair check
		}
		tol := 5*math.Sqrt(want/trials) + 0.01 + 0.03*want
		if math.Abs(got-want) > tol {
			t.Errorf("t=%g: mean crossings %.4f vs analytic %.4f", tt, got, want)
		}
	}
}

func TestSampleCrossingsMatchesBruteForceDistribution(t *testing.T) {
	// Full distribution check against a brute-force per-cell simulation on
	// a small line: P(#errors >= 1) and P(#errors >= 2) at a fixed time.
	p := DefaultParams()
	m := MustModel(p)
	const ncells = 32
	const tSec = 2e5
	const trials = 20000

	// Brute force: materialise every cell.
	r1 := stats.NewRNG(85)
	bruteGE1, bruteGE2 := 0, 0
	for trial := 0; trial < trials; trial++ {
		errs := 0
		for i := 0; i < ncells; i++ {
			level := r1.Intn(Levels)
			c := m.WriteCell(r1, level)
			if m.CrossingTime(c) <= tSec {
				errs++
			}
		}
		if errs >= 1 {
			bruteGE1++
		}
		if errs >= 2 {
			bruteGE2++
		}
	}

	// Fast sampler.
	s, err := NewLineSampler(m, UniformMix(), ncells, 8)
	if err != nil {
		t.Fatal(err)
	}
	r2 := stats.NewRNG(86)
	fastGE1, fastGE2 := 0, 0
	var buf []float64
	for trial := 0; trial < trials; trial++ {
		buf = s.SampleCrossings(r2, buf)
		errs := 0
		for _, ct := range buf {
			if ct <= tSec {
				errs++
			}
		}
		if errs >= 1 {
			fastGE1++
		}
		if errs >= 2 {
			fastGE2++
		}
	}

	for _, cmp := range []struct {
		name        string
		brute, fast int
	}{
		{"P(>=1)", bruteGE1, fastGE1},
		{"P(>=2)", bruteGE2, fastGE2},
	} {
		pb := float64(cmp.brute) / trials
		pf := float64(cmp.fast) / trials
		sd := math.Sqrt(pb*(1-pb)/trials)*5 + 0.005
		if math.Abs(pb-pf) > sd {
			t.Errorf("%s: brute %.4f vs fast %.4f", cmp.name, pb, pf)
		}
	}
}

func TestSampleCrossingsSingleLevelMix(t *testing.T) {
	// All cells at the top level: no upward crossings ever.
	m := MustModel(DefaultParams())
	s, err := NewLineSampler(m, LevelMix{0, 0, 0, 1}, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(87)
	for trial := 0; trial < 100; trial++ {
		if buf := s.SampleCrossings(r, nil); len(buf) != 0 {
			t.Fatalf("top-level-only line produced crossings: %v", buf)
		}
	}
}

func TestSampleCrossingsSaturation(t *testing.T) {
	// At an extreme horizon nearly all level-2 cells cross; the sampler
	// must cap at K and the K-th entry must be an early crossing.
	m := MustModel(DefaultParams())
	const k = 6
	s, err := NewLineSampler(m, LevelMix{0, 0, 1, 0}, 256, k)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(89)
	sawFull := 0
	for trial := 0; trial < 200; trial++ {
		buf := s.SampleCrossings(r, nil)
		if len(buf) == k {
			sawFull++
		}
	}
	if sawFull < 190 {
		t.Errorf("level-2-only lines should nearly always saturate k=%d; got %d/200", k, sawFull)
	}
}

func TestSampleCrossingsCertainLevel(t *testing.T) {
	// A drift exponent far past the margin makes the crossing probability
	// round to exactly 1 well before the horizon. The grid must keep a
	// finite top, and every cell of such a level crosses in time.
	p := DefaultParams()
	p.NuMean[2], p.NuSigma[2] = 0.5, 0.05
	m := MustModel(p)
	if got := m.ErrProbAtX(2, p.MaxLog10Time); got != 1 {
		t.Fatalf("test premise: level-2 crossing probability at the horizon is %v, want 1", got)
	}
	const ncells = 256
	s, err := NewLineSampler(m, LevelMix{0, 0, 1, 0}, ncells, ncells)
	if err != nil {
		t.Fatal(err)
	}
	if smax := s.levels[2].smax; math.IsInf(smax, 0) || math.IsNaN(smax) {
		t.Fatalf("grid top s = %v, want finite", smax)
	}
	horizon := m.TimeOf(p.MaxLog10Time)
	r := stats.NewRNG(97)
	var buf []float64
	for trial := 0; trial < 50; trial++ {
		buf = s.SampleCrossings(r, buf)
		if len(buf) != ncells {
			t.Fatalf("%d of %d certain cells crossed", len(buf), ncells)
		}
		if last := buf[len(buf)-1]; !(last <= horizon) {
			t.Fatalf("latest crossing %g past the horizon %g", last, horizon)
		}
	}
}

func TestSamplerReusesBuffer(t *testing.T) {
	m := MustModel(DefaultParams())
	s, _ := NewLineSampler(m, UniformMix(), 256, 12)
	r := stats.NewRNG(91)
	buf := make([]float64, 0, 12)
	got := s.SampleCrossings(r, buf)
	if cap(got) != cap(buf) && len(got) <= 12 && cap(buf) >= len(got) {
		t.Error("sampler did not reuse provided buffer")
	}
}

func BenchmarkSampleCrossings(b *testing.B) {
	m := MustModel(DefaultParams())
	s, _ := NewLineSampler(m, UniformMix(), 256, 12)
	r := stats.NewRNG(93)
	var buf []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.SampleCrossings(r, buf)
	}
}

func BenchmarkErrProb(b *testing.B) {
	m := MustModel(DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ErrProbAtX(2, 5.0)
	}
}
