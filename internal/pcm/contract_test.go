package pcm

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// The statistical contract of the crossing sampler. The byte-level
// goldens elsewhere pin one realisation of the Monte Carlo; these tests
// decide whether a change that moves those bits still samples the model.
// Each runs at a fixed seed and a fixed sample size with no slack term.

// invertProb maps a target crossing probability to the sampler's
// crossing time through the level's inverse-CDF grid.
func invertProb(ls *levelSampler, p float64) float64 {
	return ls.timeAt(-math.Log1p(-p))
}

// TestCrossingTimesMatchAnalyticCDF draws at least 2e5 crossing times per
// level from single-level lines, each stream drawn to exhaustion (k =
// ncells, so no cap truncates a line), and KS-tests them against the analytic conditional CDF
// ErrProbAtX(level, X(t)) / pmax at α = 0.001.
func TestCrossingTimesMatchAnalyticCDF(t *testing.T) {
	const (
		ncells = 256
		want   = 200000
		alpha  = 0.001
	)
	m := MustModel(DefaultParams())
	maxX := m.Params().MaxLog10Time
	for _, level := range []int{1, 2} {
		var mix LevelMix
		mix[level] = 1
		s, err := NewLineSampler(m, mix, ncells, ncells)
		if err != nil {
			t.Fatal(err)
		}
		r := stats.NewRNG(uint64(1000 + level))
		var xs, buf []float64
		// Whole lines only: stopping on the running count does not
		// condition the times within a line.
		for len(xs) < want {
			buf = exhaust(s, r, buf)
			xs = append(xs, buf...)
		}
		pmax := m.ErrProbAtX(level, maxX)
		cdf := func(ct float64) float64 { return m.ErrProb(level, ct) / pmax }
		d := stats.KSAgainstCDF(xs, cdf)
		crit := stats.KSCriticalOneSample(len(xs), alpha)
		t.Logf("level %d: D=%.5f over n=%d crossings, critical %.5f", level, d, len(xs), crit)
		if d > crit {
			t.Errorf("level %d: KS D=%.5f exceeds critical %.5f (n=%d)", level, d, crit, len(xs))
		}
	}
}

// TestInversionStaysInBracketingCell sweeps target probabilities across
// every cell of every active level's grid, level 0 included (pmax ≈
// 4.8e-10), and checks the sampler returns a time inside the cell whose
// analytic CDF values bracket the target. Targets at or below the
// grid's first value map to the first grid time.
func TestInversionStaysInBracketingCell(t *testing.T) {
	m := MustModel(DefaultParams())
	s, err := NewLineSampler(m, UniformMix(), CellsPerLine, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.active) != Levels-1 {
		t.Fatalf("active levels %v, want every level but the top", s.active)
	}
	dx := m.Params().MaxLog10Time / samplerGridPoints
	for _, level := range s.active {
		ls := s.levels[level]
		// The grid's CDF values: analytic, made monotone against float
		// jitter exactly as the grid itself is.
		ps := make([]float64, samplerGridPoints+1)
		prev := 0.0
		for i := range ps {
			ps[i] = math.Max(prev, m.ErrProbAtX(level, float64(i)*dx))
			prev = ps[i]
		}
		if p0 := ps[0]; p0 > 0 {
			if got := invertProb(ls, p0/2); got != m.TimeOf(0) {
				t.Errorf("level %d: target below the grid maps to %g, want %g", level, got, m.TimeOf(0))
			}
		}
		checked := 0
		for i := 0; i < samplerGridPoints; i++ {
			lo, hi := ps[i], ps[i+1]
			tlo, thi := m.TimeOf(float64(i)*dx), m.TimeOf(float64(i+1)*dx)
			for _, f := range []float64{0.125, 0.5, 0.875} {
				p := lo + f*(hi-lo)
				if !(lo < p && p < hi) {
					continue // cell too flat to hold a distinct interior target
				}
				checked++
				if got := invertProb(ls, p); got < tlo || got > thi {
					t.Fatalf("level %d: p=%.17g in cell %d [%.17g, %.17g] maps to t=%.17g outside [%.17g, %.17g]",
						level, p, i, lo, hi, got, tlo, thi)
				}
			}
		}
		t.Logf("level %d: pmax=%.4g, %d interior targets checked", level, ps[samplerGridPoints], checked)
		if checked < samplerGridPoints {
			t.Errorf("level %d: only %d interior targets; the sweep lost its coverage", level, checked)
		}
	}
}
