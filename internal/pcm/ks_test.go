package pcm

import (
	"testing"

	"repro/internal/stats"
)

// TestCrossingTimeDistributionKS compares the full distribution of
// crossing times produced by the fast order-statistics sampler against
// brute-force per-cell simulation with a Kolmogorov–Smirnov test — a
// stronger check than the moment comparisons elsewhere.
func TestCrossingTimeDistributionKS(t *testing.T) {
	m := MustModel(DefaultParams())
	const ncells = 8 // small lines so saturation (k) never truncates
	const k = 8

	s, err := NewLineSampler(m, LevelMix{0, 0, 1, 0}, ncells, k)
	if err != nil {
		t.Fatal(err)
	}
	rFast := stats.NewRNG(11)
	var fast []float64
	var buf []float64
	for trial := 0; trial < 4000; trial++ {
		buf = exhaust(s, rFast, buf)
		fast = append(fast, buf...)
	}

	rBrute := stats.NewRNG(12)
	var brute []float64
	for trial := 0; trial < 4000; trial++ {
		for c := 0; c < ncells; c++ {
			cell := m.WriteCell(rBrute, 2)
			if ct := m.CrossingTime(cell); ct < 1e30 && ct >= 0 {
				brute = append(brute, ct)
			}
		}
	}

	if len(fast) < 1000 || len(brute) < 1000 {
		t.Fatalf("too few crossings to compare: %d fast, %d brute", len(fast), len(brute))
	}
	d := stats.KSStatistic(fast, brute)
	crit := stats.KSCritical(len(fast), len(brute), 0.001)
	// Allow slack for the sampler's grid interpolation (~0.6 % in time).
	if d > crit+0.01 {
		t.Errorf("crossing-time KS %.4f exceeds critical %.4f (n=%d, m=%d)",
			d, crit, len(fast), len(brute))
	}
}
