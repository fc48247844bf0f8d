package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ecc"
	"repro/internal/pcm"
	"repro/internal/stats"
)

// The statistical contract of a line's drift state across visits. A line
// is written at 0 and checked at τ1 < τ2 < τ3 without being rewritten,
// so each later check resumes from the state the earlier ones left. At
// every τ the count of crossed cells must follow the model's law:
// Binomial(n, p_level(τ)) for a line whose n cells all sit at one level,
// and LineErrorTailGE for the uniform mix, whose levels merge. Each case
// runs at a fixed seed and sample size.

// contractTrials is the number of written lines per case.
const contractTrials = 40000

// contractZ bounds each tail proportion's deviation in binomial standard
// errors. About 40 proportions are checked, so a two-sided 4.5-SE band
// keeps the family-wise false-alarm rate near 3e-4.
const contractZ = 4.5

// visitCounts writes line 0 of a fresh state trials times and returns,
// for each check time, how many trials had at least j drift errors
// (index j), counted at that time after the earlier checks.
func visitCounts(t *testing.T, mix pcm.LevelMix, taus []float64) [][]int {
	t.Helper()
	spec := testSpec()
	spec.Mix = mix
	// BCH-12 tracks 16 crossings, far above any count these cases reach.
	spec.Scheme = ecc.NewBCHScheme("BCH-12", ecc.LineBits, 120, 12)
	spec.Seed = 4242
	s, err := newState(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.release()
	drift := func(tau float64) int {
		return s.errorBits(0, tau) - int(s.stuckBits[0])
	}
	ge := make([][]int, len(taus))
	for i := range ge {
		ge[i] = make([]int, pcm.CellsPerLine+1)
	}
	for trial := 0; trial < contractTrials; trial++ {
		s.writeLine(0, 0)
		for i, tau := range taus {
			for j := 0; j <= drift(tau); j++ {
				ge[i][j]++
			}
		}
	}
	return ge
}

// checkTails compares the empirical tails against want(τ index, j) for
// every j whose expected tail lies in [1e-3, 1−1e-3]. slack(τ index, j)
// widens the band by a known bound on the reference's own error.
func checkTails(t *testing.T, name string, taus []float64, ge [][]int, want, slack func(i, j int) float64) {
	t.Helper()
	checked, maxZ := 0, 0.0
	for i, tau := range taus {
		for j := 1; j <= 12; j++ {
			p := want(i, j)
			if p < 1e-3 || p > 1-1e-3 {
				continue
			}
			got := float64(ge[i][j]) / contractTrials
			se := math.Sqrt(p * (1 - p) / contractTrials)
			band := contractZ*se + slack(i, j)
			checked++
			maxZ = max(maxZ, (math.Abs(got-p)-slack(i, j))/se)
			if math.Abs(got-p) > band {
				t.Errorf("%s τ=%g: P(>= %d errors) = %.5f, want %.5f ± %.5f", name, tau, j, got, p, band)
			}
		}
	}
	if checked < len(taus) {
		t.Errorf("%s: only %d tail proportions in range; the case lost its coverage", name, checked)
	}
	t.Logf("%s: %d tail proportions, largest deviation past the slack %.2f SE (band %.1f SE)", name, checked, maxZ, contractZ)
}

// TestLineCountsAcrossVisitsMatchBinomial checks each drifting level on
// its own: a line of 256 level-1 or level-2 cells, whose crossed count
// at τ is Binomial(256, p_level(τ)) whatever checks came before.
func TestLineCountsAcrossVisitsMatchBinomial(t *testing.T) {
	model := pcm.MustModel(testSpec().PCM)
	for _, c := range []struct {
		level int
		taus  []float64
	}{
		{2, []float64{1e3, 3e3, 1e4}},
		{1, []float64{1e6, 1e7, 3e7}},
	} {
		var mix pcm.LevelMix
		mix[c.level] = 1
		ge := visitCounts(t, mix, c.taus)
		want := func(i, j int) float64 {
			return stats.BinomialTailGE(pcm.CellsPerLine, j, model.ErrProb(c.level, c.taus[i]))
		}
		checkTails(t, fmt.Sprintf("level %d", c.level), c.taus, ge, want, func(int, int) float64 { return 0 })
	}
}

// TestMergedLineCountsAcrossVisitsMatchTail checks the uniform mix, whose
// levels merge into one count, against LineErrorTailGE. That reference
// holds each level at its expected 64 cells, while a write draws its
// data pattern from the multinomial, under which the count is
// Binomial(256, p̄) with p̄ the mix's mean crossing probability. The two
// laws share their mean and differ slightly in spread; the band adds
// their difference.
func TestMergedLineCountsAcrossVisitsMatchTail(t *testing.T) {
	model := pcm.MustModel(testSpec().PCM)
	mix := pcm.UniformMix()
	taus := []float64{3e3, 1e4, 3e4}
	ge := visitCounts(t, mix, taus)
	want := func(i, j int) float64 {
		return model.LineErrorTailGE(mix, pcm.CellsPerLine, j, taus[i])
	}
	slack := func(i, j int) float64 {
		pbar := model.ExpectedLineErrors(mix, pcm.CellsPerLine, taus[i]) / pcm.CellsPerLine
		return math.Abs(want(i, j) - stats.BinomialTailGE(pcm.CellsPerLine, j, pbar))
	}
	checkTails(t, "uniform mix", taus, ge, want, slack)
}

// TestUEOnsetOnHandBuiltLine pins UEDetectDelay's onset on a line whose
// three level streams each hold one crossing, set by hand out of level
// order (+30 s, +10 s, +20 s after a write at 100 s). Onset is the
// (capability+1−stuck)-th crossing in time order, clamped to the
// crossings seen, or the write time before any; it must come out the
// same whether one visit passes the crossings or several do.
func TestUEOnsetOnHandBuiltLine(t *testing.T) {
	s, err := newState(testSpec()) // BCH-4: capability 4
	if err != nil {
		t.Fatal(err)
	}
	defer s.release()
	if s.nstream != 3 {
		t.Fatalf("test premise: %d streams, want 3", s.nstream)
	}
	for _, c := range []struct {
		name   string
		stuck  uint8
		visits []float64
		onset  float64
	}{
		{"second crossing, one visit", 3, []float64{140}, 120},
		{"second crossing, three visits", 3, []float64{115, 125, 140}, 120},
		{"clamped to the third", 0, []float64{125, 140}, 130},
		{"clamped to the first", 2, []float64{115}, 110},
		{"before any crossing", 3, []float64{105}, 100},
	} {
		s.writeTime[0] = 100
		s.onset[0] = 100
		s.stuckBits[0] = c.stuck
		for a, next := range []float64{30, 10, 20} {
			// One cell per level: each stream ends after its crossing.
			s.stream[a] = pcm.Stream{Next: next, Cells: 1}
		}
		s.drift[0] = 0
		s.due[0] = 110 // the level-1 stream's crossing
		for _, tv := range c.visits {
			s.errorBits(0, tv)
		}
		s.res = Result{}
		tv := c.visits[len(c.visits)-1]
		s.attributeDetection(0, tv)
		if got, want := s.res.UEDetectDelay.Mean(), tv-c.onset; got != want {
			t.Errorf("%s: detection delay %g, want %g (onset %g)", c.name, got, want, c.onset)
		}
	}
}
