package engine

import (
	"testing"

	"repro/internal/ecc"
	"repro/internal/pcm"
	"repro/internal/scrub"
	"repro/internal/stats"
)

// TestCorrectedBitsMatchAnalyticExpectation pins the whole simulator
// against the closed-form drift model: with no demand traffic and an
// always-write patrol at a fixed interval T, every line is exactly T
// seconds old at each visit (after the first sweep), so the mean number
// of corrected bits per visit must equal the analytic expected line error
// count at age T.
func TestCorrectedBitsMatchAnalyticExpectation(t *testing.T) {
	cfg := testSpec()
	cfg.Policy = scrub.AlwaysWrite()
	cfg.Scheme = ecc.MustBCHLine(8)
	cfg.Interval = 10000
	cfg.Horizon = 110000 // 11 sweeps
	cfg.Workload.WritesPerLinePerSec = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := pcm.MustModel(cfg.PCM)
	want := model.ExpectedLineErrors(cfg.Mix, pcm.CellsPerLine, cfg.Interval)

	// Ignore the first sweep (line ages ramp 0..T there): steady state is
	// sweeps 2..N. CorrectedBits counts all sweeps, so subtract an
	// estimate is noisy — instead require the all-sweep mean to sit
	// between the first-sweep-diluted lower bound and a 15% band.
	lines := float64(cfg.Geometry.TotalLines())
	sweeps := float64(res.Sweeps)
	meanPerVisit := float64(res.CorrectedBits) / (lines * sweeps)
	lower := want * (sweeps - 1) / sweeps * 0.85
	upper := want * 1.15
	if meanPerVisit < lower || meanPerVisit > upper {
		t.Errorf("corrected bits per visit %.4f outside [%.4f, %.4f] (analytic %.4f)",
			meanPerVisit, lower, upper, want)
	}
	// An always-write patrol with BCH-8 at this interval must see
	// essentially no UEs.
	if res.UEs > 2 {
		t.Errorf("unexpected UEs under always-write BCH-8: %d", res.UEs)
	}
}

// TestUERateMatchesAnalyticTail cross-checks the simulator's UE rate for
// the basic SECDED policy against the analytic per-sweep prediction:
// a line is rewritten whenever it shows any error, so at each visit it is
// one interval old, and P(UE) ≈ Σ_k P(k errors)·P(uncorrectable | k).
func TestUERateMatchesAnalyticTail(t *testing.T) {
	cfg := testSpec()
	cfg.Scheme = ecc.NewSECDEDLine()
	cfg.Policy = scrub.Basic()
	cfg.Interval = 30000
	cfg.Horizon = 330000 // 11 sweeps
	cfg.Workload.WritesPerLinePerSec = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := pcm.MustModel(cfg.PCM)
	// Analytic P(UE per line-visit): sum over error counts of
	// P(exactly k) × P(placement defeats per-word SECDED | k), the latter
	// estimated by the scheme's own placement Monte Carlo.
	placeRNG := stats.NewRNG(999)
	pUE := 0.0
	geK := model.LineErrorTailGE(cfg.Mix, pcm.CellsPerLine, 2, cfg.Interval) // P(>= k errors)
	for k := 2; k <= 20; k++ {
		geNext := model.LineErrorTailGE(cfg.Mix, pcm.CellsPerLine, k+1, cfg.Interval)
		if pk := geK - geNext; pk > 0 { // P(exactly k errors)
			pUncorr := ecc.UncorrectableProb(cfg.Scheme, placeRNG, k, 2000)
			pUE += pk * pUncorr
		}
		geK = geNext
	}
	pUE += geK // >20 errors: certainly uncorrectable

	lines := float64(cfg.Geometry.TotalLines())
	sweeps := float64(res.Sweeps)
	measured := float64(res.UEs) / (lines * sweeps)
	t.Logf("UE rate per line-visit: measured %.3f, analytic %.3f (ratio %.2f)", measured, pUE, measured/pUE)
	// Generous band: placement MC and the ramp-up sweep add noise, and
	// the binomial count is small. Require same order of magnitude and
	// a two-sided factor-2.5 agreement.
	if measured < pUE/2.5 || measured > pUE*2.5 {
		t.Errorf("UE rate per line-visit: measured %.2e vs analytic %.2e", measured, pUE)
	}
}
