package engine

import (
	"math"
	"testing"

	"repro/internal/ecc"
	"repro/internal/pcm"
	"repro/internal/scrub"
)

func TestConfigValidation(t *testing.T) {
	good := testSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"nil scheme", func(c *Spec) { c.Scheme = nil }},
		{"nil policy", func(c *Spec) { c.Policy = nil }},
		{"zero interval", func(c *Spec) { c.ScrubInterval = 0 }},
		{"horizon < interval", func(c *Spec) { c.Horizon = c.ScrubInterval / 2 }},
		{"negative substeps", func(c *Spec) { c.Substeps = -1 }},
		{"huge trackK", func(c *Spec) { c.TrackK = 99 }},
		{"bad geometry", func(c *Spec) { c.Geometry.RowsPerBank = 0 }},
		{"bad pcm", func(c *Spec) { c.PCM.SigmaProg = -1 }},
		{"bad mix", func(c *Spec) { c.Mix = pcm.LevelMix{1, 1, 0, 0} }},
		{"bad wear", func(c *Spec) { c.Wear.K = 0 }},
		{"bad energy", func(c *Spec) { c.Energy.ArrayWritePJPerBit = 0 }},
		{"bad workload", func(c *Spec) { c.Workload.FootprintFrac = 0 }},
	}
	for _, c := range cases {
		cfg := testSpec()
		c.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestRunBasicInvariants(t *testing.T) {
	cfg := testSpec()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := cfg.Geometry.TotalLines()
	if res.Lines != lines {
		t.Errorf("lines = %d, want %d", res.Lines, lines)
	}
	if res.Sweeps != 5 {
		t.Errorf("sweeps = %d, want 5", res.Sweeps)
	}
	if res.ScrubVisits != int64(lines*res.Sweeps) {
		t.Errorf("visits = %d, want %d", res.ScrubVisits, lines*res.Sweeps)
	}
	// Full-decode policy decodes every visit and never probes.
	if res.ScrubDecodes != res.ScrubVisits {
		t.Errorf("decodes = %d, want %d", res.ScrubDecodes, res.ScrubVisits)
	}
	if res.ScrubProbes != 0 {
		t.Errorf("probes = %d, want 0 for full decode", res.ScrubProbes)
	}
	if res.ScrubWrites() > res.ScrubVisits {
		t.Error("cannot write back more lines than visited")
	}
	if res.ScrubEnergy.Total() <= 0 {
		t.Error("scrub energy must be positive")
	}
	if res.SimSeconds != cfg.Horizon {
		t.Errorf("sim seconds = %g, want %g", res.SimSeconds, cfg.Horizon)
	}
	if res.FinalInterval != cfg.ScrubInterval {
		t.Errorf("fixed policy interval changed: %g", res.FinalInterval)
	}
	// Every line was written at least once (initialisation).
	if res.TotalLineWrites < int64(lines) {
		t.Errorf("total line writes = %d < lines", res.TotalLineWrites)
	}
}

func TestRunReproducible(t *testing.T) {
	cfg := testSpec()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.UEs != b.UEs || a.ScrubWrites() != b.ScrubWrites() ||
		a.DemandWrites != b.DemandWrites ||
		math.Abs(a.ScrubEnergy.Total()-b.ScrubEnergy.Total()) > 1e-6 {
		t.Error("same seed produced different results")
	}
	cfg.Seed = 43
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.DemandWrites == c.DemandWrites && a.ScrubWrites() == c.ScrubWrites() && a.UEs == c.UEs {
		t.Log("warning: different seed produced identical results (possible but unlikely)")
	}
}

func TestAlwaysWriteWritesEveryVisit(t *testing.T) {
	cfg := testSpec()
	cfg.Policy = scrub.AlwaysWrite()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScrubWrites() != res.ScrubVisits {
		t.Errorf("always-write wrote %d of %d visits", res.ScrubWrites(), res.ScrubVisits)
	}
}

func TestLightDetectSkipsCleanDecodes(t *testing.T) {
	cfg := testSpec()
	cfg.Policy = scrub.LightBasic()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScrubProbes != res.ScrubVisits {
		t.Errorf("probes = %d, want %d", res.ScrubProbes, res.ScrubVisits)
	}
	if res.ScrubDecodes >= res.ScrubVisits {
		t.Errorf("light detect should decode a strict subset: %d of %d", res.ScrubDecodes, res.ScrubVisits)
	}
	// Energy comparison on the *check path* (read + decode + detect):
	// light detect must beat full decode there. Total scrub energy is
	// dominated by write-backs, which differ run to run and carry the
	// CRC storage overhead, so it is not the right comparison here.
	full, err := Run(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	lightCheck := res.ScrubEnergy.ReadPJ + res.ScrubEnergy.DecodePJ + res.ScrubEnergy.DetectPJ
	fullCheck := full.ScrubEnergy.ReadPJ + full.ScrubEnergy.DecodePJ + full.ScrubEnergy.DetectPJ
	if lightCheck >= fullCheck {
		t.Errorf("light-detect check energy %.3g >= full-decode %.3g", lightCheck, fullCheck)
	}
}

func TestThresholdReducesScrubWrites(t *testing.T) {
	base := testSpec()
	// Long interval so errors accumulate and the threshold matters.
	base.ScrubInterval = 50000
	base.Horizon = 250000
	runWith := func(p scrub.Policy) *Result {
		cfg := base
		cfg.Policy = p
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	onError := runWith(scrub.Basic())
	thr3 := runWith(scrub.Threshold(3))
	if thr3.ScrubWrites() >= onError.ScrubWrites() {
		t.Errorf("threshold-3 writes (%d) should be below write-on-error (%d)",
			thr3.ScrubWrites(), onError.ScrubWrites())
	}
}

func TestSECDEDSuffersMoreUEsThanBCH8(t *testing.T) {
	base := testSpec()
	base.ScrubInterval = 40000 // ~3 expected drift errors per line per sweep
	base.Horizon = 200000
	base.Workload.WritesPerLinePerSec = 0 // pure drift, no demand rewrites
	runWith := func(s ecc.Scheme) *Result {
		cfg := base
		cfg.Scheme = s
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sec := runWith(ecc.NewSECDEDLine())
	bch := runWith(ecc.MustBCHLine(8))
	if sec.UEs == 0 {
		t.Fatal("expected SECDED UEs at a 40000 s interval under pure drift")
	}
	if bch.UEs >= sec.UEs {
		t.Errorf("BCH-8 UEs (%d) should be far below SECDED UEs (%d)", bch.UEs, sec.UEs)
	}
}

func TestDemandWritesSuppressDriftErrors(t *testing.T) {
	base := testSpec()
	base.ScrubInterval = 40000
	base.Horizon = 200000
	base.Scheme = ecc.NewSECDEDLine()
	runWith := func(rate float64) *Result {
		cfg := base
		cfg.Workload.WritesPerLinePerSec = rate
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	idle := runWith(0)
	busy := runWith(0.001) // mean rewrite every 1000 s ≪ interval
	if busy.UEs >= idle.UEs {
		t.Errorf("frequent rewrites should suppress UEs: busy %d vs idle %d", busy.UEs, idle.UEs)
	}
}

func TestUEsRepaired(t *testing.T) {
	cfg := testSpec()
	cfg.Scheme = ecc.NewSECDEDLine()
	cfg.ScrubInterval = 40000
	cfg.Horizon = 200000
	cfg.Workload.WritesPerLinePerSec = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.UEs == 0 {
		t.Fatal("expected UEs")
	}
	if res.RepairWrites != res.UEs {
		t.Errorf("repairs (%d) must equal UEs (%d)", res.RepairWrites, res.UEs)
	}
}

func TestAdaptiveIntervalMoves(t *testing.T) {
	cfg := testSpec()
	a := scrub.AdaptiveConfig{
		MinInterval: 1000, MaxInterval: 100000,
		Shrink: 0.5, Grow: 1.5,
		HighWater: 1e-3, LowWater: 1e-4,
	}
	cfg.Policy = scrub.MustNew(scrub.Config{
		Label: "adaptive-test", Detect: scrub.FullDecode,
		WriteThreshold: 1, Adaptive: &a,
	})
	cfg.Scheme = ecc.MustBCHLine(8) // wide margin → controller should relax
	cfg.ScrubInterval = 2000
	cfg.Horizon = 100000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At a 2000 s interval with BCH-4, drift pressure is negligible, so
	// the controller must have grown the interval.
	if res.FinalInterval <= cfg.ScrubInterval {
		t.Errorf("adaptive interval did not grow: %g", res.FinalInterval)
	}
}

func TestRecordRounds(t *testing.T) {
	cfg := testSpec()
	cfg.RecordRounds = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != res.Sweeps {
		t.Fatalf("recorded %d rounds, want %d", len(res.Rounds), res.Sweeps)
	}
	var visits int64
	for i, rr := range res.Rounds {
		if rr.Interval != cfg.ScrubInterval {
			t.Errorf("round %d interval %g", i, rr.Interval)
		}
		visits += rr.Stats.Lines
	}
	if visits != res.ScrubVisits {
		t.Errorf("round line counts (%d) disagree with visit total (%d)", visits, res.ScrubVisits)
	}
}

func TestPreAgingCreatesDeadCells(t *testing.T) {
	cfg := testSpec()
	cfg.InitialLineWrites = 3_000_000_000 // far beyond 10^8 median endurance
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LinesWithDead != res.Lines {
		t.Errorf("every line should have dead cells at 3e9 writes; got %d of %d",
			res.LinesWithDead, res.Lines)
	}
	fresh, err := Run(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if fresh.LinesWithDead != 0 {
		t.Errorf("fresh device should have no dead cells, got %d", fresh.LinesWithDead)
	}
}

func TestResultRateHelpers(t *testing.T) {
	cfg := testSpec()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ScrubReadRate(); math.Abs(got-float64(res.ScrubVisits)/res.SimSeconds) > 1e-9 {
		t.Errorf("scrub read rate = %g", got)
	}
	wantW := float64(res.ScrubWrites()) / res.SimSeconds
	if got := res.ScrubWriteRate(); math.Abs(got-wantW) > 1e-9 {
		t.Errorf("scrub write rate = %g", got)
	}
	empty := &Result{}
	if empty.ScrubReadRate() != 0 || empty.ScrubWriteRate() != 0 || empty.UERatePerGBDay(64) != 0 {
		t.Error("zero-duration result should report zero rates")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := testSpec()
	cfg.Scheme = nil
	if _, err := Run(cfg); err == nil {
		t.Error("invalid config accepted by Run")
	}
}

func TestWearAccumulatesWithScrubWrites(t *testing.T) {
	// always-write at a short interval racks up line writes fast.
	cfg := testSpec()
	cfg.Policy = scrub.AlwaysWrite()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each line: 1 init + 5 sweeps of forced write-backs + demand.
	minWrites := int64(cfg.Geometry.TotalLines() * 6)
	if res.TotalLineWrites < minWrites {
		t.Errorf("total writes %d below floor %d", res.TotalLineWrites, minWrites)
	}
}
