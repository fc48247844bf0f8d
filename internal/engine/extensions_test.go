package engine

import (
	"testing"

	"repro/internal/ecc"
	"repro/internal/scrub"
)

func TestSLCFractionValidation(t *testing.T) {
	cfg := testSpec()
	cfg.SLCFraction = -0.1
	if err := cfg.Validate(); err == nil {
		t.Error("negative SLC fraction accepted")
	}
	cfg.SLCFraction = 1.1
	if err := cfg.Validate(); err == nil {
		t.Error("SLC fraction > 1 accepted")
	}
}

func TestSLCFractionSuppressesDriftErrors(t *testing.T) {
	base := testSpec()
	base.Scheme = ecc.NewSECDEDLine()
	base.ScrubInterval = 40000
	base.Horizon = 200000
	base.Workload.WritesPerLinePerSec = 0
	run := func(f float64) *Result {
		cfg := base
		cfg.SLCFraction = f
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	none := run(0)
	half := run(0.5)
	all := run(1.0)
	if none.UEs == 0 {
		t.Fatal("expected UEs in the MLC-only run")
	}
	if half.UEs >= none.UEs {
		t.Errorf("half-SLC UEs (%d) should be below MLC-only (%d)", half.UEs, none.UEs)
	}
	if all.UEs != 0 {
		t.Errorf("all-SLC run should have zero drift UEs, got %d", all.UEs)
	}
	if all.CorrectedBits != 0 {
		t.Errorf("all-SLC run corrected %d bits, want 0", all.CorrectedBits)
	}
	// Write-back traffic shrinks proportionally.
	if half.ScrubWrites() >= none.ScrubWrites() {
		t.Errorf("half-SLC scrub writes (%d) should be below MLC-only (%d)",
			half.ScrubWrites(), none.ScrubWrites())
	}
}

func TestUEDetectionAttribution(t *testing.T) {
	cfg := testSpec()
	cfg.Scheme = ecc.NewSECDEDLine()
	cfg.Policy = scrub.Basic()
	cfg.ScrubInterval = 40000
	cfg.Horizon = 200000
	cfg.Workload.WritesPerLinePerSec = 0
	cfg.Workload.ReadsPerLinePerSec = 0.01 // reads every ~100 s per line
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.UEs == 0 {
		t.Fatal("expected UEs")
	}
	if res.UEDetectDelay.N() != res.UEs {
		t.Errorf("detection delays recorded for %d of %d UEs", res.UEDetectDelay.N(), res.UEs)
	}
	// Latency is bounded by one sweep (drift onset within the interval).
	if res.UEDetectDelay.Max() > cfg.ScrubInterval*2+1 {
		t.Errorf("detection delay %.0f s exceeds two sweep intervals", res.UEDetectDelay.Max())
	}
	if res.UEDetectDelay.Mean() <= 0 {
		t.Error("mean detection delay should be positive")
	}
	// With reads every ~100 s and delays of hours, essentially every UE
	// would have been read first.
	if float64(res.UEsReadFirst) < 0.8*float64(res.UEs) {
		t.Errorf("read-first UEs = %d of %d; expected nearly all at this read rate",
			res.UEsReadFirst, res.UEs)
	}
	// With no reads at all, none can be read-first.
	cfg.Workload.ReadsPerLinePerSec = 0
	quiet, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if quiet.UEsReadFirst != 0 {
		t.Errorf("no reads but %d read-first UEs", quiet.UEsReadFirst)
	}
}
