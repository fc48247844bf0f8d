package engine

import (
	"testing"

	"repro/internal/scrub"
)

func TestECPValidation(t *testing.T) {
	cfg := testSpec()
	cfg.ECPEntries = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative ECP entries accepted")
	}
}

func TestECPAbsorbsStuckCells(t *testing.T) {
	// Heavily aged device: ~4-5 dead cells per line. Without ECP the
	// stuck bits eat most of the BCH-8 budget and drift finishes the job;
	// with ECP-8 the stuck cells vanish from the ECC's view.
	base := testSpec()
	base.InitialLineWrites = 30_000_000
	base.ScrubInterval = 20000
	base.Horizon = 100000
	base.Workload.WritesPerLinePerSec = 0
	base.Policy = scrub.Threshold(4)

	run := func(entries int) *Result {
		cfg := base
		cfg.ECPEntries = entries
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	none := run(0)
	full := run(12) // more entries than any line has dead cells

	if none.DeadCells == 0 {
		t.Fatal("pre-aging produced no dead cells; test needs a harder device")
	}
	// The raw wear census is driven by pre-aging, not ECP; the two runs'
	// RNG streams diverge (different stuck-residuals change draw counts),
	// so require agreement within 10 % rather than exact equality.
	ratio := float64(none.DeadCells) / float64(full.DeadCells)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("wear census diverged with ECP: %d vs %d dead cells",
			none.DeadCells, full.DeadCells)
	}
	if none.ECPCoveredCells != 0 {
		t.Errorf("ECP-0 covered %d cells", none.ECPCoveredCells)
	}
	if full.ECPCoveredCells != full.DeadCells {
		t.Errorf("ECP-12 covered %d of %d dead cells", full.ECPCoveredCells, full.DeadCells)
	}
	// Reliability: stuck-cell pressure gone, UEs drop (or stay at zero).
	if full.UEs > none.UEs {
		t.Errorf("ECP increased UEs: %d vs %d", full.UEs, none.UEs)
	}
	if none.UEs > 0 && full.UEs >= none.UEs {
		t.Errorf("ECP did not reduce UEs: %d vs %d", full.UEs, none.UEs)
	}
	// Scrub writes drop too: wear-ware... no, Threshold(4) counts stuck
	// bits toward the write threshold, so patched lines trigger fewer
	// write-backs.
	if full.ScrubWrites() > none.ScrubWrites() {
		t.Errorf("ECP increased scrub writes: %d vs %d", full.ScrubWrites(), none.ScrubWrites())
	}
}

func TestECPPartialCoverage(t *testing.T) {
	base := testSpec()
	base.InitialLineWrites = 30_000_000
	base.ECPEntries = 2
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.ECPCoveredCells == 0 {
		t.Error("ECP-2 covered nothing on an aged device")
	}
	if res.ECPCoveredCells > res.DeadCells {
		t.Errorf("covered %d exceeds dead %d", res.ECPCoveredCells, res.DeadCells)
	}
}
