package engine

import (
	"testing"

	"repro/internal/scrub"
)

// hotSpec returns a config with an extremely skewed write stream so a
// few physical slots take most of the wear when leveling is off.
func hotSpec() Spec {
	cfg := testSpec()
	cfg.Workload.WritesPerLinePerSec = 0.02
	cfg.Workload.FootprintFrac = 0.05 // 12 hot lines out of 256
	cfg.Workload.ZipfSkew = 1.2
	cfg.Interval = 5000
	cfg.Horizon = 50000
	return cfg
}

func TestLevelingSpreadsWear(t *testing.T) {
	noLev, err := Run(hotSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfg := hotSpec()
	cfg.GapMovePeriod = 20
	lev, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lev.LevelerMoves == 0 {
		t.Fatal("leveler never moved the gap")
	}
	if noLev.LevelerMoves != 0 {
		t.Fatal("leveler moves reported with leveling off")
	}
	if lev.MaxLineWrites >= noLev.MaxLineWrites {
		t.Errorf("leveling should flatten the wear hot-spot: max writes %d (lev) vs %d (none)",
			lev.MaxLineWrites, noLev.MaxLineWrites)
	}
}

func TestLevelingMoveAccounting(t *testing.T) {
	cfg := hotSpec()
	cfg.GapMovePeriod = 50
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Counted writes that advance the gap counter: demand + scrub +
	// repairs (gap-move copies do not re-advance it).
	counted := res.DemandWrites + res.ScrubWrites()
	wantMoves := counted / int64(cfg.GapMovePeriod)
	if res.LevelerMoves < wantMoves-1 || res.LevelerMoves > wantMoves+1 {
		t.Errorf("leveler moves %d, want ~%d for %d counted writes",
			res.LevelerMoves, wantMoves, counted)
	}
	// Total line writes include init, demand, scrub and leveler copies.
	floor := int64(res.Lines) + counted + res.LevelerMoves
	if res.TotalLineWrites < floor {
		t.Errorf("total writes %d below accounting floor %d", res.TotalLineWrites, floor)
	}
}

func TestLevelingVisitsSkipGap(t *testing.T) {
	cfg := testSpec()
	cfg.GapMovePeriod = 100
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With the gap skipped, each sweep visits exactly `slots` patrol
	// positions minus one (the live gap), i.e. `lines` visits per sweep.
	perSweep := res.ScrubVisits / int64(res.Sweeps)
	if perSweep != int64(cfg.Geometry.TotalLines()) {
		t.Errorf("visits per sweep = %d, want %d", perSweep, cfg.Geometry.TotalLines())
	}
}

func TestLevelingPreservesReliabilityBehaviour(t *testing.T) {
	// Leveling redistributes wear; it must not change the drift story:
	// the combined-style policy still sees roughly the same UE counts.
	cfg := testSpec()
	cfg.Interval = 40000
	cfg.Horizon = 200000
	cfg.Workload.WritesPerLinePerSec = 0
	cfg.Policy = scrub.Threshold(4)
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.GapMovePeriod = 100
	lev, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same order of magnitude of scrub write-backs (gap copies reset some
	// drift, so leveling may slightly reduce them).
	if lev.ScrubWriteBacks > base.ScrubWriteBacks*2 ||
		base.ScrubWriteBacks > lev.ScrubWriteBacks*2+10 {
		t.Errorf("leveling distorted scrub behaviour: %d vs %d write-backs",
			lev.ScrubWriteBacks, base.ScrubWriteBacks)
	}
}
