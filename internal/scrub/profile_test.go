package scrub

import "testing"

func TestProfileConfigValidate(t *testing.T) {
	good := DefaultProfile()
	if err := good.Validate(); err != nil {
		t.Fatalf("DefaultProfile invalid: %v", err)
	}
	bad := []ProfileConfig{
		{Every: 0, Passes: 1, RiskThreshold: 1, BiasFraction: 0.5, MaxAtRiskFraction: 0.5},
		{Every: 1, Passes: 0, RiskThreshold: 1, BiasFraction: 0.5, MaxAtRiskFraction: 0.5},
		{Every: 1, Passes: 1, RiskThreshold: 0, BiasFraction: 0.5, MaxAtRiskFraction: 0.5},
		{Every: 1, Passes: 1, RiskThreshold: 1, BiasFraction: 0, MaxAtRiskFraction: 0.5},
		{Every: 1, Passes: 1, RiskThreshold: 1, BiasFraction: 1.5, MaxAtRiskFraction: 0.5},
		{Every: 1, Passes: 1, RiskThreshold: 1, BiasFraction: 0.5, MaxAtRiskFraction: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestProfiledByName(t *testing.T) {
	p, err := ByName("profiled")
	if err != nil {
		t.Fatalf("ByName(profiled): %v", err)
	}
	if p.Profile == nil {
		t.Fatal("profiled policy carries no profiling schedule")
	}
	if *p.Profile != DefaultProfile() {
		t.Fatal("profiled policy carries a non-default schedule")
	}
	if p.Detection() != FullDecode {
		t.Fatal("profiled policy should use full decode")
	}
	// Visible errors at/above the threshold trigger write-back.
	if !p.ShouldWriteBack(VisitInfo{ErrBits: 1, Capability: 4}) {
		t.Fatal("profiled-1 should write back on any visible error")
	}

	p3, err := ByName("profiled-3")
	if err != nil {
		t.Fatalf("ByName(profiled-3): %v", err)
	}
	if p3.Name() != "profiled-3" {
		t.Fatalf("Name = %q, want profiled-3", p3.Name())
	}
	if p3.ShouldWriteBack(VisitInfo{ErrBits: 2, Capability: 4}) {
		t.Fatal("profiled-3 wrote back below threshold")
	}

	// Non-profiled policies must not carry a schedule.
	if Basic().Profile != nil {
		t.Fatal("basic policy carries a profiling schedule")
	}

	if _, err := ByName("profiled-0"); err == nil {
		t.Fatal("profiled-0 should be rejected")
	}
	if len(Names()) == 0 {
		t.Fatal("Names() empty")
	}
}
