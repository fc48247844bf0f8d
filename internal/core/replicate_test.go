package core

import (
	"context"
	"testing"

	"repro/internal/trace"
)

func TestRunReplicatedBasics(t *testing.T) {
	sys := smallSystem()
	sys.Horizon = 20000
	m, err := SuiteMechanism(sys, "threshold")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunReplicatedContext(context.Background(), sys, m, smallWorkload(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UEs.N() != 4 || len(rep.Results) != 4 {
		t.Fatalf("expected 4 replicas, got %d", rep.UEs.N())
	}
	// Replicas use different seeds: at least one pair of runs should
	// differ in some counter.
	allSame := true
	for _, r := range rep.Results[1:] {
		if r.DemandWrites != rep.Results[0].DemandWrites ||
			r.ScrubWrites() != rep.Results[0].ScrubWrites() {
			allSame = false
			break
		}
	}
	if allSame {
		t.Error("all replicas produced identical counters; seeds not varied?")
	}
	if rep.Mechanism != "threshold" || rep.Workload != "unit-mix" {
		t.Errorf("labels wrong: %s/%s", rep.Mechanism, rep.Workload)
	}
}

func TestRunReplicatedValidation(t *testing.T) {
	sys := smallSystem()
	m, _ := SuiteMechanism(sys, "basic")
	if _, err := RunReplicatedContext(context.Background(), sys, m, smallWorkload(), 0); err == nil {
		t.Error("zero replicas accepted")
	}
	bad := sys
	bad.Horizon = 0
	if _, err := RunReplicatedContext(context.Background(), bad, m, smallWorkload(), 2); err == nil {
		t.Error("invalid system accepted")
	}
}

func TestRunReplicatedDeterministic(t *testing.T) {
	sys := smallSystem()
	sys.Horizon = 20000
	m, _ := SuiteMechanism(sys, "threshold")
	a, err := RunReplicatedContext(context.Background(), sys, m, smallWorkload(), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReplicatedContext(context.Background(), sys, m, smallWorkload(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if a.Results[i].ScrubWrites() != b.Results[i].ScrubWrites() ||
			a.Results[i].UEs != b.Results[i].UEs {
			t.Fatalf("replica %d not reproducible", i)
		}
	}
}

func TestCompareReplicated(t *testing.T) {
	sys := smallSystem()
	sys.Horizon = 40000
	basicM, _ := SuiteMechanism(sys, "basic")
	combM, _ := SuiteMechanism(sys, "combined")
	w := trace.Workload{
		Name: "cold", WritesPerLinePerSec: 1e-6, ReadsPerLinePerSec: 1e-4, FootprintFrac: 1.0,
	}
	base, err := RunReplicatedContext(context.Background(), sys, basicM, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := RunReplicatedContext(context.Background(), sys, combM, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := CompareReplicated(base, prop)
	if err != nil {
		t.Fatal(err)
	}
	if ci.WriteFactor <= 1 {
		t.Errorf("write factor %.2f should exceed 1", ci.WriteFactor)
	}
	if ci.EnergyReductionPct <= 0 {
		t.Errorf("energy reduction %.1f%% should be positive", ci.EnergyReductionPct)
	}
	if ci.WriteFactorStderr < 0 || ci.EnergyReductionStderr < 0 {
		t.Error("negative standard errors")
	}
	// Mismatched replica counts are rejected.
	short := &Replicated{Results: prop.Results[:2]}
	if _, err := CompareReplicated(base, short); err == nil {
		t.Error("mismatched replica counts accepted")
	}
}
