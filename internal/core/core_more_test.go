package core

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
)

func TestCombinedMechanismStandsAlone(t *testing.T) {
	// CombinedMechanism must work even where the full Suite cannot —
	// device parameters too coarse for the SECDED baseline's target.
	sys := smallSystem()
	sys.PCM.SigmaProg = 0.16 // SECDED target unreachable
	if _, err := Suite(sys); err == nil {
		t.Fatal("expected Suite to fail at sigma 0.16")
	}
	m, err := CombinedMechanism(sys)
	if err != nil {
		t.Fatalf("CombinedMechanism failed: %v", err)
	}
	if m.Scheme.Name() != "BCH-8" || m.Policy.Name() != "combined" {
		t.Errorf("mechanism wrong: %s/%s", m.Scheme.Name(), m.Policy.Name())
	}
	res, err := runOne(sys, m, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweeps == 0 {
		t.Error("no sweeps simulated")
	}
}

func TestCombinedMechanismRejectsInvalidSystem(t *testing.T) {
	sys := smallSystem()
	sys.Horizon = -1
	if _, err := CombinedMechanism(sys); err == nil {
		t.Error("invalid system accepted")
	}
}

func TestRunOneWithOptions(t *testing.T) {
	sys := smallSystem()
	sys.Horizon = 20000
	m, err := SuiteMechanism(sys, "threshold")
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(engine.ResolveSpec(sys, m, smallWorkload(), engine.Options{
		GapMovePeriod: 50,
		SLCFraction:   0.5,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.LevelerMoves == 0 {
		t.Error("leveling option not applied")
	}
	bad := sys
	bad.Horizon = 0
	if _, err := engine.Run(engine.ResolveSpec(bad, m, smallWorkload(), engine.Options{})); err == nil {
		t.Error("invalid system accepted")
	}
}

func TestRunMatrixPropagatesCellErrors(t *testing.T) {
	sys := smallSystem()
	ms, _ := Suite(sys)
	broken := ms[0]
	broken.Interval = 0 // engine.Spec validation will reject
	if _, err := RunMatrixContext(context.Background(), sys, []Mechanism{broken}, []trace.Workload{smallWorkload()}); err == nil {
		t.Error("broken mechanism accepted by RunMatrixContext")
	}
}

func TestRunOneRejectsInvalidSystem(t *testing.T) {
	sys := smallSystem()
	sys.Horizon = 0
	m := Mechanism{}
	if _, err := runOne(sys, m, smallWorkload()); err == nil {
		t.Error("invalid system accepted")
	}
}

func TestFixedIntervalForUnreachable(t *testing.T) {
	sys := smallSystem()
	sys.PCM.SigmaProg = 0.25 // even instant errors exceed any target
	sys.RiskTarget = 1e-9
	if _, err := FixedIntervalFor(sys, 1); err == nil {
		t.Error("unreachable target accepted")
	}
	bad := sys
	bad.PCM.SigmaProg = -1
	if _, err := FixedIntervalFor(bad, 1); err == nil {
		t.Error("invalid PCM params accepted")
	}
}
