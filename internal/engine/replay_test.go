package engine

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// TestReplayedTraceDrivesSimulator runs the simulator from a recorded
// event stream and checks that exactly the recorded writes are applied.
func TestReplayedTraceDrivesSimulator(t *testing.T) {
	cfg := testSpec()
	lines := cfg.Geometry.TotalLines()

	// Record a synthetic trace over the simulation horizon.
	gen, err := trace.NewGenerator(cfg.Workload, lines, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.Record(gen, stats.NewRNG(8), cfg.Horizon, 500)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for _, e := range events {
		if e.Write {
			writes++
		}
	}
	if writes == 0 {
		t.Fatal("trace has no writes; increase rates")
	}

	replayer, err := trace.NewReplayer(events, lines)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Source = replayer
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DemandWrites != int64(writes) {
		t.Errorf("simulator applied %d demand writes, trace holds %d", res.DemandWrites, writes)
	}

	// Replays are deterministic even across runs (the source is fixed).
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.DemandWrites != res.DemandWrites || res2.ScrubWrites() != res.ScrubWrites() {
		t.Error("replayed runs disagree")
	}
}

// TestReplayMatchesGeneratorStatistically compares a replayed trace run
// against a live-generator run of the same workload: scrub-side metrics
// must land in the same statistical regime.
func TestReplayMatchesGeneratorStatistically(t *testing.T) {
	cfg := testSpec()
	cfg.Workload.WritesPerLinePerSec = 1e-4
	live, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := trace.NewGenerator(cfg.Workload, cfg.Geometry.TotalLines(), stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.Record(gen, stats.NewRNG(10), cfg.Horizon, 500)
	if err != nil {
		t.Fatal(err)
	}
	replayer, err := trace.NewReplayer(events, cfg.Geometry.TotalLines())
	if err != nil {
		t.Fatal(err)
	}
	replCfg := cfg
	replCfg.Source = replayer
	repl, err := Run(replCfg)
	if err != nil {
		t.Fatal(err)
	}

	// Demand writes: Poisson(λ) in both cases, so within ~5σ of each other.
	mean := float64(live.DemandWrites+repl.DemandWrites) / 2
	diff := float64(live.DemandWrites - repl.DemandWrites)
	if diff < 0 {
		diff = -diff
	}
	if mean > 0 && diff > 5*3*mean/100+5*2*mean/10 { // generous band
		t.Errorf("demand writes diverge: live %d vs replay %d", live.DemandWrites, repl.DemandWrites)
	}
	// Scrub writes within 2x (drift dominates; demand details are noise).
	if live.ScrubWrites() > 2*repl.ScrubWrites()+20 || repl.ScrubWrites() > 2*live.ScrubWrites()+20 {
		t.Errorf("scrub writes diverge: live %d vs replay %d", live.ScrubWrites(), repl.ScrubWrites())
	}
}
