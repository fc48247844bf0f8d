package engine

import (
	"fmt"

	"repro/internal/ecc"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/ondie"
	"repro/internal/pcm"
	"repro/internal/scrub"
	"repro/internal/wear"
)

// System bundles everything about the simulated machine that is *not* a
// scrub-mechanism choice: device physics, geometry, energy costs, horizon.
// (core re-exports this type; the study's defaults live in
// core.DefaultSystem.)
type System struct {
	// Geometry shapes the simulated region.
	Geometry mem.Geometry
	// PCM is the drift physics.
	PCM pcm.Params
	// Mix is the data-dependent level distribution of written lines.
	Mix pcm.LevelMix
	// Wear is the endurance model.
	Wear wear.Params
	// InitialLineWrites pre-ages every line (0 = fresh device).
	InitialLineWrites uint32
	// Energy is the per-operation cost table.
	Energy energy.Params
	// Horizon is the simulated duration per run, in seconds.
	Horizon float64
	// Substeps per sweep (time resolution of write/scrub interleaving);
	// 0 selects the default of 16.
	Substeps int
	// RiskTarget is the per-line, per-sweep probability of exceeding the
	// ECC margin that the mechanism ladder derives fixed intervals from.
	// The engine itself never reads it.
	RiskTarget float64
	// Seed makes the run reproducible.
	Seed uint64
	// Fault injects scrub-path faults (imperfect reads, interrupted
	// sweeps, detector aliasing, stuck check bits, controller stalls).
	// nil or an all-zero plan leaves the run bit-identical to a build
	// without fault injection. It lives on System, not Mechanism, because
	// an imperfect controller afflicts every mechanism evaluated on the
	// machine.
	Fault *fault.Plan
	// OnDie layers chip-internal ECC between the cell model and the
	// controller codec: raw errors up to the per-line strength are
	// silently hidden from every controller-side observation. nil or an
	// all-zero config leaves the run bit-identical to a build without
	// the layer. Like Fault it lives on System: the on-die code is baked
	// into the memory parts, so every mechanism sees the same regime.
	OnDie *ondie.Config
}

// Validate checks the system description, including the ladder's
// RiskTarget.
func (s *System) Validate() error {
	if err := s.validateMachine(); err != nil {
		return err
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("core: Horizon must be positive")
	}
	if s.RiskTarget <= 0 || s.RiskTarget >= 1 {
		return fmt.Errorf("core: RiskTarget must be in (0,1)")
	}
	return nil
}

// validateMachine checks the parts of the system every run reads:
// geometry, physics, energy and the fault and on-die layers.
func (s *System) validateMachine() error {
	if err := s.Geometry.Validate(); err != nil {
		return err
	}
	if err := s.PCM.Validate(); err != nil {
		return err
	}
	if err := s.Mix.Validate(); err != nil {
		return err
	}
	if err := s.Wear.Validate(); err != nil {
		return err
	}
	if err := s.Energy.Validate(); err != nil {
		return err
	}
	if err := s.Fault.Validate(); err != nil {
		return err
	}
	return s.OnDie.Validate()
}

// Mechanism is one point in the scrub design space: an ECC scheme, a
// policy, and an initial sweep interval.
type Mechanism struct {
	Name string
	// Scheme is the ECC protection per line.
	Scheme ecc.Scheme
	// Policy is the scrub decision logic.
	Policy scrub.Policy
	// Interval is the initial sweep interval in seconds.
	Interval float64
}

// Options exposes simulator-only knobs that are not part of a Mechanism:
// the optional substrates layered under the scrub study.
type Options struct {
	// GapMovePeriod enables Start-Gap wear leveling: the gap moves after
	// every GapMovePeriod array writes (0 disables leveling). The classic
	// setting of 100 adds 1 % write overhead.
	GapMovePeriod uint64
	// SLCFraction models form-switch storage: on each write, this fraction
	// of lines (the compressible ones) is stored in SLC form, whose huge
	// band separation makes drift crossings negligible. 0 disables.
	SLCFraction float64
	// Source optionally overrides the Workload's synthetic generator with
	// an explicit event stream (e.g. a trace.Replayer over a recorded
	// trace). Workload is still required: its rates parameterise the
	// read-race attribution and validation.
	Source TrafficSource
	// ECPEntries enables Error-Correcting Pointers: up to this many known
	// stuck cells per line are patched before ECC sees the data (0 = off).
	ECPEntries int
	// RecordRounds retains per-sweep statistics in the result.
	RecordRounds bool
}
