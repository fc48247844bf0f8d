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
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wear"
)

// crcBits is the storage cost of the lightweight detection checksum.
const crcBits = 16

// crcMissProb is the aliasing probability of the 16-bit checksum: the
// chance a genuinely erroneous line reads as clean on a light probe.
const crcMissProb = 1.0 / 65536.0

// Spec is the fully resolved description of one simulation run — the
// single input of the engine. It subsumes the system description
// (geometry, physics, energy), the mechanism under test (scheme, policy,
// interval), the workload, and every optional substrate (leveling, SLC
// form switch, ECP, trace replay, fault injection).
type Spec struct {
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
	// Scheme is the ECC protection per line.
	Scheme ecc.Scheme
	// Policy is the scrub decision logic.
	Policy scrub.Policy
	// ScrubInterval is the initial sweep interval in seconds.
	ScrubInterval float64
	// Horizon is the simulated duration in seconds.
	Horizon float64
	// Substeps per sweep (time resolution of write/scrub interleaving);
	// 0 selects the default of 16.
	Substeps int
	// Workload drives demand traffic.
	Workload trace.Workload
	// Seed makes the run reproducible.
	Seed uint64
	// TrackK overrides how many earliest crossings are tracked per line;
	// 0 selects max(T+4, 8) capped at 16.
	TrackK int
	// RecordRounds retains per-sweep statistics in the result.
	RecordRounds bool
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
	// Fault injects scrub-path faults (imperfect reads, interrupted
	// sweeps, detector aliasing, stuck check bits, controller stalls).
	// nil or an all-zero plan leaves the run bit-identical to a build
	// without fault injection.
	Fault *fault.Plan
	// OnDie layers chip-internal ECC between the cell model and the
	// controller codec: raw errors up to the per-line strength are
	// silently hidden from every controller-side observation. nil or an
	// all-zero config leaves the run bit-identical to a build without
	// the layer.
	OnDie *ondie.Config
}

// TrafficSource supplies demand-write targets per epoch. Both
// trace.Generator and trace.Replayer satisfy it.
type TrafficSource interface {
	// WritesInEpoch returns the lines written in [t, t+dt), reusing buf.
	WritesInEpoch(r *stats.RNG, t, dt float64, buf []int) []int
}

// Validate checks the specification.
func (c *Spec) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.PCM.Validate(); err != nil {
		return err
	}
	if err := c.Mix.Validate(); err != nil {
		return err
	}
	if err := c.Wear.Validate(); err != nil {
		return err
	}
	if err := c.Energy.Validate(); err != nil {
		return err
	}
	if c.Scheme == nil {
		return fmt.Errorf("engine: Scheme is required")
	}
	if c.Policy == nil {
		return fmt.Errorf("engine: Policy is required")
	}
	if c.ScrubInterval <= 0 {
		return fmt.Errorf("engine: ScrubInterval must be positive")
	}
	if c.Horizon < c.ScrubInterval {
		return fmt.Errorf("engine: Horizon (%g) must cover at least one sweep (%g)", c.Horizon, c.ScrubInterval)
	}
	if c.Substeps < 0 {
		return fmt.Errorf("engine: Substeps must be non-negative")
	}
	if c.TrackK < 0 || c.TrackK > 16 {
		return fmt.Errorf("engine: TrackK must be in [0,16]")
	}
	if c.SLCFraction < 0 || c.SLCFraction > 1 {
		return fmt.Errorf("engine: SLCFraction must be in [0,1]")
	}
	if c.ECPEntries < 0 {
		return fmt.Errorf("engine: ECPEntries must be non-negative")
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	if err := c.OnDie.Validate(); err != nil {
		return err
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	return nil
}
