package engine

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/trace"
)

// crcBits is the storage cost of the lightweight detection checksum.
const crcBits = 16

// crcMissProb is the aliasing probability of the 16-bit checksum: the
// chance a genuinely erroneous line reads as clean on a light probe.
const crcMissProb = 1.0 / 65536.0

// Spec is the fully resolved description of one simulation run — the
// single input of the engine. It composes the machine (System), the
// mechanism under test (Mechanism), the workload, and the optional
// substrates (Options); each field is declared once, on its layer.
type Spec struct {
	System
	Mechanism
	// Workload drives demand traffic.
	Workload trace.Workload
	Options
}

// ResolveSpec assembles a Spec from its layers. It is the constructor the
// runners outside this package share (core's replication and shards, the
// scrubd service, the cluster workers, the fleet).
func ResolveSpec(sys System, m Mechanism, w trace.Workload, o Options) Spec {
	return Spec{System: sys, Mechanism: m, Workload: w, Options: o}
}

// TrafficSource supplies demand-write targets per epoch. Both
// trace.Generator and trace.Replayer satisfy it.
type TrafficSource interface {
	// WritesInEpoch returns the lines written in [t, t+dt), reusing buf.
	WritesInEpoch(r *stats.RNG, t, dt float64, buf []int) []int
}

// Validate checks the specification. System.RiskTarget is not checked:
// only the mechanism ladder reads it.
func (c *Spec) Validate() error {
	if err := c.System.validateMachine(); err != nil {
		return err
	}
	if c.Scheme == nil {
		return fmt.Errorf("engine: Scheme is required")
	}
	if err := c.Policy.Validate(); err != nil {
		return fmt.Errorf("engine: Policy: %w", err)
	}
	if c.Interval <= 0 {
		return fmt.Errorf("engine: Interval must be positive")
	}
	if c.Horizon < c.Interval {
		return fmt.Errorf("engine: Horizon (%g) must cover at least one sweep (%g)", c.Horizon, c.Interval)
	}
	if c.Substeps < 0 {
		return fmt.Errorf("engine: Substeps must be non-negative")
	}
	if c.SLCFraction < 0 || c.SLCFraction > 1 {
		return fmt.Errorf("engine: SLCFraction must be in [0,1]")
	}
	if c.ECPEntries < 0 {
		return fmt.Errorf("engine: ECPEntries must be non-negative")
	}
	return c.Workload.Validate()
}
