// Package fleet is scrubd's RAS control plane: a registry of long-lived
// simulated devices, each scrubbed continuously by a background patrol
// session, reconfigurable live, interruptible by on-demand region scrubs,
// and monitored by an error-statistics store that turns scrub telemetry
// into Post-Package-Repair decisions. It is the EDAC scrub-control
// surface (background patrol rate, on-demand address-range scrub, repair
// statistics) modeled over the paper's cell physics: the shape the
// paper's mechanisms actually ship into.
//
// Every device trajectory is deterministic in its spec's seed and the
// sequence of control operations applied to it, so a fleet scenario can
// be replayed exactly — the foundation of the golden tests and of
// journal-based recovery (the journal persists specs, never state).
package fleet

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/scrub"
	"repro/internal/service"
)

// DefaultPassSeconds is the simulated time one full background patrol
// pass covers when the spec does not set a rate: the classic "scrub the
// whole device every 24 hours" patrol.
const DefaultPassSeconds = 86400

// Patrol session defaults.
const (
	// DefaultChunkLines is the patrol increment: control operations
	// (rate patches, on-demand scrubs) take effect at this granularity.
	DefaultChunkLines = 64
	// DefaultTickMillis is the wall-clock pacing between increments.
	DefaultTickMillis = 50
)

// Repair-engine defaults: a line observed with correctable errors on
// DefaultCEThreshold scrub visits inside a sliding DefaultCEWindowSec of
// simulated time is spared via simulated Post-Package-Repair.
const (
	DefaultCEWindowSec = 86400.0
	DefaultCEThreshold = 4
	DefaultSpareBudget = 64
)

// PatrolConfig is a device's background-scrub configuration. All fields
// are optional at registration; zero values select the defaults above.
type PatrolConfig struct {
	// RateLinesPerSec is the patrol scrub rate in device lines per
	// simulated second. Each chunk of ChunkLines advances the device
	// clock by ChunkLines/Rate seconds, so a slower rate leaves more
	// drift time between visits — exactly the paper's trade-off.
	// 0 derives the rate from one full pass per DefaultPassSeconds.
	RateLinesPerSec float64 `json:"rate_lines_per_sec,omitempty"`
	// ChunkLines is the increment size: the preemption and
	// reconfiguration granularity.
	ChunkLines int `json:"chunk_lines,omitempty"`
	// TickMillis paces the live session between increments in wall
	// milliseconds. It shapes daemon CPU use only — simulated
	// trajectories never depend on it.
	TickMillis int `json:"tick_millis,omitempty"`
	// Paused suspends background patrol (on-demand scrubs still run).
	Paused bool `json:"paused,omitempty"`
}

// withDefaults materialises the patrol defaults for a device with the
// given line count.
func (p PatrolConfig) withDefaults(lines int) PatrolConfig {
	if p.RateLinesPerSec == 0 {
		p.RateLinesPerSec = float64(lines) / DefaultPassSeconds
	}
	if p.ChunkLines == 0 {
		p.ChunkLines = DefaultChunkLines
	}
	if p.ChunkLines > lines {
		p.ChunkLines = lines
	}
	if p.TickMillis == 0 {
		p.TickMillis = DefaultTickMillis
	}
	return p
}

// Validate checks a materialised patrol configuration.
func (p PatrolConfig) Validate() error {
	if p.RateLinesPerSec <= 0 {
		return fmt.Errorf("fleet: patrol rate must be positive, got %g", p.RateLinesPerSec)
	}
	if p.ChunkLines <= 0 {
		return fmt.Errorf("fleet: patrol chunk must be positive, got %d", p.ChunkLines)
	}
	if p.TickMillis < 0 {
		return fmt.Errorf("fleet: patrol tick must be non-negative, got %d", p.TickMillis)
	}
	return nil
}

// PatrolPatch is the body of PATCH /v1/fleet/devices/{id}/patrol: every
// field is optional, absent fields keep their current value, and the
// merged configuration governs the session from its next chunk boundary.
type PatrolPatch struct {
	RateLinesPerSec *float64 `json:"rate_lines_per_sec,omitempty"`
	ChunkLines      *int     `json:"chunk_lines,omitempty"`
	TickMillis      *int     `json:"tick_millis,omitempty"`
	Paused          *bool    `json:"paused,omitempty"`
	// Policy optionally swaps the device's scrub policy live
	// (basic|always|light|threshold-<k>|combined-<k>|profiled|profiled-<k>).
	Policy *string `json:"policy,omitempty"`
}

// RepairConfig tunes the device's telemetry-driven repair engine.
type RepairConfig struct {
	// CEWindowSec is the sliding window (simulated seconds) over which
	// per-line correctable-error observations are counted.
	CEWindowSec float64 `json:"ce_window_sec,omitempty"`
	// CEThreshold is the windowed CE count at which the line is spared.
	CEThreshold int `json:"ce_threshold,omitempty"`
	// SpareBudget bounds repairs per device, modeling finite PPR spares
	// (0 = DefaultSpareBudget; negative = unlimited).
	SpareBudget int `json:"spare_budget,omitempty"`
	// Disabled turns automatic repair off; telemetry still accumulates.
	Disabled bool `json:"disabled,omitempty"`
}

func (r RepairConfig) withDefaults() RepairConfig {
	if r.CEWindowSec == 0 {
		r.CEWindowSec = DefaultCEWindowSec
	}
	if r.CEThreshold == 0 {
		r.CEThreshold = DefaultCEThreshold
	}
	if r.SpareBudget == 0 {
		r.SpareBudget = DefaultSpareBudget
	}
	return r
}

// Validate checks a materialised repair configuration.
func (r RepairConfig) Validate() error {
	if r.CEWindowSec <= 0 {
		return fmt.Errorf("fleet: CE window must be positive, got %g", r.CEWindowSec)
	}
	if r.CEThreshold <= 0 {
		return fmt.Errorf("fleet: CE threshold must be positive, got %d", r.CEThreshold)
	}
	return nil
}

// DeviceSpec registers one simulated device. The simulation fields reuse
// the serving layer's wire vocabulary (mechanism/scheme/policy names,
// geometry, fault plans) so fleet specs and job specs read alike.
type DeviceSpec struct {
	// Name is an optional operator label (the fleet mints the ID).
	Name string `json:"name,omitempty"`
	// Mechanism names a suite mechanism ("" = combined); Scheme and
	// Policy optionally override its parts.
	Mechanism string `json:"mechanism,omitempty"`
	Scheme    string `json:"scheme,omitempty"`
	Policy    string `json:"policy,omitempty"`
	// Workload drives the device's demand traffic (required).
	Workload string `json:"workload"`
	// Seed pins the device trajectory (0 = the study default seed).
	Seed uint64 `json:"seed,omitempty"`
	// AgedWrites pre-ages every line by this many writes.
	AgedWrites uint32 `json:"aged_writes,omitempty"`
	// Geometry optionally shrinks or grows the device.
	Geometry *service.GeometrySpec `json:"geometry,omitempty"`
	// Fault optionally injects scrub-path controller faults.
	Fault *service.FaultSpec `json:"fault,omitempty"`
	// OnDie optionally puts an on-die ECC layer under the controller
	// codec (hidden-error regime; see internal/ondie).
	OnDie *service.OnDieSpec `json:"ondie,omitempty"`
	// Patrol is the initial patrol configuration.
	Patrol *PatrolConfig `json:"patrol,omitempty"`
	// Repair tunes the telemetry-driven repair engine.
	Repair *RepairConfig `json:"repair,omitempty"`
}

// build assembles the engine spec and materialised patrol/repair configs.
func (ds DeviceSpec) build() (engine.Spec, PatrolConfig, RepairConfig, error) {
	if ds.Workload == "" {
		return engine.Spec{}, PatrolConfig{}, RepairConfig{}, fmt.Errorf("fleet: device spec needs a workload")
	}
	ss := service.Spec{
		Mechanism:  ds.Mechanism,
		Scheme:     ds.Scheme,
		Policy:     ds.Policy,
		Workload:   ds.Workload,
		Seed:       ds.Seed,
		AgedWrites: ds.AgedWrites,
		Geometry:   ds.Geometry,
		Fault:      ds.Fault,
		OnDie:      ds.OnDie,
	}
	sys, mech, w, err := ss.Build()
	if err != nil {
		return engine.Spec{}, PatrolConfig{}, RepairConfig{}, err
	}
	spec := engine.ResolveSpec(sys, mech, w, engine.Options{})
	lines := spec.Geometry.TotalLines()
	var patrol PatrolConfig
	if ds.Patrol != nil {
		patrol = *ds.Patrol
	}
	patrol = patrol.withDefaults(lines)
	if err := patrol.Validate(); err != nil {
		return engine.Spec{}, PatrolConfig{}, RepairConfig{}, err
	}
	var repair RepairConfig
	if ds.Repair != nil {
		repair = *ds.Repair
	}
	repair = repair.withDefaults()
	if err := repair.Validate(); err != nil {
		return engine.Spec{}, PatrolConfig{}, RepairConfig{}, err
	}
	return spec, patrol, repair, nil
}

// policyByName resolves a live policy swap. An unknown name reports the
// full valid vocabulary so a PATCH caller can self-correct from the 400
// body alone.
func policyByName(name string) (scrub.Policy, error) {
	p, err := scrub.ByName(name)
	if err != nil {
		return scrub.Policy{}, fmt.Errorf("fleet: unknown policy %q (valid: %s)",
			name, strings.Join(scrub.Names(), ", "))
	}
	return p, nil
}

// ScrubRequest is the body of POST /v1/fleet/devices/{id}/scrubs: an
// on-demand scrub of the logical line range [first, first+count).
type ScrubRequest struct {
	First int `json:"first"`
	Count int `json:"count"`
}
