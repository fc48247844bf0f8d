// Package service turns the batch simulator into a long-running serving
// subsystem: a canonical, content-addressed job spec; a bounded priority
// job queue with per-job lifecycle states; a worker pool that executes jobs
// via the resilient replication runner with per-job cancellation and
// panic containment; an LRU result cache keyed by the spec fingerprint
// with single-flight deduplication; and an operational counters snapshot.
// cmd/scrubd exposes it over HTTP/JSON.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/ondie"
	"repro/internal/scrub"
	"repro/internal/trace"
)

// specVersion is folded into every fingerprint so a change to spec
// semantics (defaults, field meanings) invalidates old cache keys rather
// than silently serving results computed under different rules.
const specVersion = "scrubd/v1"

// MaxReplicas bounds the Monte Carlo fan-out of one job so a single
// submission cannot monopolise the daemon.
const MaxReplicas = 256

// GeometrySpec shapes the simulated region; zero-valued fields (or a nil
// GeometrySpec) select the study's default geometry.
type GeometrySpec struct {
	Channels     int `json:"channels"`
	RanksPerChan int `json:"ranks_per_chan"`
	BanksPerRank int `json:"banks_per_rank"`
	RowsPerBank  int `json:"rows_per_bank"`
	LinesPerRow  int `json:"lines_per_row"`
	LineBytes    int `json:"line_bytes"`
}

// geometry converts the wire form to the simulator's geometry.
func (g *GeometrySpec) geometry() mem.Geometry {
	return mem.Geometry{
		Channels: g.Channels, RanksPerChan: g.RanksPerChan, BanksPerRank: g.BanksPerRank,
		RowsPerBank: g.RowsPerBank, LinesPerRow: g.LinesPerRow, LineBytes: g.LineBytes,
	}
}

// geometrySpec converts the simulator's geometry to wire form.
func geometrySpec(g mem.Geometry) *GeometrySpec {
	return &GeometrySpec{
		Channels: g.Channels, RanksPerChan: g.RanksPerChan, BanksPerRank: g.BanksPerRank,
		RowsPerBank: g.RowsPerBank, LinesPerRow: g.LinesPerRow, LineBytes: g.LineBytes,
	}
}

// FaultSpec mirrors fault.Plan in wire form: per-site rates of the
// imperfect scrub controller. An all-zero (or absent) FaultSpec is the
// perfect-controller baseline.
type FaultSpec struct {
	ReadFlipRate    float64 `json:"read_flip_rate,omitempty"`
	ReadFlipMaxBits int     `json:"read_flip_max_bits,omitempty"`
	SweepSkipRate   float64 `json:"sweep_skip_rate,omitempty"`
	ProbeMissRate   float64 `json:"probe_miss_rate,omitempty"`
	StuckCheckRate  float64 `json:"stuck_check_rate,omitempty"`
	StuckCheckBits  int     `json:"stuck_check_bits,omitempty"`
	StallRate       float64 `json:"stall_rate,omitempty"`
	StallFactor     float64 `json:"stall_factor,omitempty"`
	Seed            uint64  `json:"seed,omitempty"`
}

// plan converts the wire form to the simulator's fault plan.
func (f *FaultSpec) plan() *fault.Plan {
	if f == nil {
		return nil
	}
	return &fault.Plan{
		ReadFlipRate:    f.ReadFlipRate,
		ReadFlipMaxBits: f.ReadFlipMaxBits,
		SweepSkipRate:   f.SweepSkipRate,
		ProbeMissRate:   f.ProbeMissRate,
		StuckCheckRate:  f.StuckCheckRate,
		StuckCheckBits:  f.StuckCheckBits,
		StallRate:       f.StallRate,
		StallFactor:     f.StallFactor,
		Seed:            f.Seed,
	}
}

// OnDieSpec mirrors ondie.Config in wire form: the chip-internal ECC
// layered under the controller. An all-zero (or absent) OnDieSpec is
// the no-on-die-ECC baseline.
type OnDieSpec struct {
	T            int     `json:"t,omitempty"`
	WeakT        int     `json:"weak_t,omitempty"`
	WeakFraction float64 `json:"weak_fraction,omitempty"`
}

// config converts the wire form to the simulator's on-die config.
func (o *OnDieSpec) config() *ondie.Config {
	if o == nil {
		return nil
	}
	return &ondie.Config{T: o.T, WeakT: o.WeakT, WeakFraction: o.WeakFraction}
}

// Spec is the canonical description of one simulation job: the system,
// the mechanism, the workload, and the replica count. Two specs that
// normalise identically denote the same deterministic computation and
// share one fingerprint — the key of the result cache and of
// single-flight deduplication.
type Spec struct {
	// Mechanism names a suite mechanism:
	// basic|strong-ecc|light-detect|threshold|combined ("" = combined).
	Mechanism string `json:"mechanism,omitempty"`
	// Scheme optionally overrides the ECC scheme: SECDED, BCH-<t>, RS-<t>.
	Scheme string `json:"scheme,omitempty"`
	// Policy optionally overrides the scrub policy:
	// basic|always|light|threshold-<k>|combined-<k>.
	Policy string `json:"policy,omitempty"`
	// IntervalSec optionally overrides the initial sweep interval
	// (0 = derived from the drift model).
	IntervalSec float64 `json:"interval_sec,omitempty"`
	// Workload names a built-in workload (required).
	Workload string `json:"workload"`
	// HorizonSec is the simulated duration (0 = system default).
	HorizonSec float64 `json:"horizon_sec,omitempty"`
	// Seed is the base simulation seed (0 = default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Replicas is the Monte Carlo replica count (0 = 1; max MaxReplicas).
	Replicas int `json:"replicas,omitempty"`
	// AgedWrites pre-ages every line by this many writes.
	AgedWrites uint32 `json:"aged_writes,omitempty"`
	// Substeps per sweep (0 = simulator default).
	Substeps int `json:"substeps,omitempty"`
	// RiskTarget for derived intervals (0 = system default).
	RiskTarget float64 `json:"risk_target,omitempty"`
	// Geometry optionally shrinks or grows the simulated region.
	Geometry *GeometrySpec `json:"geometry,omitempty"`
	// Fault optionally injects scrub-path faults.
	Fault *FaultSpec `json:"fault,omitempty"`
	// OnDie optionally layers chip-internal ECC under the controller.
	OnDie *OnDieSpec `json:"ondie,omitempty"`
	// TimeoutSec is the job's execution deadline in wall seconds
	// (0 = none). The budget bounds the whole run and propagates through
	// every shard RPC a cluster coordinator issues for the job.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`

	// Priority names the job's scheduling class: interactive, normal, or
	// batch ("" = normal). It steers admission control and queue order
	// only — the computation is identical across classes, so priority is
	// excluded from the fingerprint and two submissions that differ only
	// in priority dedup onto one run.
	Priority string `json:"priority,omitempty"`
	// DeadlineAt is an absolute completion deadline (RFC 3339, optionally
	// with sub-second precision; "" = none). Jobs whose deadline has
	// already passed are rejected at admission; jobs whose deadline
	// expires while queued are reaped without running. Within a class the
	// queue serves earliest deadline first. Like Priority, the deadline
	// is a scheduling hint, not part of the computation's identity, so it
	// is excluded from the fingerprint.
	DeadlineAt string `json:"deadline_at,omitempty"`
}

// Priority class names accepted in Spec.Priority.
const (
	PriorityInteractive = "interactive"
	PriorityNormal      = "normal"
	PriorityBatch       = "batch"
)

// Class is a spec's scheduling class, ordered so a higher value is
// served first (strict precedence, subject to the aging knob).
type Class int

const (
	ClassBatch Class = iota
	ClassNormal
	ClassInteractive
	numClasses
)

// String returns the class's wire name.
func (c Class) String() string {
	switch c {
	case ClassInteractive:
		return PriorityInteractive
	case ClassBatch:
		return PriorityBatch
	default:
		return PriorityNormal
	}
}

// ClassOf maps a Spec.Priority value to its scheduling class.
func ClassOf(priority string) (Class, error) {
	switch priority {
	case "", PriorityNormal:
		return ClassNormal, nil
	case PriorityInteractive:
		return ClassInteractive, nil
	case PriorityBatch:
		return ClassBatch, nil
	}
	return ClassNormal, fmt.Errorf("service: unknown priority %q (want %s, %s, or %s)",
		priority, PriorityInteractive, PriorityNormal, PriorityBatch)
}

// Class returns the spec's scheduling class; only meaningful on a
// normalised spec (whose priority is known valid).
func (s Spec) Class() Class {
	c, _ := ClassOf(s.Priority)
	return c
}

// DeadlineTime parses the spec's completion deadline. ok is false when
// the spec carries none.
func (s Spec) DeadlineTime() (t time.Time, ok bool, err error) {
	if s.DeadlineAt == "" {
		return time.Time{}, false, nil
	}
	t, err = time.Parse(time.RFC3339Nano, s.DeadlineAt)
	if err != nil {
		return time.Time{}, false, fmt.Errorf("service: bad deadline_at %q (want RFC 3339): %v", s.DeadlineAt, err)
	}
	return t, true, nil
}

// withoutScheduling returns the spec with its scheduling-only fields
// cleared. Priority and deadline steer *when* a job runs, never *what*
// it computes, so the content address and the spec embedded in results
// are taken over this form — a batch and an interactive submission of
// the same work share one fingerprint, one cache entry, and one set of
// result bytes.
func (s Spec) withoutScheduling() Spec {
	s.Priority = ""
	s.DeadlineAt = ""
	return s
}

// Normalized returns the spec with every defaultable field materialised,
// so a spec that spells out a default fingerprints identically to one
// that omits it. It validates as it goes; the returned spec is the one
// the runner executes and the one embedded in results.
func (s Spec) Normalized() (Spec, error) {
	n := s
	if n.Mechanism == "" {
		n.Mechanism = "combined"
	}
	if n.Seed == 0 {
		n.Seed = core.DefaultSystem().Seed
	}
	if n.Replicas == 0 {
		n.Replicas = 1
	}
	if n.Replicas < 1 || n.Replicas > MaxReplicas {
		return Spec{}, fmt.Errorf("service: replicas must be in [1,%d], got %d", MaxReplicas, n.Replicas)
	}
	if n.TimeoutSec < 0 {
		return Spec{}, fmt.Errorf("service: timeout_sec must be non-negative, got %g", n.TimeoutSec)
	}
	if _, err := ClassOf(n.Priority); err != nil {
		return Spec{}, err
	}
	if dl, ok, err := n.DeadlineTime(); err != nil {
		return Spec{}, err
	} else if ok {
		// Canonical RFC 3339 nanoseconds, so equal instants spelled
		// differently render (and sort) identically.
		n.DeadlineAt = dl.Format(time.RFC3339Nano)
	}
	def := core.DefaultSystem()
	if n.HorizonSec == 0 {
		n.HorizonSec = def.Horizon
	}
	if n.RiskTarget == 0 {
		n.RiskTarget = def.RiskTarget
	}
	if n.Geometry == nil || *n.Geometry == (GeometrySpec{}) {
		n.Geometry = geometrySpec(def.Geometry)
	} else {
		// A partially specified geometry is ambiguous, not defaultable.
		geo := *n.Geometry
		n.Geometry = &geo // don't alias the caller's struct
	}
	if n.Fault != nil {
		if !n.Fault.plan().Enabled() {
			// Validate before discarding: a negative rate is an error, not
			// the baseline.
			if err := n.Fault.plan().Validate(); err != nil {
				return Spec{}, err
			}
			n.Fault = nil // all-zero plan is byte-identical to no plan
		} else {
			f := *n.Fault
			n.Fault = &f
		}
	}
	if n.OnDie != nil {
		if !n.OnDie.config().Enabled() {
			// Validate before discarding: a negative strength is an error,
			// not the baseline.
			if err := n.OnDie.config().Validate(); err != nil {
				return Spec{}, err
			}
			n.OnDie = nil // a disabled layer is byte-identical to none
		} else {
			o := *n.OnDie
			n.OnDie = &o
		}
	}
	// Building the system/mechanism/workload exercises every remaining
	// validation path (unknown names, invalid rates, unreachable risk
	// targets) before the job is accepted.
	if _, _, _, err := n.Build(); err != nil {
		return Spec{}, err
	}
	return n, nil
}

// Fingerprint is the stable content address of a normalised spec: the
// hex SHA-256 of its canonical JSON encoding under the spec version,
// with scheduling-only fields (priority, deadline) excluded — they
// change when a job runs, not what it computes. Only meaningful on the
// output of Normalized.
func (s Spec) Fingerprint() string {
	s = s.withoutScheduling()
	data, err := json.Marshal(s)
	if err != nil {
		// A Spec is a closed tree of marshalable types; this is unreachable.
		panic(fmt.Sprintf("service: spec marshal: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(specVersion))
	h.Write([]byte{0})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// Build assembles the runnable triple the core runners take. It applies
// the spec onto the study's default system, mirroring the scrubsim CLI's
// override order: suite mechanism first, then scheme/policy/interval.
func (s Spec) Build() (core.System, core.Mechanism, trace.Workload, error) {
	sys := core.DefaultSystem()
	if g := s.Geometry; g != nil && *g != (GeometrySpec{}) {
		sys.Geometry = g.geometry()
	}
	if s.HorizonSec > 0 {
		sys.Horizon = s.HorizonSec
	}
	if s.RiskTarget > 0 {
		sys.RiskTarget = s.RiskTarget
	}
	if s.Seed != 0 {
		sys.Seed = s.Seed
	}
	sys.InitialLineWrites = s.AgedWrites
	sys.Substeps = s.Substeps
	if plan := s.Fault.plan(); plan.Enabled() {
		sys.Fault = plan
	} else if plan != nil {
		if err := plan.Validate(); err != nil {
			return core.System{}, core.Mechanism{}, trace.Workload{}, err
		}
	}
	if cfg := s.OnDie.config(); cfg.Enabled() {
		if err := cfg.Validate(); err != nil {
			return core.System{}, core.Mechanism{}, trace.Workload{}, err
		}
		sys.OnDie = cfg
	} else if cfg != nil {
		if err := cfg.Validate(); err != nil {
			return core.System{}, core.Mechanism{}, trace.Workload{}, err
		}
	}
	if s.Workload == "" {
		return core.System{}, core.Mechanism{}, trace.Workload{}, fmt.Errorf("service: spec needs a workload")
	}
	w, err := trace.ByName(s.Workload)
	if err != nil {
		return core.System{}, core.Mechanism{}, trace.Workload{}, err
	}
	mechName := s.Mechanism
	if mechName == "" {
		mechName = "combined"
	}
	mech, err := core.SuiteMechanism(sys, mechName)
	if err != nil {
		return core.System{}, core.Mechanism{}, trace.Workload{}, err
	}
	if s.Scheme != "" {
		sch, err := ecc.ByName(s.Scheme)
		if err != nil {
			return core.System{}, core.Mechanism{}, trace.Workload{}, err
		}
		mech.Scheme = sch
		mech.Name = s.Scheme + "+" + mech.Policy.Name()
	}
	if s.Policy != "" {
		p, err := scrub.ByName(s.Policy)
		if err != nil {
			return core.System{}, core.Mechanism{}, trace.Workload{}, err
		}
		mech.Policy = p
		mech.Name = mech.Scheme.Name() + "+" + p.Name()
	}
	if s.IntervalSec < 0 {
		return core.System{}, core.Mechanism{}, trace.Workload{}, fmt.Errorf("service: interval must be non-negative")
	}
	if s.IntervalSec > 0 {
		mech.Interval = s.IntervalSec
	}
	return sys, mech, w, nil
}
