package engine

import (
	"fmt"
	"math"

	"repro/internal/scrub"
)

// Device is a long-lived simulated memory device for continuous serving:
// the same cell-model state the one-shot pipeline runs to a horizon, held
// open indefinitely and advanced in bounded increments. Where RunContext
// owns the whole trajectory (sweep loop, interval control, wear census),
// a Device hands that control to the caller — the fleet control plane —
// which decides when to scrub what, at what simulated rate, and when to
// repair.
//
// A Device accumulates wear, drift state, and demand traffic across
// calls; with a fixed Spec.Seed the full trajectory is a pure function of
// the call sequence, so a fleet session replayed with the same control
// decisions reproduces byte-identical telemetry.
//
// Devices are not safe for concurrent use; the owner serialises access
// (the fleet package runs one session goroutine per device).
type Device struct {
	s *state
	// t is the device's simulated clock in seconds; every increment
	// advances it.
	t float64
	// cursor is the next patrol position in the fixed visit order.
	cursor int
	// rounds counts completed patrol passes over the whole device.
	rounds int64
}

// LineObservation is one scrub visit's per-line outcome — the telemetry
// record the fleet's error-statistics store folds in. Only visits that
// observed errors (or repaired a UE) are reported; clean visits carry no
// per-line information worth a record.
type LineObservation struct {
	// Line is the physical slot index visited.
	Line int `json:"line"`
	// ErrBits is the error count the visit observed before acting.
	ErrBits int `json:"err_bits"`
	// UE marks a visit that found the line uncorrectable (the engine
	// force-repaired it, counting the excursion exactly once).
	UE bool `json:"ue,omitempty"`
	// WroteBack marks a correctable line the policy rewrote.
	WroteBack bool `json:"wrote_back,omitempty"`
}

// ChunkReport summarises one bounded scrub increment.
type ChunkReport struct {
	// Lines is the number of lines visited.
	Lines int `json:"lines"`
	// CELines counts visited lines observed with at least one error that
	// remained correctable; UEs counts uncorrectable findings.
	CELines int64 `json:"ce_lines"`
	UEs     int64 `json:"ues"`
	// CorrectedBits is the real error bits scrubbed away by write-backs.
	CorrectedBits int64 `json:"corrected_bits"`
	WriteBacks    int64 `json:"write_backs"`
	// DemandWrites is the demand traffic applied during the increment.
	DemandWrites int64 `json:"demand_writes"`
	// SimSeconds is the simulated time the increment covered.
	SimSeconds float64 `json:"sim_seconds"`
	// WrappedRound marks a patrol chunk that completed a full pass over
	// the device (the cursor wrapped to zero).
	WrappedRound bool `json:"wrapped_round,omitempty"`
	// Observations lists the per-line findings (errored lines only). The
	// backing array is reused across calls; callers fold it before the
	// next increment.
	Observations []LineObservation `json:"-"`
}

// NewDevice validates the spec and initialises a persistent device at
// simulated time zero. The spec's Horizon and Interval are not used
// for stepping (the caller owns time); they only need to satisfy spec
// validation. The device takes its state from the run pool and keeps it
// for life; its drift sampler is the shared cached one, which is
// read-only and safe to use from concurrently patrolling devices.
func NewDevice(spec Spec) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s, err := newState(spec)
	if err != nil {
		return nil, err
	}
	return &Device{s: s}, nil
}

// Lines returns the device's logical line count.
func (d *Device) Lines() int { return d.s.lines }

// Slots returns the physical slot count (lines, +1 under leveling).
func (d *Device) Slots() int { return d.s.slots }

// Now returns the device's simulated clock in seconds.
func (d *Device) Now() float64 { return d.t }

// PatrolCursor returns the next patrol position in the visit order.
func (d *Device) PatrolCursor() int { return d.cursor }

// Rounds returns the number of completed patrol passes.
func (d *Device) Rounds() int64 { return d.rounds }

// Totals exposes the device's accumulated run counters (visits, UEs,
// corrected bits, demand writes, energy) in the engine's Result shape.
func (d *Device) Totals() Result {
	res := d.s.res
	res.SimSeconds = d.t
	// Price the operation counts and fold the live on-die/profiling
	// counters so fleet telemetry matches what a one-shot run would
	// report at this point.
	d.s.fold(&res)
	return res
}

// visitObserved performs one scrub visit at time tv and derives the
// per-line observation from the engine counters' deltas, so the hot visit
// path itself stays untouched.
func (d *Device) visitObserved(slot int, tv float64, rs *scrub.RoundStats, rep *ChunkReport) {
	s := d.s
	errBits := s.errorBits(slot, tv)
	if s.ondie != nil {
		// Telemetry reports what the controller can see: the on-die layer
		// hides sub-strength errors from the observation record too.
		// Visible is the pure transform — the visit itself does the
		// counted Observe.
		errBits = s.ondie.Visible(slot, errBits)
	}
	preUE := s.res.UEs
	preWB := s.res.ScrubWriteBacks
	preCorr := s.res.CorrectedBits
	s.visit(slot, tv, rs)
	rep.Lines++
	ue := s.res.UEs > preUE
	wb := s.res.ScrubWriteBacks > preWB
	rep.CorrectedBits += s.res.CorrectedBits - preCorr
	if ue {
		rep.UEs++
	} else if errBits > 0 {
		rep.CELines++
	}
	if wb {
		rep.WriteBacks++
	}
	if ue || errBits > 0 {
		rep.Observations = append(rep.Observations, LineObservation{
			Line: slot, ErrBits: errBits, UE: ue, WroteBack: wb,
		})
	}
}

// countQuiet counts n quiet visits (state.quiet) into the engine counters
// and the report: a quiet line carries no observation.
func (d *Device) countQuiet(n int64, rs *scrub.RoundStats, rep *ChunkReport) {
	d.s.countChecks(n, rs)
	rep.Lines += int(n)
}

// PatrolChunk performs one background-scrub increment: demand traffic is
// applied over the next dt simulated seconds, then the next n lines in
// patrol order are visited at times spread across the window. The cursor
// wraps at the end of the device, completing a patrol round. obs, when
// non-nil, seeds the report's observation buffer (reuse across chunks).
func (d *Device) PatrolChunk(n int, dt float64, obs []LineObservation) (ChunkReport, error) {
	if n <= 0 {
		return ChunkReport{}, fmt.Errorf("engine: patrol chunk size must be positive, got %d", n)
	}
	if n > d.s.slots {
		n = d.s.slots
	}
	if dt <= 0 || math.IsInf(dt, 0) || math.IsNaN(dt) {
		return ChunkReport{}, fmt.Errorf("engine: patrol chunk dt must be positive and finite, got %g", dt)
	}
	s := d.s
	rep := ChunkReport{SimSeconds: dt, DemandWrites: int64(s.applyDemand(d.t, dt)), Observations: obs[:0]}
	rs := scrub.RoundStats{Capability: s.capability}
	var quiet int64
	for j := 0; j < n; j++ {
		slot := int(s.visitOrder[d.cursor])
		d.cursor++
		if d.cursor == s.slots {
			d.cursor = 0
			d.rounds++
			rep.WrappedRound = true
		}
		tv := d.t + dt*float64(j+1)/float64(n)
		if s.lev != nil && slot == s.lev.Gap() {
			continue
		}
		if s.prof != nil {
			slot = s.patrolTarget(slot)
		}
		if s.quiet(slot, tv) {
			quiet++
			continue
		}
		d.visitObserved(slot, tv, &rs, &rep)
	}
	d.countQuiet(quiet, &rs, &rep)
	d.t += dt
	// A completed patrol pass is the device analogue of a sweep: it is
	// when the profiling cadence ticks.
	if rep.WrappedRound {
		s.maybeProfile(d.t)
	}
	return rep, nil
}

// ScrubRange performs one on-demand scrub increment over the logical
// lines [first, first+count): demand traffic is applied over dt simulated
// seconds, then every line in the range is visited. The patrol cursor is
// untouched — on-demand work preempts patrol, it does not advance it.
func (d *Device) ScrubRange(first, count int, dt float64, obs []LineObservation) (ChunkReport, error) {
	if first < 0 || count <= 0 || first+count > d.s.lines {
		return ChunkReport{}, fmt.Errorf("engine: scrub range [%d,%d) outside device [0,%d)",
			first, first+count, d.s.lines)
	}
	if dt <= 0 || math.IsInf(dt, 0) || math.IsNaN(dt) {
		return ChunkReport{}, fmt.Errorf("engine: scrub range dt must be positive and finite, got %g", dt)
	}
	s := d.s
	rep := ChunkReport{SimSeconds: dt, DemandWrites: int64(s.applyDemand(d.t, dt)), Observations: obs[:0]}
	rs := scrub.RoundStats{Capability: s.capability}
	var quiet int64
	for j := 0; j < count; j++ {
		slot := s.mapSlot(first + j)
		if s.lev != nil && slot == s.lev.Gap() {
			continue
		}
		tv := d.t + dt*float64(j+1)/float64(count)
		if s.quiet(slot, tv) {
			quiet++
			continue
		}
		d.visitObserved(slot, tv, &rs, &rep)
	}
	d.countQuiet(quiet, &rs, &rep)
	d.t += dt
	return rep, nil
}

// SetPolicy swaps the scrub policy live. The change governs every visit
// from the next increment on; device state (drift, wear, clock, cursor)
// is untouched, so a session reconfigured mid-flight keeps its identity.
func (d *Device) SetPolicy(p scrub.Policy) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	// The detection mode decides the visit path and, through the CRC a
	// codeword stores, the width of every later write.
	d.s.setPolicy(p)
	// Profiling state follows the policy: a profiling schedule arms (or
	// re-arms, if the schedule changed) the at-risk machinery; a policy
	// without one drops it along with its accumulated set.
	switch cfg := p.Profile; {
	case cfg == nil:
		d.s.prof = nil
	case d.s.prof == nil || d.s.prof.cfg != *cfg:
		d.s.prof = newProfiler(*cfg)
	}
	d.s.resolveQuiet()
	return nil
}

// RepairLine models Post-Package-Repair/sparing of one logical line: the
// slot is remapped to a spare row — fresh endurance draws, zeroed write
// wear, and an immediate rewrite at the current clock. The repair write
// is charged to the scrub ledger, mirroring a maintenance operation.
func (d *Device) RepairLine(line int) error {
	if line < 0 || line >= d.s.lines {
		return fmt.Errorf("engine: repair line %d outside device [0,%d)", line, d.s.lines)
	}
	s := d.s
	slot := s.mapSlot(line)
	s.weakBuf = s.wearM.SampleWeakest(s.rng, s.weakBuf)
	copy(s.weakest[slot*s.kw:(slot+1)*s.kw], s.weakBuf)
	s.writes[slot] = 0
	s.writeLine(slot, d.t)
	s.scrubOps.WriteBits += s.width.write
	s.res.RepairWrites++
	return nil
}
