package engine

import (
	"context"
	"fmt"
	"math"

	"repro/internal/ecc"
	"repro/internal/ecp"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/level"
	"repro/internal/mem"
	"repro/internal/ondie"
	"repro/internal/pcm"
	"repro/internal/scrub"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wear"
)

// visitStride bounds cancellation latency inside a substep: ctx.Err() is
// polled at every visitStride-th patrol position, so a cancelled run
// stops within O(visitStride) visits even when a single substep covers
// millions of lines.
const visitStride = 256

// secdedLike lets the engine price per-word decode for word-organised
// codes without depending on the concrete type.
type secdedLike interface{ Words() int }

// costs holds the exact energy each ledger charge of a visit or a line
// write adds, resolved once per run from the accountant (resolveCosts)
// so the hot path adds a constant instead of recomputing a product.
type costs struct {
	fullRead  float64 // data and check bits, read by a full decode
	probeRead float64 // data and CRC bits, read by a light probe
	checkRead float64 // check bits, fetched once a probe fires
	decode    float64 // one full decode of the line
	crc       float64 // one CRC recompute-and-compare
	write     float64 // one codeword, CRC and ECP pointers included
}

// state is the mutable simulation state. Run instances are recycled
// through statePool (see pool.go); a Device keeps its instance for life.
type state struct {
	spec    Spec
	rng     *stats.RNG
	genRNG  *stats.RNG      // scratch stream for generator construction
	gen     trace.Generator // the spec's generator, rebuilt in place per run
	sampler *pcm.LineSampler
	wearM   *wear.Model
	acct    *energy.Accountant
	source  TrafficSource
	scheme  ecc.Scheme
	policy  scrub.Policy

	// capability is scheme.T(); hasCRC is whether the policy's detection
	// is the light probe, read when the policy is installed (setPolicy).
	capability int
	hasCRC     bool
	cost       costs

	lines   int // logical lines
	slots   int // physical slots (lines, or lines+1 with leveling)
	nstream int // crossing streams per line, one per active level
	kw      int // tracked weakest cells per line

	lev     *level.StartGap // nil when leveling is off
	moveBuf []level.Move

	// inj is the scrub-path fault injector; nil means the fault path is
	// entirely absent (the bit-identical baseline). stuckCheck holds the
	// per-slot correction margin lost to stuck ECC check bits (populated
	// only when inj is non-nil).
	inj        *fault.Injector
	stuckCheck []uint8

	// ondie is the chip-internal ECC layer; nil means no on-die code (the
	// bit-identical baseline). prof is the active-profiling state, present
	// only when the policy is a scrub.Profiler. Neither ever touches the
	// RNG stream.
	ondie *ondie.Layer
	prof  *profiler

	writeTime []float64
	stream    []pcm.Stream // lines × nstream: each level's next crossing
	due       []float64    // absolute time of the line's next crossing
	drift     []uint8      // crossings passed since the write
	// onset is the time of the crossing that took the line's drift count
	// to its failure depth (see advance), or of its latest crossing below
	// that depth, or the write time before any; absolute seconds.
	onset     []float64
	writes    []uint32
	weakest   []float64 // lines × kw, ascending
	stuckBits []uint8
	deadCells []uint8

	visitOrder []int32

	dataBits, checkBits int

	// offsets[pos] is patrol position pos's visit-time offset into a
	// sweep of duration offsetDur (see visitOffsets).
	offsets   []float64
	offsetDur float64

	res Result

	// scratch buffers
	headBuf  []float64
	eventBuf []int
	weakBuf  []float64
}

// trackK is the most crossings a line's level stream draws: the scheme's
// correction capability plus slack.
func trackK(spec Spec) int {
	return min(max(spec.Scheme.T()+4, 8), 16)
}

// newState prepares a run's state, drawing scratch from statePool and the
// drift sampler from the shared sampler cache.
func newState(spec Spec) (*state, error) {
	if spec.Substeps == 0 {
		spec.Substeps = 16
	}
	s := statePool.Get().(*state)
	s.rng.Seed(spec.Seed)
	sampler, err := cachedSampler(spec.PCM, spec.Mix, trackK(spec))
	if err != nil {
		return nil, err
	}
	wearM, err := wear.NewModel(spec.Wear)
	if err != nil {
		return nil, err
	}
	acct, err := energy.NewAccountant(spec.Energy)
	if err != nil {
		return nil, err
	}
	lines := spec.Geometry.TotalLines()
	var source TrafficSource
	if spec.Source != nil {
		source = spec.Source
	} else {
		// Generator layout draws from a stream split off the main RNG into
		// the pooled scratch RNG, consuming the same single Uint64 from the
		// main stream as Split would.
		s.rng.SplitInto(s.genRNG)
		if err := s.gen.Reset(spec.Workload, lines, s.genRNG); err != nil {
			return nil, err
		}
		source = &s.gen
	}
	slots := lines
	var lev *level.StartGap
	if spec.GapMovePeriod > 0 {
		lev, err = level.NewStartGap(lines, spec.GapMovePeriod)
		if err != nil {
			return nil, err
		}
		slots = lev.Slots()
	}
	s.spec = spec
	s.sampler = sampler
	s.wearM = wearM
	s.acct = acct
	s.source = source
	s.scheme = spec.Scheme
	s.capability = spec.Scheme.T()
	s.lines = lines
	s.slots = slots
	s.nstream = sampler.Streams()
	s.kw = spec.Wear.K
	s.lev = lev

	s.writeTime = grow(s.writeTime, slots)
	s.stream = grow(s.stream, slots*s.nstream)
	s.due = grow(s.due, slots)
	s.drift = grow(s.drift, slots)
	s.onset = grow(s.onset, slots)
	s.writes = grow(s.writes, slots)
	s.weakest = grow(s.weakest, slots*spec.Wear.K)
	s.stuckBits = grow(s.stuckBits, slots)
	s.deadCells = grow(s.deadCells, slots)

	s.dataBits = spec.Scheme.DataBits()
	s.checkBits = spec.Scheme.CheckBits()
	s.setPolicy(spec.Policy)

	// Patrol order over physical slots, fixed for the run. With leveling
	// the spare slot is appended to the walk (and the live gap is skipped
	// at visit time).
	if cap(s.visitOrder) >= slots {
		s.visitOrder = s.visitOrder[:0]
	} else {
		s.visitOrder = make([]int32, 0, slots)
	}
	walker := mem.NewScrubWalker(spec.Geometry)
	for i := 0; i < lines; i++ {
		line, _ := walker.Next()
		s.visitOrder = append(s.visitOrder, int32(line))
	}
	for extra := lines; extra < slots; extra++ {
		s.visitOrder = append(s.visitOrder, int32(extra))
	}
	// Scrub-path fault injection (nil injector = bit-identical baseline).
	inj, err := fault.NewInjector(spec.Fault, spec.Seed)
	if err != nil {
		return nil, err
	}
	s.inj = inj
	if inj != nil {
		// Stuck check bits are a property of the physical slot, rolled
		// once for the whole run from the injector's own stream.
		s.stuckCheck = grow(s.stuckCheck, slots)
		for i := 0; i < slots; i++ {
			s.stuckCheck[i] = uint8(inj.LineStuckCheck())
		}
	}
	// Initialise slots: endurance draws, pre-aging, initial write at t=0.
	for i := 0; i < slots; i++ {
		s.weakBuf = s.wearM.SampleWeakest(s.rng, s.weakBuf)
		copy(s.weakest[i*s.kw:(i+1)*s.kw], s.weakBuf)
		s.writes[i] = spec.InitialLineWrites
		s.writeLine(i, 0)
	}
	// On-die ECC layer and active-profiling state. Both are RNG-free, so
	// their presence cannot perturb the run's random stream; nil layer +
	// nil profiler is the byte-identical baseline. The initial Luo
	// assignment works off the uniform post-init write census, weakening
	// the lowest-numbered lines until real traffic differentiates them.
	layer, err := ondie.NewLayer(spec.OnDie, slots)
	if err != nil {
		return nil, err
	}
	s.ondie = layer
	if layer != nil {
		layer.Assign(s.writes[:slots])
	}
	if pp, ok := spec.Policy.(scrub.Profiler); ok {
		cfg := pp.Profile()
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		s.prof = newProfiler(cfg)
	} else {
		s.prof = nil
	}
	s.res.PolicyName = spec.Policy.Name()
	s.res.SchemeName = spec.Scheme.Name()
	s.res.WorkloadName = spec.Workload.Name
	s.res.Lines = lines
	return s, nil
}

// setPolicy installs the scrub policy and resolves what depends on it:
// its detection mode, and with it the CRC a codeword stores.
func (s *state) setPolicy(p scrub.Policy) {
	s.policy = p
	s.hasCRC = p.Detection() == scrub.LightDetect
	s.resolveCosts()
}

// resolveCosts fills the cost table from the accountant, the scheme and
// the detection mode.
func (s *state) resolveCosts() {
	a := s.acct
	// A written codeword carries the check bits, the CRC under light
	// detection, and the ECP pointer table, whose bits are rewritten
	// alongside the data.
	written := s.dataBits + s.checkBits
	if s.hasCRC {
		written += crcBits
	}
	if s.spec.ECPEntries > 0 {
		p := ecp.Params{
			Entries:      s.spec.ECPEntries,
			CellsPerLine: pcm.CellsPerLine,
			BitsPerCell:  pcm.BitsPerCell,
		}
		written += p.OverheadBits()
	}
	s.cost = costs{
		fullRead:  a.ReadCost(s.dataBits + s.checkBits),
		probeRead: a.ReadCost(s.dataBits + crcBits),
		checkRead: a.ReadCost(s.checkBits),
		decode:    a.BCHDecodeCost(s.capability),
		crc:       a.CRCCost(),
		write:     a.WriteCost(written),
	}
	if ws, ok := s.scheme.(secdedLike); ok {
		s.cost.decode = a.SECDEDDecodeCost(ws.Words())
	}
}

// writeLine reprograms a line at absolute time t: resets its drift clock,
// starts fresh crossing streams, advances wear, and re-rolls stuck bits.
// Energy is charged by the caller (demand vs scrub attribution).
func (s *state) writeLine(i int, t float64) {
	s.writes[i]++
	s.writeTime[i] = t
	s.onset[i] = t
	st := s.stream[i*s.nstream : (i+1)*s.nstream]
	next := math.Inf(1)
	if s.spec.SLCFraction > 0 && s.rng.Bernoulli(s.spec.SLCFraction) {
		// Form switch: this write compressed the line into SLC form,
		// whose band separation puts drift crossings beyond the horizon.
		for a := range st {
			st[a] = pcm.Stream{Next: math.Inf(1)}
		}
	} else {
		s.headBuf = s.sampler.SampleCrossings(s.rng, s.headBuf)
		next = s.sampler.Heads(s.headBuf, st)
	}
	s.drift[i] = 0
	s.due[i] = t + next
	dead := wear.DeadCells(s.weakest[i*s.kw:(i+1)*s.kw], uint64(s.writes[i]))
	// ECP patches the first ECPEntries stuck cells before ECC sees the
	// line; only the residual erodes the correction margin, and the
	// wear-aware policy reasons about that residual.
	_, residual := ecp.Absorb(s.spec.ECPEntries, dead)
	s.deadCells[i] = uint8(residual)
	_, bits := wear.StuckErrors(s.rng, residual)
	if bits > 255 {
		bits = 255
	}
	s.stuckBits[i] = uint8(bits)
}

// advance brings line i's level streams and drift count up to time t,
// at or after the line's next crossing. It passes the crossings at or
// before t in time order, drawing each level's next crossing as one
// passes, and records onset for every crossing up to the line's failure
// depth: the (capability+1−stuck)-th crossing, at least the first, is
// where its error pattern stops being correctable.
func (s *state) advance(i int, t float64) {
	st := s.stream[i*s.nstream : (i+1)*s.nstream]
	wt := s.writeTime[i]
	drift := int(s.drift[i])
	depth := max(s.capability+1-int(s.stuckBits[i]), 1)
	for {
		next := 0
		for a := range st {
			if st[a].Next < st[next].Next {
				next = a
			}
		}
		if due := wt + st[next].Next; due > t {
			s.drift[i] = uint8(drift)
			s.due[i] = due
			return
		}
		drift++
		if drift <= depth {
			s.onset[i] = wt + st[next].Next
		}
		s.sampler.Advance(s.rng, next, &st[next])
	}
}

// errorBits returns the bit-error count a check at time t observes on
// line i. A check before the line's next crossing reads only its count.
func (s *state) errorBits(i int, t float64) int {
	if t >= s.due[i] {
		s.advance(i, t)
	}
	return int(s.drift[i]) + int(s.stuckBits[i])
}

// attributeDetection estimates, for a UE found by this scrub visit, how
// long the line had been uncorrectable and whether a demand read would
// have hit it first. Onset is the drift crossing that completed the
// failing pattern (the (capability+1-stuck)-th, clamped to the observed
// crossings), which advance recorded when the visit passed it; the read
// race uses the workload's average per-footprint-line read rate, thinned
// by the footprint fraction.
func (s *state) attributeDetection(i int, t float64) {
	delay := t - s.onset[i]
	if delay < 0 {
		delay = 0
	}
	s.res.UEDetectDelay.Add(delay)
	lambda := s.spec.Workload.ReadsPerLinePerSec
	if lambda > 0 && s.rng.Bernoulli(s.spec.Workload.FootprintFrac) &&
		s.rng.Bernoulli(-math.Expm1(-lambda*delay)) {
		s.res.UEsReadFirst++
	}
}

// mapSlot resolves a logical line to its current physical slot.
func (s *state) mapSlot(logical int) int {
	if s.lev == nil {
		return logical
	}
	return s.lev.Physical(logical)
}

// recordArrayWrite advances the wear leveler's write counter and performs
// any gap moves it triggers: each move rewrites the destination slot now
// (fresh drift clock, wear, energy). Gap-move writes themselves do not
// advance the counter, matching the Start-Gap design.
func (s *state) recordArrayWrite(t float64) {
	if s.lev == nil {
		return
	}
	s.moveBuf = s.lev.RecordWrites(1, s.moveBuf)
	for _, mv := range s.moveBuf {
		s.writeLine(mv.To, t)
		s.res.DemandEnergy.WritePJ += s.cost.write
		s.res.LevelerMoves++
	}
}

// applyDemand lands the workload's demand writes for [t0, t0+dt) at
// uniform times inside the window and returns how many it applied.
func (s *state) applyDemand(t0, dt float64) int {
	s.eventBuf = s.source.WritesInEpoch(s.rng, t0, dt, s.eventBuf)
	for _, line := range s.eventBuf {
		tw := t0 + s.rng.Float64()*dt
		s.writeLine(s.mapSlot(line), tw)
		s.res.DemandEnergy.WritePJ += s.cost.write
		s.res.DemandWrites++
		s.recordArrayWrite(tw)
	}
	return len(s.eventBuf)
}

// patrolTarget returns the slot a patrol visit aimed at slot actually
// scrubs under active profiling (callers check s.prof first): every
// period-th visit is re-aimed at an at-risk line instead of the uniform
// patrol target; the visit count is unchanged, so biased scheduling
// spends the same scrub bandwidth.
func (s *state) patrolTarget(slot int) int {
	if r := s.prof.redirect(); r >= 0 && !(s.lev != nil && r == s.lev.Gap()) {
		s.prof.redirected++
		return r
	}
	return slot
}

// visit performs one scrub visit of line i at time t.
//
// With fault injection enabled, the visit distinguishes the line's true
// error count (errBits) from what the imperfect scrub machinery observes
// (observed): phantom read flips inflate the observation transiently, and
// stuck check bits erode the decode margin. Detection, write-back, and UE
// decisions all act on the observation — exactly as real hardware would —
// while CorrectedBits keeps counting real bits so reliability metrics
// stay truthful. When the injector is nil, observed == errBits on every
// path and the visit is bit-identical to the baseline.
func (s *state) visit(i int, t float64, rs *scrub.RoundStats) {
	s.res.ScrubVisits++
	rs.Lines++
	errBits := s.errorBits(i, t)
	if s.ondie != nil {
		// The chip corrects before the controller looks: everything below
		// — detection, write-back, UE decisions, corrected-bit accounting
		// — sees only the post-on-die error count. The transform draws no
		// randomness, so a disabled layer is byte-identical.
		errBits = s.ondie.Observe(i, errBits)
	}
	observed := errBits
	if s.inj != nil {
		observed += s.inj.ReadFlip()
	}

	e := &s.res.ScrubEnergy
	if s.hasCRC {
		// Read data + CRC and run the cheap probe.
		e.ReadPJ += s.cost.probeRead
		e.DetectPJ += s.cost.crc
		s.res.ScrubProbes++
		if observed == 0 {
			return
		}
		if s.rng.Bernoulli(crcMissProb) {
			return // checksum aliased; errors stay until next look
		}
		if s.inj != nil && s.inj.ProbeFalseClean() {
			return // injected detector fault: erroneous line reads clean
		}
		// Probe fired: fetch the check bits and decode for the count.
		e.ReadPJ += s.cost.checkRead
	} else {
		e.ReadPJ += s.cost.fullRead
	}
	e.DecodePJ += s.cost.decode
	s.res.ScrubDecodes++

	// Stuck ECC check bits corrupt the syndromes the decoder works
	// against, eroding the line's effective correction margin.
	if s.inj != nil && s.stuckCheck[i] > 0 {
		if errBits > 0 {
			s.inj.NoteStuckDecode()
		}
		observed += int(s.stuckCheck[i])
	}

	if observed > s.res.MaxErrBits {
		s.res.MaxErrBits = observed
	}
	if observed > rs.MaxErrBits {
		rs.MaxErrBits = observed
	}
	capability := s.capability
	if observed > 0 && observed >= capability-1 {
		rs.LinesNearMargin++
	}
	if observed > 0 && !s.scheme.Correctable(s.rng, observed) {
		// Uncorrectable: count the UE and repair the line so the excursion
		// is counted exactly once.
		s.res.UEs++
		rs.UEs++
		if s.inj != nil && observed != errBits && errBits <= capability {
			// Only the injected fault pushed the pattern past the margin.
			s.inj.NoteInducedUE()
		}
		s.attributeDetection(i, t)
		s.writeLine(i, t)
		e.WritePJ += s.cost.write
		s.res.RepairWrites++
		s.recordArrayWrite(t)
		return
	}
	// Clean lines reach here only under FullDecode (the light probe
	// returns early); policies with a write threshold >= 1 leave them
	// alone, while the naive always-write patrol rewrites them too.
	info := scrub.VisitInfo{ErrBits: observed, Capability: capability, DeadCells: int(s.deadCells[i])}
	if s.policy.ShouldWriteBack(info) {
		s.res.CorrectedBits += int64(errBits)
		s.writeLine(i, t)
		e.WritePJ += s.cost.write
		s.res.ScrubWriteBacks++
		rs.WriteBacks++
		s.recordArrayWrite(t)
	}
}

// visitOffsets returns each patrol position's visit-time offset into a
// sweep of duration dur, dur*pos/slots, rebuilding the pooled table only
// when dur or the slot count differs from the one it was built for: once
// per run at a fixed interval, once per changed interval otherwise.
func (s *state) visitOffsets(dur float64) []float64 {
	if len(s.offsets) == s.slots && s.offsetDur == dur {
		return s.offsets
	}
	s.offsets = grow(s.offsets, s.slots)
	for pos := range s.offsets {
		s.offsets[pos] = dur * float64(pos) / float64(s.slots)
	}
	s.offsetDur = dur
	return s.offsets
}

// sweep performs one patrol sweep starting at t and lasting dur, folding
// its visits into rs. Each substep lands its demand writes, then visits
// its slice of the patrol order, up to cutoff: positions past it are
// never visited. With leveling enabled the slot currently serving as the
// gap holds stale data and is skipped.
func (s *state) sweep(ctx context.Context, t, dur float64, cutoff int, rs *scrub.RoundStats) error {
	offsets := s.visitOffsets(dur)
	dt := dur / float64(s.spec.Substeps)
	perStep := (s.slots + s.spec.Substeps - 1) / s.spec.Substeps
	for step := 0; step < s.spec.Substeps; step++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("engine: run canceled at t=%.0fs: %w", t, err)
		}
		t0 := t + float64(step)*dt
		// Demand writes land before this substep's visits.
		s.applyDemand(t0, dt)
		lo := step * perStep
		hi := min(lo+perStep, s.slots, cutoff)
		for pos := lo; pos < hi; pos++ {
			if pos%visitStride == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("engine: run canceled at t=%.0fs: %w", t, err)
				}
			}
			slot := int(s.visitOrder[pos])
			if s.lev != nil && slot == s.lev.Gap() {
				continue
			}
			if s.prof != nil {
				slot = s.patrolTarget(slot)
			}
			s.visit(slot, t+offsets[pos], rs)
		}
	}
	return nil
}

// run executes sweeps until the horizon. Cancellation is checked every
// substep and every visitStride patrol positions within a substep, so
// the method returns within O(visitStride) visits of ctx ending.
func (s *state) run(ctx context.Context) error {
	t := 0.0
	interval := s.spec.Interval
	for t+interval <= s.spec.Horizon+1e-9 {
		// Injected controller faults: a stall stretches this sweep's
		// duration (drift accumulates longer between visits), and an
		// interruption silently drops the patrol suffix past the cutoff.
		sweepDur := interval
		cutoff := s.slots
		if s.inj != nil {
			if f := s.inj.StallFactor(); f > 1 {
				sweepDur = interval * f
				s.inj.NoteStallSeconds(sweepDur - interval)
			}
			cutoff = s.inj.SweepCutoff(s.slots)
		}
		rs := scrub.RoundStats{Capability: s.capability}
		if err := s.sweep(ctx, t, sweepDur, cutoff, &rs); err != nil {
			return err
		}
		t += sweepDur
		s.res.Sweeps++
		if s.spec.RecordRounds {
			s.res.Rounds = append(s.res.Rounds, RoundRecord{Start: t - sweepDur, Interval: sweepDur, Stats: rs})
		}
		interval = s.policy.NextInterval(interval, rs)
		s.maybeProfile(t)
	}
	s.res.SimSeconds = t
	s.res.FinalInterval = interval
	// Wear census over physical slots. deadCells holds the ECC-visible
	// residual, so recompute the raw stuck count for reporting.
	for i := 0; i < s.slots; i++ {
		s.res.TotalLineWrites += int64(s.writes[i])
		if s.writes[i] > s.res.MaxLineWrites {
			s.res.MaxLineWrites = s.writes[i]
		}
		dead := wear.DeadCells(s.weakest[i*s.kw:(i+1)*s.kw], uint64(s.writes[i]))
		if dead > 0 {
			s.res.LinesWithDead++
			s.res.DeadCells += int64(dead)
		}
		covered, _ := ecp.Absorb(s.spec.ECPEntries, dead)
		s.res.ECPCoveredCells += int64(covered)
	}
	if s.inj != nil {
		s.res.Faults = s.inj.Counts()
	}
	s.foldInstr(&s.res)
	return nil
}
