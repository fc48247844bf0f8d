package engine

import (
	"sort"

	"repro/internal/scrub"
)

// profiler holds the per-device active-profiling state (HARP-style): the
// at-risk line set built by profiling rounds and the visit-redirection
// bookkeeping that biases patrol toward it. It lives on the engine state,
// not the policy — a scrub.Policy is a value that carries only the
// schedule — and a pooled state drops it on release.
type profiler struct {
	cfg scrub.ProfileConfig

	// atRisk is the current at-risk set, sorted ascending by slot so the
	// round-robin redirection order is a pure function of the set.
	atRisk []int32
	// next is the round-robin cursor into atRisk.
	next int
	// visitTick counts patrol visits since the last redirection; every
	// period-th visit is redirected to an at-risk slot.
	visitTick int
	period    int
	// sinceRound counts sweeps (or patrol wraps on a device) since the
	// last profiling round.
	sinceRound int

	rounds, reads    int64
	direct, indirect int64
	redirected       int64

	// riskBuf is scratch for round candidate selection.
	riskBuf []riskEntry
}

type riskEntry struct {
	slot  int32
	known int32
}

// newProfiler derives the redirection period from the bias fraction:
// BiasFraction 0.25 redirects every 4th visit.
func newProfiler(cfg scrub.ProfileConfig) *profiler {
	period := int(1.0/cfg.BiasFraction + 0.5)
	if period < 1 {
		period = 1
	}
	return &profiler{cfg: cfg, period: period}
}

// redirect returns the at-risk slot the next patrol visit should be
// diverted to, or -1 to keep the uniform patrol target. Diverted visits
// replace uniform ones one-for-one, so total scrub bandwidth is
// unchanged — profiling re-aims the same visits.
func (p *profiler) redirect() int {
	if len(p.atRisk) == 0 {
		return -1
	}
	p.visitTick++
	if p.visitTick%p.period != 0 {
		return -1
	}
	slot := int(p.atRisk[p.next])
	p.next++
	if p.next >= len(p.atRisk) {
		p.next = 0
	}
	return slot
}

// maybeProfile runs a profiling round if the cadence says one is due;
// the caller invokes it once per completed sweep (or patrol wrap).
func (s *state) maybeProfile(t float64) {
	p := s.prof
	if p == nil {
		return
	}
	p.sinceRound++
	if p.sinceRound < p.cfg.Every {
		return
	}
	p.sinceRound = 0
	s.profileRound(t)
}

// profileRound rebuilds the at-risk set by reading every line Passes
// times through the on-die layer. Profiling is read-only — it never
// rewrites lines, so it cannot masquerade as a hidden extra scrub; its
// only influence on the trajectory is where later patrol visits land
// (plus the read energy it burns).
//
// Error discovery follows HARP's direct/indirect split. Profiling reads
// target persistent (stuck-cell) errors: drift errors are transient
// analog excursions a deliberate test pattern does not reproduce.
//   - If a line's stuck count exceeds its on-die strength, the on-die
//     decode fails and every erroneous position is visible at once
//     (direct).
//   - While the on-die code still corrects, the positions are hidden;
//     each profiling pass beyond the first can expose at most one more
//     hidden position (indirect), so a round with P passes knows at
//     most P-1 hidden positions per line.
//
// The transform is RNG-free: a profiled run consumes exactly the same
// random stream as an unprofiled one, which the golden byte-identity
// tests rely on.
func (s *state) profileRound(t float64) {
	p := s.prof
	p.rounds++
	p.reads += int64(p.cfg.Passes) * int64(s.slots)
	// Charge the profiling reads: Passes data-word reads per line.
	s.scrubOps.ReadBits += int64(s.dataBits * p.cfg.Passes * s.slots)

	p.riskBuf = p.riskBuf[:0]
	for i := 0; i < s.slots; i++ {
		raw := int(s.stuckBits[i])
		if raw == 0 {
			continue
		}
		strength := 0
		if s.ondie != nil {
			strength = s.ondie.Strength(i)
		}
		var known int
		if raw > strength {
			known = raw
			p.direct += int64(raw)
		} else {
			known = p.cfg.Passes - 1
			if known > raw {
				known = raw
			}
			p.indirect += int64(known)
		}
		if known >= p.cfg.RiskThreshold {
			p.riskBuf = append(p.riskBuf, riskEntry{slot: int32(i), known: int32(known)})
		}
	}

	// Cap the set at MaxAtRiskFraction of the device, keeping the lines
	// with the most known positions (ties to the lower slot), then store
	// in slot order so redirection is deterministic.
	maxN := int(p.cfg.MaxAtRiskFraction*float64(s.slots) + 0.5)
	if maxN < 1 {
		maxN = 1
	}
	if len(p.riskBuf) > maxN {
		sort.Slice(p.riskBuf, func(a, b int) bool {
			if p.riskBuf[a].known != p.riskBuf[b].known {
				return p.riskBuf[a].known > p.riskBuf[b].known
			}
			return p.riskBuf[a].slot < p.riskBuf[b].slot
		})
		p.riskBuf = p.riskBuf[:maxN]
		sort.Slice(p.riskBuf, func(a, b int) bool { return p.riskBuf[a].slot < p.riskBuf[b].slot })
	}
	p.atRisk = p.atRisk[:0]
	for _, e := range p.riskBuf {
		p.atRisk = append(p.atRisk, e.slot)
	}
	if p.next >= len(p.atRisk) {
		p.next = 0
	}

	// A fresh write census is in hand: refresh the Luo-style strength
	// assignment so cooled-down lines shed on-die parity.
	if s.ondie != nil {
		s.ondie.Assign(s.writes[:s.slots])
	}
}

// fold prices the operation counts into res's energy ledgers and copies
// the on-die and profiling counters into res. run() calls it once at the
// end of a run; Device.Totals calls it on its snapshot so live fleet
// telemetry sees the same fields.
func (s *state) fold(res *Result) {
	res.ScrubEnergy = s.acct.Price(s.scrubOps)
	res.DemandEnergy = s.acct.Price(s.demandOps)
	if s.ondie != nil {
		res.OnDieCorrectedBits = s.ondie.CorrectedBits()
		res.OnDieOverflows = s.ondie.Overflows()
		res.OnDieWeakLines = s.ondie.WeakLines()
		res.OnDieCheckBitsSaved = s.ondie.CheckBitsSaved()
	}
	if s.prof != nil {
		res.ProfileRounds = s.prof.rounds
		res.ProfileReads = s.prof.reads
		res.ProfileDirectBits = s.prof.direct
		res.ProfileIndirectBits = s.prof.indirect
		res.AtRiskLines = len(s.prof.atRisk)
		res.AtRiskVisits = s.prof.redirected
	}
}
