package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/engine"
	"repro/internal/ondie"
	"repro/internal/scrub"
	"repro/internal/trace"
)

func init() {
	register(experiment{ID: "F22", Title: "On-die ECC and active error profiling (hidden-error regime)", Run: runF22})
}

// runF22 layers an on-die ECC code under the controller codec and
// measures the two consequences the HARP line of work predicts:
//
//  1. Hidden errors. On-die correction silently absorbs raw errors up to
//     its strength, so the controller's corrected-bit telemetry collapses
//     — and when a line's raw count finally exceeds the on-die strength,
//     it surfaces all at once, miscorrection-inflated. Reliability can
//     get *worse* than with no on-die code at all.
//  2. Profiling recovers the lost visibility. An active profiling policy
//     spends a small read budget on periodic profiling rounds, separates
//     direct from indirect error positions, and biases patrol toward the
//     at-risk minority — fewer UEs than uniform patrol at exactly equal
//     scrub-visit bandwidth.
//
// A third table sweeps the Luo-style capacity trade: running a weaker
// on-die code on the coldest lines reclaims check-bit storage. On a
// heavily aged device the weaker code is also *more* reliable — every
// overflow of a t-strong code surfaces miscorrection-inflated by t, so
// shrinking t on lines that overflow anyway trims the inflation the
// controller must absorb.
func runF22(env *environment) ([]core.Table, error) {
	// Pre-age the device into the minority-at-risk regime: the weakest
	// cells of a minority of lines are dead, so on-die overflows (and the
	// at-risk set) concentrate on an uneven population worth profiling.
	sys := env.sys
	sys.InitialLineWrites = 15_000_000
	w, err := trace.ByName("idle-archive")
	if err != nil {
		return nil, err
	}

	// Table 1: hidden-error regime across on-die strengths, controller
	// mechanism held fixed (BCH-8, full decode every sweep).
	mech, err := core.SuiteMechanism(sys, "strong-ecc")
	if err != nil {
		return nil, err
	}
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "VIOLATED"
	}
	strengths := []int{0, 1, 2, 4}
	if env.quick {
		strengths = []int{0, 1, 2}
	}
	hidT := core.Table{
		Title:  "Hidden-error regime (strong-ecc controller, on-die strength sweep)",
		Header: []string{"on-die t", "UEs", "controller corrected", "hidden corrected", "overflows"},
	}
	// Note: controller-visible corrected bits are NOT monotone in t. A
	// weak on-die code both hides sub-strength errors and inflates every
	// overflow by its worst-case miscorrection penalty (raw+t), so t=1 can
	// report *more* visible bits than no on-die code at all. The verdict
	// below therefore checks the strongest code in the sweep, where hiding
	// dominates inflation.
	var plainCorrected, lastCorrected, lastHidden int64
	for _, t := range strengths {
		osys := sys
		if t > 0 {
			osys.OnDie = &ondie.Config{T: t}
		}
		res, err := env.runOne(osys, mech, w)
		if err != nil {
			return nil, err
		}
		if t == 0 {
			plainCorrected = res.CorrectedBits
		}
		lastCorrected, lastHidden = res.CorrectedBits, res.OnDieCorrectedBits
		hidT.AddRow(fmt.Sprintf("%d", t),
			fmt.Sprintf("%d", res.UEs),
			fmt.Sprintf("%d", res.CorrectedBits),
			fmt.Sprintf("%d", res.OnDieCorrectedBits),
			fmt.Sprintf("%d", res.OnDieOverflows))
	}
	hidT.AddRow("errors hidden at max t",
		fmt.Sprintf("%d < %d visible", lastCorrected, plainCorrected),
		verdict(lastHidden > 0 && lastCorrected < plainCorrected), "", "")

	// Table 2: profiled vs uniform patrol at equal scrub bandwidth. Both
	// policies are full-decode with write-threshold 1 on the same fixed
	// interval; the profiled one additionally runs profiling rounds and
	// redirects a fraction of visits toward its at-risk set.
	// The comparison needs UE risk concentrated on the at-risk minority:
	// a BCH-4 controller leaves stuck-bit lines only a couple of drift
	// errors from uncorrectable while clean lines keep real margin, so
	// patrol bandwidth spent on the at-risk set pays. (Under BCH-8 every
	// line has so much margin that redirecting visits costs more than it
	// saves.) The interval is tight enough for the profiling cadence (one
	// round every 4 sweeps) to build and exploit its at-risk set.
	bch4, err := ecc.NewBCHLine(4)
	if err != nil {
		return nil, err
	}
	osys := sys
	osys.OnDie = &ondie.Config{T: 1}
	uniform := mech
	uniform.Scheme = bch4
	uniform.Policy, err = scrub.ByName("threshold-1")
	if err != nil {
		return nil, err
	}
	uniform.Name = "uniform"
	uniform.Interval = osys.Horizon / 32
	profiled := uniform
	profiled.Policy = scrub.ProfiledThreshold(1)
	profiled.Name = "profiled"

	profT := core.Table{
		Title:  "Profiled vs uniform patrol (BCH-4 controller, on-die t=1, equal scrub bandwidth)",
		Header: []string{"policy", "UEs", "visits", "profile rounds", "profile reads", "at-risk lines", "redirected visits"},
	}
	uRes, err := env.runOne(osys, uniform, w)
	if err != nil {
		return nil, err
	}
	pRes, err := env.runOne(osys, profiled, w)
	if err != nil {
		return nil, err
	}
	for _, r := range []struct {
		name string
		res  *engine.Result
	}{{"uniform", uRes}, {"profiled", pRes}} {
		profT.AddRow(r.name,
			fmt.Sprintf("%d", r.res.UEs),
			fmt.Sprintf("%d", r.res.ScrubVisits),
			fmt.Sprintf("%d", r.res.ProfileRounds),
			fmt.Sprintf("%d", r.res.ProfileReads),
			fmt.Sprintf("%d", r.res.AtRiskLines),
			fmt.Sprintf("%d", r.res.AtRiskVisits))
	}
	profT.AddRow("equal bandwidth", fmt.Sprintf("%d vs %d visits", pRes.ScrubVisits, uRes.ScrubVisits),
		verdict(pRes.ScrubVisits == uRes.ScrubVisits), "", "", "", "")
	profT.AddRow("profiled wins", fmt.Sprintf("%d < %d UEs", pRes.UEs, uRes.UEs),
		verdict(pRes.UEs < uRes.UEs), "", "", "", "")

	// Table 3: Luo-style capacity trade — the coldest fraction of lines
	// runs a t=1 code under a t=4 baseline. Check bits reclaimed scale
	// with the fraction; UEs *fall* with it on this aged device because
	// the weak code's overflows surface with a quarter of the strong
	// code's miscorrection inflation.
	fracs := []float64{0, 0.25, 0.5, 0.75}
	if env.quick {
		fracs = []float64{0, 0.5}
	}
	luoT := core.Table{
		Title:  "Workload-aware on-die capacity trade (t=4 base, t=1 on coldest lines)",
		Header: []string{"weak fraction", "UEs", "weak lines", "check bits saved", "hidden corrected"},
	}
	for _, f := range fracs {
		lsys := sys
		cfg := &ondie.Config{T: 4}
		if f > 0 {
			cfg.WeakT = 1
			cfg.WeakFraction = f
		}
		lsys.OnDie = cfg
		res, err := env.runOne(lsys, mech, w)
		if err != nil {
			return nil, err
		}
		luoT.AddRow(fmt.Sprintf("%.2f", f),
			fmt.Sprintf("%d", res.UEs),
			fmt.Sprintf("%d", res.OnDieWeakLines),
			fmt.Sprintf("%d", res.OnDieCheckBitsSaved),
			fmt.Sprintf("%d", res.OnDieCorrectedBits))
	}

	return []core.Table{hidT, profT, luoT}, nil
}
