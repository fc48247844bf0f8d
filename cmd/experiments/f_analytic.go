package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/memctrl"
	"repro/internal/trace"
	"repro/internal/wear"
)

func init() {
	register(experiment{ID: "F9", Title: "Scrub bandwidth and performance overhead vs interval", Run: runF9})
	register(experiment{ID: "F10", Title: "Drift-parameter sensitivity of the comparison", Run: runF10})
	register(experiment{ID: "F11", Title: "Endurance lifetime impact per mechanism", Run: runF11})
}

// runF9 evaluates the queueing model across candidate scrub intervals
// under db-oltp demand rates, at fleet scale (32 GiB of lines).
func runF9(env *environment) ([]core.Table, error) {
	w, err := trace.ByName("db-oltp")
	if err != nil {
		return nil, err
	}
	// Fleet scale: 32 GiB / 64 B lines, with banks scaled in proportion
	// (32 channels x 8 banks).
	const fleetLines = 32 << 30 / 64
	timing := memctrl.DefaultParams()
	timing.Banks = 256
	fleet, err := memctrl.NewModel(timing)
	if err != nil {
		return nil, err
	}
	footprint := w.FootprintFrac * float64(fleetLines)
	demandR := w.ReadsPerLinePerSec * footprint
	demandW := w.WritesPerLinePerSec * footprint
	t := core.Table{Title: "Scrub overhead vs interval (32 GiB, db-oltp demand)",
		Header: []string{"interval", "scrub reads/s", "scrub BW", "utilization", "slowdown"}}
	for _, interval := range []float64{60, 300, 900, 3600, 14400, 86400} {
		sr := memctrl.ScrubReadRate(fleetLines, interval)
		rates := memctrl.Rates{
			DemandReads: demandR, DemandWrites: demandW,
			ScrubReads: sr, ScrubWrites: sr * 0.03, // ~3% of visits write back
		}
		slow := fleet.Slowdown(rates)
		slowStr := fmt.Sprintf("%.4fx", slow)
		if math.IsInf(slow, 1) {
			slowStr = "saturated"
		}
		t.AddRow(core.FmtSeconds(interval),
			fmt.Sprintf("%.0f", sr),
			fmt.Sprintf("%.1f MB/s", fleet.BandwidthMBps(sr)),
			fmt.Sprintf("%.3f", fleet.Utilization(rates)),
			slowStr)
	}
	// Feasibility: shortest interval within a 10% utilisation budget.
	minIv := fleet.MinScrubInterval(fleetLines, demandR, demandW, 0.03, 0.10)
	fb := core.Table{Title: "Feasibility bound", Header: []string{"constraint", "value"}}
	fb.AddRow("min interval at 10% bank-utilisation budget", core.FmtSeconds(minIv))
	return []core.Table{t, fb}, nil
}

// runF10 re-runs basic vs combined with the drift-exponent spread scaled,
// asking whether the proposal's win survives optimistic and pessimistic
// device assumptions.
func runF10(env *environment) ([]core.Table, error) {
	w, err := trace.ByName("idle-archive")
	if err != nil {
		return nil, err
	}
	t := core.Table{Title: "Sensitivity to drift-exponent spread (idle-archive)",
		Header: []string{"sigma_nu scale", "basic UEs", "combined UEs", "UE reduction", "write factor", "energy reduction"}}
	for _, scale := range []float64{0.5, 1.0, 1.5, 2.0} {
		sys := env.sys
		for i := range sys.PCM.NuSigma {
			sys.PCM.NuSigma[i] *= scale
		}
		mechs, err := core.Suite(sys)
		if err != nil {
			return nil, err
		}
		var basic, combined core.Mechanism
		for _, m := range mechs {
			switch m.Name {
			case "basic":
				basic = m
			case "combined":
				combined = m
			}
		}
		rB, err := env.runOne(sys, basic, w)
		if err != nil {
			return nil, err
		}
		rC, err := env.runOne(sys, combined, w)
		if err != nil {
			return nil, err
		}
		ue := "n/a"
		if rB.UEs > 0 {
			ue = fmt.Sprintf("%.1f%%", 100*(1-float64(rC.UEs)/float64(rB.UEs)))
		}
		wf := "inf"
		if rC.ScrubWrites() > 0 {
			wf = fmt.Sprintf("%.1fx", float64(rB.ScrubWrites())/float64(rC.ScrubWrites()))
		}
		en := fmt.Sprintf("%.1f%%", 100*(1-rC.ScrubEnergy.Total()/rB.ScrubEnergy.Total()))
		t.AddRow(fmt.Sprintf("%.1fx", scale), core.FmtCount(rB.UEs), core.FmtCount(rC.UEs), ue, wf, en)
	}
	return []core.Table{t}, nil
}

// runF11 converts each mechanism's measured write rate into device
// lifetime: with the endurance model, how many years until the average
// line's hard errors alone exhaust the ECC budget.
func runF11(env *environment) ([]core.Table, error) {
	b, err := env.sharedMatrix()
	if err != nil {
		return nil, err
	}
	wm, err := wear.NewModel(env.sys.Wear)
	if err != nil {
		return nil, err
	}
	t := core.Table{Title: "Lifetime until hard errors exhaust ECC (stream-write workload)",
		Header: []string{"mechanism", "writes/line/day", "ECC budget", "lifetime"}}
	for _, m := range b.mx.Mechanisms {
		r := b.mx.Get(m, "stream-write")
		days := r.SimSeconds / 86400
		writesPerLineDay := float64(r.TotalLineWrites) / float64(r.Lines) / days
		budget := 1
		if r.SchemeName != "SECDED" {
			// Allow hard errors to consume half the BCH budget.
			budget = 4
		}
		lifeWrites := wm.LifetimeWrites(budget)
		years := lifeWrites / writesPerLineDay / 365
		t.AddRow(m, fmt.Sprintf("%.1f", writesPerLineDay),
			fmt.Sprintf("%d cells", budget),
			fmt.Sprintf("%.1f years", years))
	}
	return []core.Table{t}, nil
}
