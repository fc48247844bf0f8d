// Ondie: demonstrates the hidden-error regime an on-die ECC layer
// creates, and how HARP-style active profiling claws the lost visibility
// back. Three runs of the same aged device:
//
//  1. no on-die ECC — the controller sees every raw error;
//
//  2. on-die SECDED under a uniform patrol — sub-strength errors vanish
//     from telemetry until a line overflows, then surface all at once,
//     miscorrection-inflated;
//
//  3. the same chip under an active-profiling policy — periodic profiling
//     rounds build an at-risk set and patrol visits are biased toward it
//     at exactly equal scrub bandwidth.
//
//     go run ./examples/ondie
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/engine"
	"repro/internal/ondie"
	"repro/internal/scrub"
	"repro/internal/trace"
)

func main() {
	// A small device, pre-aged to the minority-at-risk point: the weakest
	// cells of some lines are dead, so raw errors concentrate unevenly —
	// the population profiling exists to find.
	sys := core.DefaultSystem()
	sys.Geometry.RowsPerBank = 16 // 4096 lines
	sys.Horizon = 43200           // half a day
	sys.InitialLineWrites = 15_000_000

	w, err := trace.ByName("idle-archive")
	if err != nil {
		log.Fatal(err)
	}
	mech, err := core.SuiteMechanism(sys, "strong-ecc")
	if err != nil {
		log.Fatal(err)
	}
	// BCH-4 keeps the controller honest: stuck-bit lines sit only a couple
	// of drift errors from uncorrectable, so where patrol bandwidth goes
	// actually matters.
	mech.Scheme, err = ecc.NewBCHLine(4)
	if err != nil {
		log.Fatal(err)
	}
	mech.Policy, err = scrub.ByName("threshold-1")
	if err != nil {
		log.Fatal(err)
	}
	mech.Interval = sys.Horizon / 32

	// Run 1: bare chip, every raw error is controller-visible.
	bare, err := core.RunOne(sys, mech, w)
	if err != nil {
		log.Fatal(err)
	}

	// Run 2: on-die SECDED under the same uniform patrol.
	osys := sys
	osys.OnDie = &ondie.Config{T: 1}
	hidden, err := core.RunOne(osys, mech, w)
	if err != nil {
		log.Fatal(err)
	}

	// Run 3: same chip, profiled policy — same write threshold, same
	// interval, plus profiling rounds and at-risk patrol bias.
	pm := mech
	pm.Policy = scrub.ProfiledThreshold(1)
	profiled, err := core.RunOne(osys, pm, w)
	if err != nil {
		log.Fatal(err)
	}

	vis := core.Table{
		Title:  "What the controller sees (aged device, BCH-4 controller)",
		Header: []string{"metric", "no on-die ECC", "on-die SECDED", "on-die + profiling"},
	}
	row := func(name string, f func(*engine.Result) string) {
		vis.AddRow(name, f(bare), f(hidden), f(profiled))
	}
	row("controller corrected bits", func(r *engine.Result) string { return core.FmtCount(r.CorrectedBits) })
	row("hidden corrected bits", func(r *engine.Result) string { return core.FmtCount(r.OnDieCorrectedBits) })
	row("on-die overflows", func(r *engine.Result) string { return core.FmtCount(r.OnDieOverflows) })
	row("uncorrectable errors", func(r *engine.Result) string { return core.FmtCount(r.UEs) })
	row("scrub visits", func(r *engine.Result) string { return core.FmtCount(r.ScrubVisits) })
	if err := vis.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	prof := core.Table{
		Title:  "What profiling bought (equal scrub bandwidth)",
		Header: []string{"metric", "value"},
	}
	prof.AddRow("profiling rounds", core.FmtCount(profiled.ProfileRounds))
	prof.AddRow("profiling reads", core.FmtCount(profiled.ProfileReads))
	prof.AddRow("direct error bits", core.FmtCount(profiled.ProfileDirectBits))
	prof.AddRow("indirect error bits", core.FmtCount(profiled.ProfileIndirectBits))
	prof.AddRow("at-risk lines", core.FmtCount(int64(profiled.AtRiskLines)))
	prof.AddRow("redirected visits", core.FmtCount(profiled.AtRiskVisits))
	prof.AddRow("UEs vs uniform patrol", fmt.Sprintf("%d vs %d", profiled.UEs, hidden.UEs))
	if err := prof.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if profiled.UEs < hidden.UEs {
		fmt.Printf("\nprofiled patrol removed %.0f%% of UEs at identical scrub bandwidth (%d visits)\n",
			100*(1-float64(profiled.UEs)/float64(hidden.UEs)), profiled.ScrubVisits)
	}
}
