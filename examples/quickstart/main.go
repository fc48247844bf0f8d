// Quickstart: the smallest end-to-end use of the library — build the
// default system, take the DRAM-style baseline scrub and the paper's
// combined mechanism, run both on one workload, and print the comparison.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trace"
)

func main() {
	// 1. A system: geometry, PCM drift physics, wear, energy costs.
	sys := core.DefaultSystem()
	sys.Horizon = 43200 // half a day is plenty for a demo

	// 2. A workload: how often lines are rewritten and read.
	workload, err := trace.ByName("db-oltp")
	if err != nil {
		log.Fatal(err)
	}

	// 3. Two mechanisms from the paper's ladder.
	basic, err := core.SuiteMechanism(sys, "basic")
	if err != nil {
		log.Fatal(err)
	}
	combined, err := core.SuiteMechanism(sys, "combined")
	if err != nil {
		log.Fatal(err)
	}

	// 4. Run them.
	rBasic, err := engine.Run(engine.ResolveSpec(sys, basic, workload, engine.Options{}))
	if err != nil {
		log.Fatal(err)
	}
	rCombined, err := engine.Run(engine.ResolveSpec(sys, combined, workload, engine.Options{}))
	if err != nil {
		log.Fatal(err)
	}

	// 5. Compare.
	t := core.Table{
		Title:  fmt.Sprintf("basic vs combined on %s (%s)", workload.Name, core.FmtSeconds(sys.Horizon)),
		Header: []string{"metric", "basic (SECDED)", "combined (BCH-8)"},
	}
	t.AddRow("uncorrectable errors",
		core.FmtCount(rBasic.UEs), core.FmtCount(rCombined.UEs))
	t.AddRow("scrub writes",
		core.FmtCount(rBasic.ScrubWrites()), core.FmtCount(rCombined.ScrubWrites()))
	t.AddRow("scrub energy",
		core.FmtEnergy(rBasic.ScrubEnergy.Total()), core.FmtEnergy(rCombined.ScrubEnergy.Total()))
	t.AddRow("sweeps",
		core.FmtCount(int64(rBasic.Sweeps)), core.FmtCount(int64(rCombined.Sweeps)))
	t.AddRow("final interval",
		core.FmtSeconds(rBasic.FinalInterval), core.FmtSeconds(rCombined.FinalInterval))
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if rCombined.ScrubWrites() > 0 {
		fmt.Printf("\ncombined mechanism: %.1fx fewer scrub writes, %.1f%% less scrub energy\n",
			float64(rBasic.ScrubWrites())/float64(rCombined.ScrubWrites()),
			100*(1-rCombined.ScrubEnergy.Total()/rBasic.ScrubEnergy.Total()))
	}
}
