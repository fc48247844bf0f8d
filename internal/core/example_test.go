package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Demonstrates the library's primary loop: build a system, pick
// mechanisms from the paper's ladder, run each on a workload through the
// engine, compare. (Outputs are printed as relations, which hold for any
// seed.)
func Example() {
	sys := core.DefaultSystem()
	// Shrink the region and horizon so the example runs in milliseconds.
	sys.Geometry = mem.Geometry{
		Channels: 1, RanksPerChan: 1, BanksPerRank: 2,
		RowsPerBank: 16, LinesPerRow: 8, LineBytes: 64,
	}
	sys.Horizon = 40000

	workload := trace.Workload{
		Name:                "example",
		WritesPerLinePerSec: 1e-5,
		ReadsPerLinePerSec:  1e-4,
		FootprintFrac:       1.0,
	}

	basic, err := core.SuiteMechanism(sys, "basic")
	if err != nil {
		log.Fatal(err)
	}
	combined, err := core.SuiteMechanism(sys, "combined")
	if err != nil {
		log.Fatal(err)
	}
	rBasic, err := engine.Run(engine.ResolveSpec(sys, basic, workload, engine.Options{}))
	if err != nil {
		log.Fatal(err)
	}
	rCombined, err := engine.Run(engine.ResolveSpec(sys, combined, workload, engine.Options{}))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("basic scrubs more often:",
		rBasic.Sweeps > rCombined.Sweeps)
	fmt.Println("combined writes less:",
		rCombined.ScrubWrites() < rBasic.ScrubWrites())
	fmt.Println("combined spends less energy:",
		rCombined.ScrubEnergy.Total() < rBasic.ScrubEnergy.Total())
	fmt.Println("combined is at least as reliable:",
		rCombined.UEs <= rBasic.UEs)
	// Output:
	// basic scrubs more often: true
	// combined writes less: true
	// combined spends less energy: true
	// combined is at least as reliable: true
}
