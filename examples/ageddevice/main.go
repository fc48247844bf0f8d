// Ageddevice: operating worn-out PCM. A device late in life has stuck
// cells on most lines; this example shows how the hard-error companion
// mechanisms — error-correcting pointers and Start-Gap wear leveling —
// compose with the paper's combined scrub mechanism to keep an aged
// array serviceable.
//
//	go run ./examples/ageddevice
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
	sys := core.DefaultSystem()
	sys.Horizon = 86400         // one day
	sys.InitialLineWrites = 3e7 // ~4-5 stuck cells per line

	workload, err := trace.ByName("kv-store")
	if err != nil {
		log.Fatal(err)
	}
	mech, err := core.SuiteMechanism(sys, "combined")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("device aged to 3e7 writes per line (median endurance 1e8);")
	fmt.Println("combined scrub mechanism, kv-store workload, one day")
	fmt.Println()

	configs := []struct {
		label string
		opts  engine.Options
	}{
		{"bare", engine.Options{}},
		{"+ECP-6", engine.Options{ECPEntries: 6}},
		{"+leveling", engine.Options{GapMovePeriod: 100}},
		{"+ECP-6 +leveling", engine.Options{ECPEntries: 6, GapMovePeriod: 100}},
	}

	t := core.Table{
		Title:  "Hard-error mechanisms under the combined scrub",
		Header: []string{"configuration", "UEs", "scrub writes", "stuck covered", "max slot writes", "energy"},
	}
	for _, c := range configs {
		res, err := engine.Run(engine.ResolveSpec(sys, mech, workload, c.opts))
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(c.label,
			core.FmtCount(res.UEs),
			core.FmtCount(res.ScrubWrites()),
			core.FmtCount(res.ECPCoveredCells),
			core.FmtCount(int64(res.MaxLineWrites)),
			core.FmtEnergy(res.ScrubEnergy.Total()))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("ECP removes the stuck cells from the ECC's view (UEs and panic")
	fmt.Println("write-backs collapse); leveling flattens where future wear lands.")
}
