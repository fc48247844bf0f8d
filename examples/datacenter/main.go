// Datacenter: a fleet-reliability study. Simulates a sampled region under
// the baseline and the combined scrub mechanism for a week of server
// time, then extrapolates UE rates, scrub bandwidth, energy, and
// endurance burn to a fleet of PCM-main-memory servers — the question an
// operator would actually ask of this paper.
//
//	go run ./examples/datacenter
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/memctrl"
	"repro/internal/trace"
	"repro/internal/wear"
)

const (
	serverGiB = 256   // PCM per server
	fleetSize = 10000 // servers
	lineBytes = 64
	week      = 7 * 86400.0
)

func main() {
	sys := core.DefaultSystem()
	sys.Horizon = week
	workload, err := trace.ByName("kv-store")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fleet study: %d servers x %d GiB MLC PCM, workload %s, one week\n\n",
		fleetSize, serverGiB, workload.Name)

	names := []string{"basic", "combined"}
	numbers := map[string]*fleetNumbers{}
	for _, name := range names {
		mech, err := core.SuiteMechanism(sys, name)
		if err != nil {
			log.Fatal(err)
		}
		res, err := engine.Run(engine.ResolveSpec(sys, mech, workload, engine.Options{}))
		if err != nil {
			log.Fatal(err)
		}
		numbers[name] = extrapolate(sys, res)
	}

	t := core.Table{
		Title:  "Fleet-level extrapolation (per week unless noted)",
		Header: []string{"metric", "basic", "combined"},
	}
	rows := []struct {
		label string
		get   func(*fleetNumbers) string
	}{
		{"UEs across fleet", func(f *fleetNumbers) string { return fmt.Sprintf("%.0f", f.fleetUEs) }},
		{"servers hit by a UE", func(f *fleetNumbers) string { return fmt.Sprintf("%.0f", f.serversHit) }},
		{"scrub traffic per server", func(f *fleetNumbers) string { return fmt.Sprintf("%.1f MB/s", f.scrubMBps) }},
		{"scrub energy per server", func(f *fleetNumbers) string { return fmt.Sprintf("%.2f J", f.scrubJoules) }},
		{"writes per line (scrub+demand)", func(f *fleetNumbers) string { return fmt.Sprintf("%.1f", f.writesPerLine) }},
		{"years to ECC-budget wearout", func(f *fleetNumbers) string { return fmt.Sprintf("%.0f", f.lifetimeYears) }},
	}
	for _, r := range rows {
		t.AddRow(r.label, r.get(numbers["basic"]), r.get(numbers["combined"]))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n(UE magnitudes reflect the aggressive drift parameters of the study's")
	fmt.Println(" device model; the basic-vs-combined ratio is the result that transfers.)")
}

type fleetNumbers struct {
	fleetUEs      float64
	serversHit    float64
	scrubMBps     float64
	scrubJoules   float64
	writesPerLine float64
	lifetimeYears float64
}

// extrapolate scales a sampled-region result to fleet capacity: counts and
// energies scale with the line ratio; per-line rates are intensive.
func extrapolate(sys core.System, res *engine.Result) *fleetNumbers {
	f := &fleetNumbers{}
	serverGB := float64(serverGiB) * (1 << 30) / 1e9
	perServerUEs := res.UERatePerGBDay(lineBytes) * serverGB * 7
	f.fleetUEs = perServerUEs * fleetSize
	f.serversHit = fleetSize * (1 - math.Exp(-perServerUEs))

	regionLines := float64(sys.Geometry.TotalLines())
	serverLines := float64(serverGiB) * (1 << 30) / lineBytes
	scale := serverLines / regionLines

	m := memctrl.MustModel(memctrl.DefaultParams())
	f.scrubMBps = m.BandwidthMBps((res.ScrubReadRate() + res.ScrubWriteRate()) * scale)
	f.scrubJoules = res.ScrubEnergy.Total() * scale / 1e12

	days := res.SimSeconds / 86400
	f.writesPerLine = float64(res.TotalLineWrites) / regionLines
	writesPerLineDay := f.writesPerLine / days

	wm := wear.MustModel(sys.Wear)
	budget := 4 // allow hard errors half of a BCH-8 budget
	if res.SchemeName == "SECDED" {
		budget = 1
	}
	f.lifetimeYears = wm.LifetimeWrites(budget) / writesPerLineDay / 365
	return f
}
