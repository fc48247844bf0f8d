package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trace"
)

func init() {
	register(experiment{ID: "F17", Title: "SLC form-switch fraction vs scrub burden", Run: runF17})
	register(experiment{ID: "F18", Title: "UE detection: scrub vs demand-read race", Run: runF18})
}

// runF17 models form-switch storage (compressible lines held in SLC form,
// whose band separation makes drift negligible): as the compressible
// fraction grows, the scrub mechanism has proportionally less drift to
// chase. This reconstructs the interaction between the scrub paper and
// its companion MLC-write-improvement work.
func runF17(env *environment) ([]core.Table, error) {
	w, err := trace.ByName("idle-archive")
	if err != nil {
		return nil, err
	}
	mech, err := core.SuiteMechanism(env.sys, "threshold")
	if err != nil {
		return nil, err
	}
	t := core.Table{Title: "SLC fraction sweep (threshold mechanism, idle-archive)",
		Header: []string{"SLC fraction", "UEs", "scrub writes", "corrected bits", "scrub energy"}}
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		res, err := env.runOneWithOptions(env.sys, mech, w, engine.Options{SLCFraction: f})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f%%", f*100),
			core.FmtCount(res.UEs),
			core.FmtCount(res.ScrubWrites()),
			core.FmtCount(res.CorrectedBits),
			core.FmtEnergy(res.ScrubEnergy.Total()))
	}
	return []core.Table{t}, nil
}

// runF18 asks the motivation question: without scrub's proactive sweeps,
// how many uncorrectable lines would software have read first, and how
// long do UEs sit latent? Shorter sweeps catch errors before software
// does — the basic rationale for patrol scrub.
func runF18(env *environment) ([]core.Table, error) {
	w, err := trace.ByName("web-serve") // read-heavy, write-light
	if err != nil {
		return nil, err
	}
	t := core.Table{Title: "UE latency and read race (web-serve)",
		Header: []string{"mechanism", "UEs", "read-first", "mean latency", "max latency"}}
	for _, name := range []string{"basic", "threshold", "combined"} {
		mech, err := core.SuiteMechanism(env.sys, name)
		if err != nil {
			return nil, err
		}
		res, err := env.runOne(env.sys, mech, w)
		if err != nil {
			return nil, err
		}
		readFirst := "n/a"
		meanLat, maxLat := "n/a", "n/a"
		if res.UEs > 0 {
			readFirst = fmt.Sprintf("%.0f%%", 100*float64(res.UEsReadFirst)/float64(res.UEs))
			meanLat = core.FmtSeconds(res.UEDetectDelay.Mean())
			maxLat = core.FmtSeconds(res.UEDetectDelay.Max())
		}
		t.AddRow(name, core.FmtCount(res.UEs), readFirst, meanLat, maxLat)
	}
	return []core.Table{t}, nil
}
