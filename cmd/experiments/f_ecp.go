package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ecp"
	"repro/internal/engine"
	"repro/internal/pcm"
	"repro/internal/trace"
)

func init() {
	register(experiment{ID: "F20", Title: "Error-correcting pointers vs aged-device UEs", Run: runF20})
}

// runF20 walks the hard-error companion mechanism: on a device aged to
// ~4-5 stuck cells per line, each ECP entry removes one stuck cell from
// the ECC's view, restoring drift-error margin. The experiment sweeps
// the entry count and reports the reliability payoff against the storage
// cost.
func runF20(env *environment) ([]core.Table, error) {
	sys := env.sys
	sys.InitialLineWrites = 30_000_000
	w, err := trace.ByName("idle-archive")
	if err != nil {
		return nil, err
	}
	mech, err := core.SuiteMechanism(sys, "threshold")
	if err != nil {
		return nil, err
	}
	t := core.Table{Title: "ECP sweep (BCH-8 threshold mechanism, device aged 3e7 writes)",
		Header: []string{"ECP entries", "storage bits/line", "stuck cells covered",
			"UEs", "scrub writes", "energy"}}
	for _, entries := range []int{0, 2, 4, 6, 8} {
		res, err := env.runOneWithOptions(sys, mech, w, engine.Options{ECPEntries: entries})
		if err != nil {
			return nil, err
		}
		p := ecp.Params{Entries: entries, CellsPerLine: pcm.CellsPerLine, BitsPerCell: pcm.BitsPerCell}
		t.AddRow(fmt.Sprintf("%d", entries),
			fmt.Sprintf("%d", p.OverheadBits()),
			core.FmtCount(res.ECPCoveredCells),
			core.FmtCount(res.UEs),
			core.FmtCount(res.ScrubWrites()),
			core.FmtEnergy(res.ScrubEnergy.Total()))
	}
	return []core.Table{t}, nil
}
