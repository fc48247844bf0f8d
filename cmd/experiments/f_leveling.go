package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

func init() {
	register(experiment{ID: "F13", Title: "Start-Gap wear leveling vs scrub write traffic", Run: runF13})
}

// runF13 quantifies how wear leveling interacts with scrub policies: the
// basic policy's heavy write-back traffic concentrates on drift-prone
// cold lines, while Start-Gap spreads it — and the combined mechanism
// writes so little that leveling has far less work to do. Metrics: the
// wear hot-spot (max per-slot writes) with and without leveling, and the
// leveler's own write overhead.
func runF13(env *environment) ([]core.Table, error) {
	sys := env.sys
	w, err := trace.ByName("kv-store") // skewed writes: the leveling use-case
	if err != nil {
		return nil, err
	}
	t := core.Table{Title: "Wear hot-spot with and without Start-Gap (kv-store)",
		Header: []string{"mechanism", "leveling", "max slot writes", "mean slot writes", "gap moves", "UEs"}}
	for _, mechName := range []string{"basic", "combined"} {
		mech, err := core.SuiteMechanism(sys, mechName)
		if err != nil {
			return nil, err
		}
		for _, period := range []uint64{0, 100} {
			levSys := sys
			res, err := env.runOneWithOptions(levSys, mech, w, core.Options{GapMovePeriod: period})
			if err != nil {
				return nil, err
			}
			mean := float64(res.TotalLineWrites) / float64(res.Lines)
			levLabel := "off"
			if period > 0 {
				levLabel = fmt.Sprintf("gap/%d", period)
			}
			t.AddRow(mechName, levLabel,
				core.FmtCount(int64(res.MaxLineWrites)),
				fmt.Sprintf("%.1f", mean),
				core.FmtCount(res.LevelerMoves),
				core.FmtCount(res.UEs))
		}
	}
	return []core.Table{t}, nil
}
