package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

func init() {
	register(experiment{ID: "F15", Title: "Headline stability across seeds (Monte Carlo error bars)", Run: runF15})
}

// runF15 quantifies the statistical spread of the headline comparison:
// basic vs combined on the drift-bound workload, replicated across
// independent seeds with paired-difference standard errors. A reproduction
// that only reports one seed can't distinguish a mechanism effect from
// Monte Carlo luck; this table shows the effect dwarfs the noise.
func runF15(env *environment) ([]core.Table, error) {
	sys := env.sys
	replicas := 5
	if env.quick {
		replicas = 3
	}
	w, err := trace.ByName("idle-archive")
	if err != nil {
		return nil, err
	}
	basicM, err := core.SuiteMechanism(sys, "basic")
	if err != nil {
		return nil, err
	}
	combM, err := core.SuiteMechanism(sys, "combined")
	if err != nil {
		return nil, err
	}
	base, err := env.runReplicated(sys, basicM, w, replicas)
	if err != nil {
		return nil, err
	}
	prop, err := env.runReplicated(sys, combM, w, replicas)
	if err != nil {
		return nil, err
	}
	ci, err := core.CompareReplicated(base, prop)
	if err != nil {
		return nil, err
	}

	t := core.Table{
		Title:  fmt.Sprintf("Per-metric spread over %d seeds (idle-archive)", replicas),
		Header: []string{"metric", "basic mean±se", "combined mean±se"},
	}
	t.AddRow("UEs",
		fmt.Sprintf("%.1f ± %.1f", base.UEs.Mean(), base.UEs.StdErr()),
		fmt.Sprintf("%.1f ± %.1f", prop.UEs.Mean(), prop.UEs.StdErr()))
	t.AddRow("scrub writes",
		fmt.Sprintf("%.0f ± %.0f", base.ScrubWrites.Mean(), base.ScrubWrites.StdErr()),
		fmt.Sprintf("%.0f ± %.0f", prop.ScrubWrites.Mean(), prop.ScrubWrites.StdErr()))
	t.AddRow("scrub energy",
		fmt.Sprintf("%s ± %s", core.FmtEnergy(base.ScrubEnergy.Mean()), core.FmtEnergy(base.ScrubEnergy.StdErr())),
		fmt.Sprintf("%s ± %s", core.FmtEnergy(prop.ScrubEnergy.Mean()), core.FmtEnergy(prop.ScrubEnergy.StdErr())))

	hl := core.Table{
		Title:  "Headline reductions with paired standard errors",
		Header: []string{"metric", "mean ± se"},
	}
	hl.AddRow("UE reduction", fmt.Sprintf("%.2f%% ± %.2f", ci.UEReductionPct, ci.UEReductionStderr))
	hl.AddRow("write factor", fmt.Sprintf("%.1fx ± %.1f", ci.WriteFactor, ci.WriteFactorStderr))
	hl.AddRow("energy reduction", fmt.Sprintf("%.2f%% ± %.2f", ci.EnergyReductionPct, ci.EnergyReductionStderr))
	return []core.Table{t, hl}, nil
}
