package engine

import (
	"context"
	"errors"
	"sync/atomic"
)

// Totals is a snapshot of the engine's process-wide run counters. scrubd
// exposes it on /metrics as the scrubd_engine_* family.
type Totals struct {
	// Runs counts completed runs; CanceledRuns counts runs that ended on
	// a cancelled or expired context.
	Runs         int64 `json:"runs"`
	CanceledRuns int64 `json:"canceled_runs"`

	// Work performed by completed runs.
	Visits       int64 `json:"visits"`
	Sweeps       int64 `json:"sweeps"`
	Probes       int64 `json:"probes"`
	Decodes      int64 `json:"decodes"`
	WriteBacks   int64 `json:"write_backs"`
	Repairs      int64 `json:"repairs"`
	DemandWrites int64 `json:"demand_writes"`
	UEs          int64 `json:"ues"`
	// SimSeconds accumulates simulated time across completed runs.
	SimSeconds float64 `json:"sim_seconds"`

	// On-die ECC and active profiling (zero while the subsystem is off).
	OnDieCorrectedBits int64 `json:"ondie_corrected_bits"`
	ProfileRounds      int64 `json:"profile_rounds"`
	ProfileReads       int64 `json:"profile_reads"`
	AtRiskLines        int64 `json:"at_risk_lines"`
	AtRiskVisits       int64 `json:"at_risk_visits"`
}

// totals is the live process-wide aggregate. Updated once per run (a
// handful of atomic adds), never from the hot loop.
var totals struct {
	runs, canceled                         atomic.Int64
	visits, sweeps, probes, decodes        atomic.Int64
	writeBacks, repairs, demandWrites, ues atomic.Int64
	simNanos                               atomic.Int64 // simulated time in ns to keep it atomic

	ondieCorrected, profileRounds, profileReads atomic.Int64
	atRiskLines, atRiskVisits                   atomic.Int64
}

// recordRun folds one finished run into the process-wide totals.
func recordRun(res *Result, err error) {
	if err != nil {
		if errIsCanceled(err) {
			totals.canceled.Add(1)
		}
		return
	}
	totals.runs.Add(1)
	totals.visits.Add(res.ScrubVisits)
	totals.sweeps.Add(int64(res.Sweeps))
	totals.probes.Add(res.ScrubProbes)
	totals.decodes.Add(res.ScrubDecodes)
	totals.writeBacks.Add(res.ScrubWriteBacks)
	totals.repairs.Add(res.RepairWrites)
	totals.demandWrites.Add(res.DemandWrites)
	totals.ues.Add(res.UEs)
	totals.simNanos.Add(int64(res.SimSeconds * 1e9))
	totals.ondieCorrected.Add(res.OnDieCorrectedBits)
	totals.profileRounds.Add(res.ProfileRounds)
	totals.profileReads.Add(res.ProfileReads)
	totals.atRiskLines.Add(int64(res.AtRiskLines))
	totals.atRiskVisits.Add(res.AtRiskVisits)
}

// errIsCanceled reports whether err stems from context cancellation.
func errIsCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Stats snapshots the process-wide engine totals.
func Stats() Totals {
	return Totals{
		Runs:         totals.runs.Load(),
		CanceledRuns: totals.canceled.Load(),
		Visits:       totals.visits.Load(),
		Sweeps:       totals.sweeps.Load(),
		Probes:       totals.probes.Load(),
		Decodes:      totals.decodes.Load(),
		WriteBacks:   totals.writeBacks.Load(),
		Repairs:      totals.repairs.Load(),
		DemandWrites: totals.demandWrites.Load(),
		UEs:          totals.ues.Load(),
		SimSeconds:   float64(totals.simNanos.Load()) / 1e9,

		OnDieCorrectedBits: totals.ondieCorrected.Load(),
		ProfileRounds:      totals.profileRounds.Load(),
		ProfileReads:       totals.profileReads.Load(),
		AtRiskLines:        totals.atRiskLines.Load(),
		AtRiskVisits:       totals.atRiskVisits.Load(),
	}
}
