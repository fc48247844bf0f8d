package engine

import (
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/scrub"
	"repro/internal/stats"
)

// RoundRecord captures one sweep when Spec.RecordRounds is set.
type RoundRecord struct {
	Start    float64
	Interval float64
	Stats    scrub.RoundStats
}

// Result is the outcome of one simulation run.
type Result struct {
	PolicyName   string
	SchemeName   string
	WorkloadName string

	Lines      int
	SimSeconds float64
	Sweeps     int

	// Reliability.
	UEs           int64
	CorrectedBits int64
	MaxErrBits    int

	// Scrub activity.
	ScrubVisits     int64
	ScrubDecodes    int64
	ScrubProbes     int64 // lightweight CRC checks
	ScrubWriteBacks int64 // policy write-backs (excludes repairs)
	RepairWrites    int64 // rewrites forced by UEs

	// Demand activity.
	DemandWrites int64

	// Energy, priced from the run's operation counts when the result is
	// read (at the end of a run, or by Device.Totals).
	ScrubEnergy  energy.Ledger
	DemandEnergy energy.Ledger

	// Wear at end of run.
	TotalLineWrites int64
	DeadCells       int64
	LinesWithDead   int

	// Interval control.
	FinalInterval float64

	// ECPCoveredCells counts stuck cells neutralised by error-correcting
	// pointers at end of run (0 when ECP is off).
	ECPCoveredCells int64

	// Wear leveling (when enabled).
	LevelerMoves int64
	// MaxLineWrites is the largest per-slot write count at end of run —
	// the wear hot-spot metric Start-Gap exists to flatten.
	MaxLineWrites uint32

	// UE detection attribution. Scrub counts every UE, but if demand
	// reads had raced the scrub sweep, some would have surfaced to
	// software first; UEsReadFirst estimates how many (using the
	// workload's average per-footprint-line read rate), and
	// UEDetectDelay is the time each UE spent latent between becoming
	// uncorrectable and the detecting sweep.
	UEsReadFirst  int64
	UEDetectDelay stats.Summary

	// Faults attributes injected scrub-path fault activity (all zero
	// when Spec.Fault is nil or all-zero).
	Faults fault.Counts

	// On-die ECC (all zero when Spec.OnDie is nil or all-zero).
	// OnDieCorrectedBits counts raw error bits the chip hid from the
	// controller; OnDieOverflows counts observations whose raw pattern
	// exceeded the on-die strength and surfaced miscorrection-inflated.
	// The omitempty tags keep the result's JSON encoding — and with it
	// every pre-existing golden result fingerprint — byte-identical
	// while the subsystem is disabled.
	OnDieCorrectedBits int64 `json:",omitempty"`
	OnDieOverflows     int64 `json:",omitempty"`
	// OnDieWeakLines and OnDieCheckBitsSaved report the Luo-style
	// capacity trade: lines running the weaker code and the check-bit
	// storage that reclaimed.
	OnDieWeakLines      int   `json:",omitempty"`
	OnDieCheckBitsSaved int64 `json:",omitempty"`

	// Active profiling (all zero unless the policy has a profiling
	// schedule).
	// Direct positions surface when the on-die decode fails outright;
	// indirect ones are pried out of still-correcting lines by repeated
	// profiling passes.
	ProfileRounds       int64 `json:",omitempty"`
	ProfileReads        int64 `json:",omitempty"`
	ProfileDirectBits   int64 `json:",omitempty"`
	ProfileIndirectBits int64 `json:",omitempty"`
	// AtRiskLines is the at-risk set size at end of run; AtRiskVisits
	// counts patrol visits redirected toward at-risk lines.
	AtRiskLines  int   `json:",omitempty"`
	AtRiskVisits int64 `json:",omitempty"`

	Rounds []RoundRecord
}

// ScrubWrites returns all scrub-attributed array writes (write-backs plus
// UE repairs) — the paper's "scrub-related writes" metric.
func (r *Result) ScrubWrites() int64 { return r.ScrubWriteBacks + r.RepairWrites }

// UERatePerGBDay normalises UEs to a fleet-comparable rate.
func (r *Result) UERatePerGBDay(lineBytes int) float64 {
	gb := float64(r.Lines) * float64(lineBytes) / 1e9
	days := r.SimSeconds / 86400
	if gb == 0 || days == 0 {
		return 0
	}
	return float64(r.UEs) / gb / days
}

// ScrubReadRate returns average scrub reads per second over the run.
func (r *Result) ScrubReadRate() float64 {
	if r.SimSeconds == 0 {
		return 0
	}
	return float64(r.ScrubVisits) / r.SimSeconds
}

// ScrubWriteRate returns average scrub writes per second over the run.
func (r *Result) ScrubWriteRate() float64 {
	if r.SimSeconds == 0 {
		return 0
	}
	return float64(r.ScrubWrites()) / r.SimSeconds
}
