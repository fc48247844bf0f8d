package service

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/stats"
)

// EnergyMetrics is the wire form of an energy ledger, in picojoules.
type EnergyMetrics struct {
	ReadPJ   float64 `json:"read_pj"`
	DecodePJ float64 `json:"decode_pj"`
	DetectPJ float64 `json:"detect_pj"`
	WritePJ  float64 `json:"write_pj"`
	TotalPJ  float64 `json:"total_pj"`
}

// FaultMetrics is the wire form of the injected-fault counters.
type FaultMetrics struct {
	ReadFaultVisits   int64   `json:"read_fault_visits"`
	PhantomBits       int64   `json:"phantom_bits"`
	SweepsInterrupted int64   `json:"sweeps_interrupted"`
	LinesSkipped      int64   `json:"lines_skipped"`
	ProbeFalseCleans  int64   `json:"probe_false_cleans"`
	StuckCheckLines   int64   `json:"stuck_check_lines"`
	StuckDecodes      int64   `json:"stuck_decodes"`
	Stalls            int64   `json:"stalls"`
	StallSeconds      float64 `json:"stall_seconds"`
	InducedUEs        int64   `json:"induced_ues"`
}

func newFaultMetrics(c *fault.Counts) *FaultMetrics {
	if !c.Any() {
		return nil
	}
	return &FaultMetrics{
		ReadFaultVisits:   c.ReadFaultVisits,
		PhantomBits:       c.PhantomBits,
		SweepsInterrupted: c.SweepsInterrupted,
		LinesSkipped:      c.LinesSkipped,
		ProbeFalseCleans:  c.ProbeFalseCleans,
		StuckCheckLines:   c.StuckCheckLines,
		StuckDecodes:      c.StuckDecodes,
		Stalls:            c.Stalls,
		StallSeconds:      c.StallSeconds,
		InducedUEs:        c.InducedUEs,
	}
}

// OnDieMetrics is the wire form of the on-die ECC and active-profiling
// counters (present only when the run had the subsystem engaged).
type OnDieMetrics struct {
	CorrectedBits  int64 `json:"corrected_bits"`
	Overflows      int64 `json:"overflows"`
	WeakLines      int   `json:"weak_lines,omitempty"`
	CheckBitsSaved int64 `json:"check_bits_saved,omitempty"`

	ProfileRounds       int64 `json:"profile_rounds,omitempty"`
	ProfileReads        int64 `json:"profile_reads,omitempty"`
	ProfileDirectBits   int64 `json:"profile_direct_bits,omitempty"`
	ProfileIndirectBits int64 `json:"profile_indirect_bits,omitempty"`
	AtRiskLines         int   `json:"at_risk_lines,omitempty"`
	AtRiskVisits        int64 `json:"at_risk_visits,omitempty"`
}

func newOnDieMetrics(res *engine.Result) *OnDieMetrics {
	if res.OnDieCorrectedBits == 0 && res.OnDieOverflows == 0 &&
		res.OnDieWeakLines == 0 && res.OnDieCheckBitsSaved == 0 &&
		res.ProfileRounds == 0 && res.ProfileReads == 0 &&
		res.AtRiskLines == 0 && res.AtRiskVisits == 0 {
		return nil
	}
	return &OnDieMetrics{
		CorrectedBits:       res.OnDieCorrectedBits,
		Overflows:           res.OnDieOverflows,
		WeakLines:           res.OnDieWeakLines,
		CheckBitsSaved:      res.OnDieCheckBitsSaved,
		ProfileRounds:       res.ProfileRounds,
		ProfileReads:        res.ProfileReads,
		ProfileDirectBits:   res.ProfileDirectBits,
		ProfileIndirectBits: res.ProfileIndirectBits,
		AtRiskLines:         res.AtRiskLines,
		AtRiskVisits:        res.AtRiskVisits,
	}
}

// RunMetrics is the JSON encoding of one simulation run's headline
// metrics and counters — the result vocabulary shared by the scrubd API
// and `scrubsim -json`.
type RunMetrics struct {
	// ReplicaIndex is the run's position in a replicated job (0 for a
	// single run).
	ReplicaIndex int    `json:"replica_index"`
	Scheme       string `json:"scheme"`
	Policy       string `json:"policy"`
	Workload     string `json:"workload"`

	Lines      int     `json:"lines"`
	SimSeconds float64 `json:"sim_seconds"`
	Sweeps     int     `json:"sweeps"`

	UEs            int64   `json:"ues"`
	UERatePerGBDay float64 `json:"ue_rate_per_gb_day"`
	CorrectedBits  int64   `json:"corrected_bits"`
	MaxErrBits     int     `json:"max_err_bits"`

	ScrubVisits     int64 `json:"scrub_visits"`
	ScrubProbes     int64 `json:"scrub_probes"`
	ScrubDecodes    int64 `json:"scrub_decodes"`
	ScrubWriteBacks int64 `json:"scrub_write_backs"`
	RepairWrites    int64 `json:"repair_writes"`
	ScrubWrites     int64 `json:"scrub_writes"`

	DemandWrites     int64   `json:"demand_writes"`
	FinalIntervalSec float64 `json:"final_interval_sec"`

	// Wear at end of run.
	TotalLineWrites int64  `json:"total_line_writes"`
	MaxLineWrites   uint32 `json:"max_line_writes"`
	LinesWithDead   int    `json:"lines_with_dead"`
	DeadCells       int64  `json:"dead_cells"`
	LevelerMoves    int64  `json:"leveler_moves,omitempty"`

	// UE detection attribution: how many UEs software reads would have
	// surfaced first, and the latency spread between a line becoming
	// uncorrectable and the detecting sweep.
	UEsReadFirst  int64         `json:"ues_read_first"`
	UEDetectDelay stats.Summary `json:"ue_detect_delay"`

	ScrubEnergy EnergyMetrics `json:"scrub_energy"`

	Faults *FaultMetrics `json:"faults,omitempty"`
	OnDie  *OnDieMetrics `json:"ondie,omitempty"`
}

// NewRunMetrics encodes one simulation result.
func NewRunMetrics(res *engine.Result) RunMetrics {
	return RunMetrics{
		Scheme:           res.SchemeName,
		Policy:           res.PolicyName,
		Workload:         res.WorkloadName,
		Lines:            res.Lines,
		SimSeconds:       res.SimSeconds,
		Sweeps:           res.Sweeps,
		UEs:              res.UEs,
		UERatePerGBDay:   res.UERatePerGBDay(64),
		CorrectedBits:    res.CorrectedBits,
		MaxErrBits:       res.MaxErrBits,
		ScrubVisits:      res.ScrubVisits,
		ScrubProbes:      res.ScrubProbes,
		ScrubDecodes:     res.ScrubDecodes,
		ScrubWriteBacks:  res.ScrubWriteBacks,
		RepairWrites:     res.RepairWrites,
		ScrubWrites:      res.ScrubWrites(),
		DemandWrites:     res.DemandWrites,
		FinalIntervalSec: res.FinalInterval,
		TotalLineWrites:  res.TotalLineWrites,
		MaxLineWrites:    res.MaxLineWrites,
		LinesWithDead:    res.LinesWithDead,
		DeadCells:        res.DeadCells,
		LevelerMoves:     res.LevelerMoves,
		UEsReadFirst:     res.UEsReadFirst,
		UEDetectDelay:    res.UEDetectDelay,
		ScrubEnergy: EnergyMetrics{
			ReadPJ:   res.ScrubEnergy.ReadPJ,
			DecodePJ: res.ScrubEnergy.DecodePJ,
			DetectPJ: res.ScrubEnergy.DetectPJ,
			WritePJ:  res.ScrubEnergy.WritePJ,
			TotalPJ:  res.ScrubEnergy.Total(),
		},
		Faults: newFaultMetrics(&res.Faults),
		OnDie:  newOnDieMetrics(res),
	}
}

// ToSimResult reconstructs the simulation result a RunMetrics was
// encoded from, as far as the wire form carries it (everything the CLI
// report renders). It lets a client print the same report for a remote
// result that a local run would produce.
func (m RunMetrics) ToSimResult() *engine.Result {
	res := &engine.Result{
		SchemeName:      m.Scheme,
		PolicyName:      m.Policy,
		WorkloadName:    m.Workload,
		Lines:           m.Lines,
		SimSeconds:      m.SimSeconds,
		Sweeps:          m.Sweeps,
		UEs:             m.UEs,
		CorrectedBits:   m.CorrectedBits,
		MaxErrBits:      m.MaxErrBits,
		ScrubVisits:     m.ScrubVisits,
		ScrubProbes:     m.ScrubProbes,
		ScrubDecodes:    m.ScrubDecodes,
		ScrubWriteBacks: m.ScrubWriteBacks,
		RepairWrites:    m.RepairWrites,
		DemandWrites:    m.DemandWrites,
		FinalInterval:   m.FinalIntervalSec,
		TotalLineWrites: m.TotalLineWrites,
		MaxLineWrites:   m.MaxLineWrites,
		LinesWithDead:   m.LinesWithDead,
		DeadCells:       m.DeadCells,
		LevelerMoves:    m.LevelerMoves,
		UEsReadFirst:    m.UEsReadFirst,
		UEDetectDelay:   m.UEDetectDelay,
	}
	res.ScrubEnergy.ReadPJ = m.ScrubEnergy.ReadPJ
	res.ScrubEnergy.DecodePJ = m.ScrubEnergy.DecodePJ
	res.ScrubEnergy.DetectPJ = m.ScrubEnergy.DetectPJ
	res.ScrubEnergy.WritePJ = m.ScrubEnergy.WritePJ
	if f := m.Faults; f != nil {
		res.Faults = fault.Counts{
			ReadFaultVisits:   f.ReadFaultVisits,
			PhantomBits:       f.PhantomBits,
			SweepsInterrupted: f.SweepsInterrupted,
			LinesSkipped:      f.LinesSkipped,
			ProbeFalseCleans:  f.ProbeFalseCleans,
			StuckCheckLines:   f.StuckCheckLines,
			StuckDecodes:      f.StuckDecodes,
			Stalls:            f.Stalls,
			StallSeconds:      f.StallSeconds,
			InducedUEs:        f.InducedUEs,
		}
	}
	if o := m.OnDie; o != nil {
		res.OnDieCorrectedBits = o.CorrectedBits
		res.OnDieOverflows = o.Overflows
		res.OnDieWeakLines = o.WeakLines
		res.OnDieCheckBitsSaved = o.CheckBitsSaved
		res.ProfileRounds = o.ProfileRounds
		res.ProfileReads = o.ProfileReads
		res.ProfileDirectBits = o.ProfileDirectBits
		res.ProfileIndirectBits = o.ProfileIndirectBits
		res.AtRiskLines = o.AtRiskLines
		res.AtRiskVisits = o.AtRiskVisits
	}
	return res
}

// MetricSummary is the wire form of a replicated metric's spread.
type MetricSummary struct {
	Mean   float64 `json:"mean"`
	StdErr float64 `json:"std_err"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int64   `json:"n"`
}

func newMetricSummary(rep *core.Replicated, s *stats.Summary) MetricSummary {
	return MetricSummary{
		Mean:   s.Mean(),
		StdErr: rep.AdjustedStdErr(s),
		Min:    s.Min(),
		Max:    s.Max(),
		N:      s.N(),
	}
}

// ReplicaSummary audits a job's Monte Carlo campaign.
type ReplicaSummary struct {
	Requested int `json:"requested"`
	Completed int `json:"completed"`
	Retried   int `json:"retried"`
	Failed    int `json:"failed"`
	// StdErrInflation is the widening factor partial campaigns apply to
	// standard errors (1 when nothing failed).
	StdErrInflation float64 `json:"std_err_inflation"`
}

// Result is a job's deterministic outcome: the normalised spec it was
// computed from, the campaign audit, the headline-metric spreads, and the
// surviving per-replica runs. Its canonical JSON encoding is what the
// result cache stores, so identical specs return identical bytes.
type Result struct {
	Fingerprint string         `json:"fingerprint"`
	Spec        Spec           `json:"spec"`
	Replicas    ReplicaSummary `json:"replicas"`

	UEs           MetricSummary `json:"ues"`
	ScrubWrites   MetricSummary `json:"scrub_writes"`
	ScrubEnergyPJ MetricSummary `json:"scrub_energy_pj"`

	// Runs holds the surviving replicas in replica order (failed replicas
	// are absent; ReplicaIndex preserves alignment).
	Runs []RunMetrics `json:"runs"`
}

// NewResult encodes a replicated campaign for a normalised spec.
func NewResult(spec Spec, rep *core.Replicated) *Result {
	out := &Result{
		Fingerprint: spec.Fingerprint(),
		// The embedded spec is the scheduling-free form: result bytes are
		// a pure function of the fingerprint, whatever class or deadline
		// the first submitter happened to use.
		Spec: spec.withoutScheduling(),
		Replicas: ReplicaSummary{
			Requested:       rep.Requested,
			Completed:       rep.Completed,
			Retried:         rep.Retried,
			Failed:          rep.Failed(),
			StdErrInflation: rep.StdErrInflation,
		},
		UEs:           newMetricSummary(rep, &rep.UEs),
		ScrubWrites:   newMetricSummary(rep, &rep.ScrubWrites),
		ScrubEnergyPJ: newMetricSummary(rep, &rep.ScrubEnergy),
	}
	for i, res := range rep.Results {
		if res == nil {
			continue
		}
		rm := NewRunMetrics(res)
		rm.ReplicaIndex = i
		out.Runs = append(out.Runs, rm)
	}
	return out
}
