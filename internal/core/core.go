// Package core is the public façade of the scrub study: it assembles the
// substrates (PCM drift physics, ECC schemes, wear, energy, workloads)
// into ready-to-run *mechanisms* — the paper's ladder from the DRAM-style
// baseline scrub to the combined proposal — and provides the comparison
// and replication runners and headline-metric computation that every
// experiment, example and benchmark in this repository builds on.
//
// A single run goes straight to the engine:
// engine.RunContext(ctx, engine.ResolveSpec(sys, mech, workload, opts)).
// core adds the study's defaults (DefaultSystem, Suite) and the
// comparison machinery (RunMatrixContext, RunReplicatedContext, shards,
// Headline) on top. System and Mechanism remain aliases of their engine
// definitions because the benchmark module still names them here.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/ecc"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/pcm"
	"repro/internal/scrub"
	"repro/internal/trace"
	"repro/internal/wear"
)

// System bundles everything about the simulated machine that is *not* a
// scrub-mechanism choice: device physics, geometry, energy costs, horizon.
type System = engine.System

// DefaultSystem returns the study's baseline machine: a 16 Ki-line
// (1 MiB-data) sampled region of a 2-bit MLC PCM main memory, simulated
// for three days. Reliability metrics scale linearly with capacity, so
// fleet-level numbers are extrapolations of this region.
func DefaultSystem() System {
	return System{
		Geometry: mem.Geometry{
			Channels: 1, RanksPerChan: 1, BanksPerRank: 8,
			RowsPerBank: 64, LinesPerRow: 32, LineBytes: 64,
		},
		PCM:        pcm.DefaultParams(),
		Mix:        pcm.UniformMix(),
		Wear:       wear.DefaultParams(),
		Energy:     energy.DefaultParams(),
		Horizon:    259200, // 3 days
		RiskTarget: 1e-4,
		Seed:       1,
	}
}

// Mechanism is one point in the scrub design space: an ECC scheme, a
// policy, and an initial sweep interval.
type Mechanism = engine.Mechanism

// FixedIntervalFor derives the sweep interval that keeps the probability
// of a line exceeding `tolerable` errors per sweep at or below the
// system's risk target, clamped to [60 s, Horizon/4] so every run sees at
// least a few sweeps.
func FixedIntervalFor(sys System, tolerable int) (float64, error) {
	model, err := pcm.NewModel(sys.PCM)
	if err != nil {
		return 0, err
	}
	interval := model.ScrubIntervalFor(sys.Mix, pcm.CellsPerLine, tolerable, sys.RiskTarget)
	if interval <= 0 {
		return 0, fmt.Errorf("core: risk target %g unreachable for tolerance %d", sys.RiskTarget, tolerable)
	}
	if interval < 60 {
		interval = 60
	}
	if maxI := sys.Horizon / 4; interval > maxI {
		interval = maxI
	}
	return interval, nil
}

// Suite returns the paper's mechanism ladder:
//
//	basic            SECDED, full decode, write on error, fixed interval
//	strong-ecc       BCH-8, otherwise like basic (longer safe interval)
//	light-detect     strong-ecc plus the cheap probe on clean lines
//	threshold        light-detect plus write-back only at ≥ thr errors
//	combined         threshold plus wear-awareness plus adaptive interval
//
// Intervals are derived from the drift model against sys.RiskTarget.
func Suite(sys System) ([]Mechanism, error) {
	// The combined rung validates sys and derives the BCH-8 scheme and
	// its safe interval, which the middle rungs share.
	combined, err := CombinedMechanism(sys)
	if err != nil {
		return nil, err
	}
	bch8, strongInterval := combined.Scheme, combined.Interval
	// SECDED tolerates one error per line safely (two may share a word).
	basicInterval, err := FixedIntervalFor(sys, 1)
	if err != nil {
		return nil, err
	}
	return []Mechanism{
		{Name: "basic", Scheme: ecc.NewSECDEDLine(), Policy: scrub.Basic(), Interval: basicInterval},
		{Name: "strong-ecc", Scheme: bch8, Policy: scrub.Basic(), Interval: strongInterval},
		{Name: "light-detect", Scheme: bch8, Policy: scrub.LightBasic(), Interval: strongInterval},
		{Name: "threshold", Scheme: bch8, Policy: scrub.MustNew(scrub.Config{
			Label: "threshold", Detect: scrub.LightDetect, WriteThreshold: combinedThreshold,
		}), Interval: strongInterval},
		combined,
	}, nil
}

// combinedThreshold is the write-back threshold of the threshold and
// combined rungs: BCH-8 lines are rewritten only at six or more errors.
const combinedThreshold = 6

// CombinedMechanism builds the paper's combined mechanism directly,
// without deriving the rest of the ladder — usable even for device
// parameters under which the SECDED baseline's risk target is unreachable
// (e.g. very coarse programming in the F16 precision sweep). Suite builds
// its top rung here.
func CombinedMechanism(sys System) (Mechanism, error) {
	if err := sys.Validate(); err != nil {
		return Mechanism{}, err
	}
	// The engine reads only a scheme's geometry and correction bound, so
	// the ladder describes BCH-8 without building its codec: 80 check
	// bits over the line, as ecc.BCHLine(8) lays it out.
	bch8 := ecc.NewBCHScheme("BCH-8", ecc.LineBits, 80, 8)
	// BCH-8 runs two errors of margin below its capability.
	strongInterval, err := FixedIntervalFor(sys, bch8.T()-2)
	if err != nil {
		return Mechanism{}, err
	}
	adaptive := scrub.DefaultAdaptive()
	// Never grow past the drift-derived safe interval: beyond it, a single
	// sweep over lines that stopped being rewritten (a workload phase
	// change) can overshoot the ECC margin before the controller reacts.
	// Adaptivity earns its keep *below* the safe bound, shrinking when
	// threshold write-backs let errors ride across sweeps. Short horizons
	// can push that bound under the default floor, which then drops too.
	adaptive.MaxInterval = math.Min(sys.Horizon/4, strongInterval)
	if adaptive.MinInterval > adaptive.MaxInterval {
		adaptive.MinInterval = adaptive.MaxInterval / 4
	}
	policy := scrub.MustNew(scrub.Config{
		Label:          "combined",
		Detect:         scrub.LightDetect,
		WriteThreshold: combinedThreshold,
		WearAware:      true,
		Adaptive:       &adaptive,
	})
	return Mechanism{Name: "combined", Scheme: bch8, Policy: policy, Interval: strongInterval}, nil
}

// SuiteMechanism returns the named mechanism from Suite.
func SuiteMechanism(sys System, name string) (Mechanism, error) {
	ms, err := Suite(sys)
	if err != nil {
		return Mechanism{}, err
	}
	for _, m := range ms {
		if m.Name == name {
			return m, nil
		}
	}
	return Mechanism{}, fmt.Errorf("core: unknown mechanism %q", name)
}

// Matrix is a full mechanisms × workloads comparison.
type Matrix struct {
	Mechanisms []string
	Workloads  []string
	cells      map[string]*engine.Result // key mech + "\x00" + workload
}

func cellKey(mech, workload string) string { return mech + "\x00" + workload }

// Get returns the result for a cell, or nil if absent.
func (mx *Matrix) Get(mech, workload string) *engine.Result {
	return mx.cells[cellKey(mech, workload)]
}

// Totals aggregates a mechanism's results across all workloads.
type Totals struct {
	UEs         int64
	ScrubWrites int64
	ScrubEnergy float64 // pJ
	DemandWrite int64
	Visits      int64
}

// TotalsFor sums a mechanism's row.
func (mx *Matrix) TotalsFor(mech string) Totals {
	var t Totals
	for _, w := range mx.Workloads {
		r := mx.Get(mech, w)
		if r == nil {
			continue
		}
		t.UEs += r.UEs
		t.ScrubWrites += r.ScrubWrites()
		t.ScrubEnergy += r.ScrubEnergy.Total()
		t.DemandWrite += r.DemandWrites
		t.Visits += r.ScrubVisits
	}
	return t
}

// RunMatrixContext simulates every mechanism under every workload,
// fanning cells out over the available CPUs. Each cell gets a distinct
// deterministic seed derived from the system seed and its coordinates, so
// the matrix is reproducible regardless of scheduling. Cancellation stops
// in-flight cells within a substep and skips unstarted ones.
func RunMatrixContext(ctx context.Context, sys System, mechanisms []Mechanism, workloads []trace.Workload) (*Matrix, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if len(mechanisms) == 0 || len(workloads) == 0 {
		return nil, fmt.Errorf("core: need at least one mechanism and one workload")
	}
	mx := &Matrix{cells: make(map[string]*engine.Result)}
	for _, m := range mechanisms {
		mx.Mechanisms = append(mx.Mechanisms, m.Name)
	}
	for _, w := range workloads {
		mx.Workloads = append(mx.Workloads, w.Name)
	}
	type job struct {
		mi, wi int
	}
	jobs := make(chan job)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), len(mechanisms)*len(workloads))
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() != nil {
					continue // drain remaining jobs without running them
				}
				m, w := mechanisms[j.mi], workloads[j.wi]
				cellSys := sys
				cellSys.Seed = sys.Seed*1000003 + uint64(j.mi)*8191 + uint64(j.wi)
				res, err := engine.RunContext(ctx, engine.ResolveSpec(cellSys, m, w, engine.Options{}))
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("core: %s/%s: %w", m.Name, w.Name, err)
					}
				} else {
					mx.cells[cellKey(m.Name, w.Name)] = res
				}
				mu.Unlock()
			}
		}()
	}
	for mi := range mechanisms {
		for wi := range workloads {
			jobs <- job{mi, wi}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	// A cancellation that lands after the in-flight cells finish but
	// before the drain would otherwise return a silently partial matrix.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: matrix canceled: %w", err)
	}
	return mx, nil
}

// Headline is the paper-abstract comparison of a proposed mechanism
// against a baseline, aggregated across workloads.
type Headline struct {
	Baseline, Proposed string
	// UEReductionPct is the percentage reduction in uncorrectable errors.
	UEReductionPct float64
	// WriteReductionFactor is baseline scrub writes / proposed scrub writes.
	WriteReductionFactor float64
	// EnergyReductionPct is the percentage reduction in scrub energy.
	EnergyReductionPct float64
}

// ComputeHeadline derives the abstract's three numbers from a matrix.
func (mx *Matrix) ComputeHeadline(baseline, proposed string) (Headline, error) {
	b := mx.TotalsFor(baseline)
	p := mx.TotalsFor(proposed)
	if b.Visits == 0 || p.Visits == 0 {
		return Headline{}, fmt.Errorf("core: headline needs results for %q and %q", baseline, proposed)
	}
	h := Headline{Baseline: baseline, Proposed: proposed}
	if b.UEs > 0 {
		h.UEReductionPct = 100 * (1 - float64(p.UEs)/float64(b.UEs))
	}
	if p.ScrubWrites > 0 {
		h.WriteReductionFactor = float64(b.ScrubWrites) / float64(p.ScrubWrites)
	}
	if b.ScrubEnergy > 0 {
		h.EnergyReductionPct = 100 * (1 - p.ScrubEnergy/b.ScrubEnergy)
	}
	return h, nil
}

// PerfOverhead estimates, via the default controller's queueing model,
// the demand slowdown a result's scrub traffic causes under its
// workload's read/write rates.
func PerfOverhead(sys System, w trace.Workload, r *engine.Result) float64 {
	m := memctrl.MustModel(memctrl.DefaultParams())
	footprint := w.FootprintFrac * float64(sys.Geometry.TotalLines())
	rates := memctrl.Rates{
		DemandReads:  w.ReadsPerLinePerSec * footprint,
		DemandWrites: w.WritesPerLinePerSec * footprint,
		ScrubReads:   r.ScrubReadRate(),
		ScrubWrites:  r.ScrubWriteRate(),
	}
	return m.Slowdown(rates)
}
