// Package repro's root benchmark suite regenerates every experiment in
// DESIGN.md's index (T1/F1–F12) at benchmark scale: each benchmark runs
// the same code path as cmd/experiments, scaled down so a -bench sweep
// finishes in minutes, and reports the experiment's key figures through
// b.ReportMetric so the shape of the paper's results is visible straight
// from `go test -bench`.
//
// Scale note: benchmarks use a 2048-line region and sub-day horizons;
// cmd/experiments runs the full-scale versions.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/pcm"
	"repro/internal/scrub"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wear"
)

// benchSystem returns the benchmark-scale system.
func benchSystem() core.System {
	sys := core.DefaultSystem()
	sys.Geometry = mem.Geometry{
		Channels: 1, RanksPerChan: 1, BanksPerRank: 4,
		RowsPerBank: 32, LinesPerRow: 16, LineBytes: 64,
	} // 2048 lines
	sys.Horizon = 43200
	sys.Substeps = 8
	return sys
}

func benchWorkload(name string, b *testing.B) trace.Workload {
	w, err := trace.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// ladder resolves the mechanism suite by name. A benchmark resolves it
// once, before its loop: the ladder depends on the system's physics, mix,
// risk target and horizon, not on the seed each iteration varies.
func ladder(b *testing.B, sys core.System) map[string]core.Mechanism {
	ms, err := core.Suite(sys)
	if err != nil {
		b.Fatal(err)
	}
	byName := make(map[string]core.Mechanism, len(ms))
	for _, m := range ms {
		byName[m.Name] = m
	}
	return byName
}

func runMech(b *testing.B, sys core.System, m core.Mechanism, workload string) *simResult {
	r, err := engine.Run(engine.ResolveSpec(sys, m, benchWorkload(workload, b), engine.Options{}))
	if err != nil {
		b.Fatal(err)
	}
	return &simResult{r.UEs, r.ScrubWrites(), r.ScrubEnergy.Total(), r.FinalInterval}
}

type simResult struct {
	ues     int64
	writes  int64
	energy  float64
	finalIv float64
}

// BenchmarkF1Drift regenerates the drift error-probability curve: one
// iteration evaluates the analytic model across the full time × level
// grid and cross-checks one Monte Carlo point.
func BenchmarkF1Drift(b *testing.B) {
	model := pcm.MustModel(pcm.DefaultParams())
	r := stats.NewRNG(1)
	var last float64
	for i := 0; i < b.N; i++ {
		for _, secs := range []float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8} {
			for level := 0; level < pcm.Levels; level++ {
				last = model.ErrProb(level, secs)
			}
		}
		// One MC point to keep the cross-check exercised.
		c := model.WriteCell(r, 2)
		_ = model.CrossingTime(c)
	}
	b.ReportMetric(last, "P(err|level3,1e8s)")
	b.ReportMetric(model.ErrProb(2, 1e6), "P(err|level2,1e6s)")
}

// BenchmarkF2ECCInterval regenerates the UE-probability-vs-interval curve
// for the four ECC schemes.
func BenchmarkF2ECCInterval(b *testing.B) {
	model := pcm.MustModel(pcm.DefaultParams())
	schemes := []ecc.Scheme{
		ecc.NewSECDEDLine(), ecc.MustBCHLine(2), ecc.MustBCHLine(4), ecc.MustBCHLine(8),
	}
	r := stats.NewRNG(2)
	for i := 0; i < b.N; i++ {
		for _, secs := range []float64{1e3, 1e4, 1e5} {
			for _, s := range schemes {
				pUE := 0.0
				for k := 1; k <= 12; k++ {
					tail := model.LineErrorTailGE(pcm.UniformMix(), pcm.CellsPerLine, k, secs)
					pUE += tail * ecc.UncorrectableProb(s, r, k, 10)
				}
				_ = pUE
			}
		}
	}
	iv8 := model.ScrubIntervalFor(pcm.UniformMix(), pcm.CellsPerLine, 6, 1e-4)
	iv1 := model.ScrubIntervalFor(pcm.UniformMix(), pcm.CellsPerLine, 1, 1e-4)
	b.ReportMetric(iv8/iv1, "interval-gain-BCH8-vs-SECDED")
}

// BenchmarkF3ScrubWrites regenerates the scrub-write comparison: basic vs
// combined on a cold workload, reporting the reduction factor.
func BenchmarkF3ScrubWrites(b *testing.B) {
	sys := benchSystem()
	mech := ladder(b, sys)
	var factor float64
	for i := 0; i < b.N; i++ {
		sys.Seed = uint64(i + 1)
		basic := runMech(b, sys, mech["basic"], "idle-archive")
		comb := runMech(b, sys, mech["combined"], "idle-archive")
		if comb.writes > 0 {
			factor = float64(basic.writes) / float64(comb.writes)
		}
	}
	b.ReportMetric(factor, "write-reduction-x")
}

// BenchmarkF4UncorrectableErrors regenerates the UE comparison.
func BenchmarkF4UncorrectableErrors(b *testing.B) {
	sys := benchSystem()
	mech := ladder(b, sys)
	var basicUEs, combUEs float64
	for i := 0; i < b.N; i++ {
		sys.Seed = uint64(i + 1)
		basic := runMech(b, sys, mech["basic"], "idle-archive")
		comb := runMech(b, sys, mech["combined"], "idle-archive")
		basicUEs = float64(basic.ues)
		combUEs = float64(comb.ues)
	}
	b.ReportMetric(basicUEs, "basic-UEs")
	b.ReportMetric(combUEs, "combined-UEs")
	if basicUEs > 0 {
		b.ReportMetric(100*(1-combUEs/basicUEs), "UE-reduction-%")
	}
}

// BenchmarkF5ScrubEnergy regenerates the scrub-energy comparison.
func BenchmarkF5ScrubEnergy(b *testing.B) {
	sys := benchSystem()
	mech := ladder(b, sys)
	var reduction float64
	for i := 0; i < b.N; i++ {
		sys.Seed = uint64(i + 1)
		basic := runMech(b, sys, mech["basic"], "idle-archive")
		comb := runMech(b, sys, mech["combined"], "idle-archive")
		if basic.energy > 0 {
			reduction = 100 * (1 - comb.energy/basic.energy)
		}
	}
	b.ReportMetric(reduction, "energy-reduction-%")
}

// BenchmarkF6LightDetect regenerates the detection ablation: check-path
// energy with and without the light probe at identical interval/scheme.
func BenchmarkF6LightDetect(b *testing.B) {
	sys := benchSystem()
	mech := ladder(b, sys)
	var saving float64
	for i := 0; i < b.N; i++ {
		sys.Seed = uint64(i + 1)
		w := benchWorkload("web-serve", b)
		rFull, err := engine.Run(engine.ResolveSpec(sys, mech["strong-ecc"], w, engine.Options{}))
		if err != nil {
			b.Fatal(err)
		}
		rLight, err := engine.Run(engine.ResolveSpec(sys, mech["light-detect"], w, engine.Options{}))
		if err != nil {
			b.Fatal(err)
		}
		fc := rFull.ScrubEnergy.ReadPJ + rFull.ScrubEnergy.DecodePJ + rFull.ScrubEnergy.DetectPJ
		lc := rLight.ScrubEnergy.ReadPJ + rLight.ScrubEnergy.DecodePJ + rLight.ScrubEnergy.DetectPJ
		if fc > 0 {
			saving = 100 * (1 - lc/fc)
		}
	}
	b.ReportMetric(saving, "check-energy-saving-%")
}

// BenchmarkF7ThresholdSweep regenerates the soft-vs-hard trade-off sweep.
func BenchmarkF7ThresholdSweep(b *testing.B) {
	sys := benchSystem()
	sys.InitialLineWrites = 20_000_000
	bch8 := ecc.MustBCHLine(8)
	interval, err := core.FixedIntervalFor(sys, bch8.T()-2)
	if err != nil {
		b.Fatal(err)
	}
	var writesAt1, writesAt6 float64
	for i := 0; i < b.N; i++ {
		sys.Seed = uint64(i + 1)
		for _, thr := range []int{1, 6} {
			mech := core.Mechanism{
				Name:   "thr",
				Scheme: bch8,
				Policy: scrub.MustNew(scrub.Config{
					Label: "thr", Detect: scrub.LightDetect, WriteThreshold: thr,
				}),
				Interval: interval,
			}
			r, err := engine.Run(engine.ResolveSpec(sys, mech, benchWorkload("idle-archive", b), engine.Options{}))
			if err != nil {
				b.Fatal(err)
			}
			if thr == 1 {
				writesAt1 = float64(r.ScrubWrites())
			} else {
				writesAt6 = float64(r.ScrubWrites())
			}
		}
	}
	b.ReportMetric(writesAt1, "scrub-writes-thr1")
	b.ReportMetric(writesAt6, "scrub-writes-thr6")
}

// BenchmarkF8Workloads regenerates the per-workload detail for the
// combined mechanism across the whole suite.
func BenchmarkF8Workloads(b *testing.B) {
	sys := benchSystem()
	mech := ladder(b, sys)
	var totalUEs int64
	for i := 0; i < b.N; i++ {
		sys.Seed = uint64(i + 1)
		totalUEs = 0
		for _, name := range trace.Names() {
			r := runMech(b, sys, mech["combined"], name)
			totalUEs += r.ues
		}
	}
	b.ReportMetric(float64(totalUEs), "combined-total-UEs")
}

// BenchmarkF9Bandwidth regenerates the scrub bandwidth/slowdown table
// (pure analytic model).
func BenchmarkF9Bandwidth(b *testing.B) {
	timing := memctrl.DefaultParams()
	timing.Banks = 256
	m := memctrl.MustModel(timing)
	const fleetLines = 32 << 30 / 64
	var worst float64
	for i := 0; i < b.N; i++ {
		for _, interval := range []float64{60, 300, 900, 3600, 14400, 86400} {
			sr := memctrl.ScrubReadRate(fleetLines, interval)
			rates := memctrl.Rates{
				DemandReads: 2e6, DemandWrites: 2e5,
				ScrubReads: sr, ScrubWrites: sr * 0.03,
			}
			s := m.Slowdown(rates)
			if s > worst {
				worst = s
			}
		}
	}
	b.ReportMetric(worst, "worst-slowdown-x")
}

// BenchmarkF10Sensitivity regenerates the drift-spread sensitivity at the
// 2x pessimistic point.
func BenchmarkF10Sensitivity(b *testing.B) {
	sys := benchSystem()
	for j := range sys.PCM.NuSigma {
		sys.PCM.NuSigma[j] *= 2
	}
	mech := ladder(b, sys)
	var factor float64
	for i := 0; i < b.N; i++ {
		sys.Seed = uint64(i + 1)
		basic := runMech(b, sys, mech["basic"], "idle-archive")
		comb := runMech(b, sys, mech["combined"], "idle-archive")
		if comb.writes > 0 {
			factor = float64(basic.writes) / float64(comb.writes)
		}
	}
	b.ReportMetric(factor, "write-reduction-x-at-2x-sigma")
}

// BenchmarkF11Lifetime regenerates the endurance lifetime analytics.
func BenchmarkF11Lifetime(b *testing.B) {
	wm := wear.MustModel(wear.DefaultParams())
	var years float64
	for i := 0; i < b.N; i++ {
		// 2000 writes/line/day is the stream-write regime.
		years = wm.LifetimeWrites(4) / 2000 / 365
	}
	b.ReportMetric(years, "lifetime-years-at-2000-writes-day")
}

// BenchmarkF12Adaptive regenerates the fixed-vs-adaptive comparison under
// a phased workload.
func BenchmarkF12Adaptive(b *testing.B) {
	sys := benchSystem()
	mech := ladder(b, sys)
	phased := trace.Workload{
		Name:                "phased-burst",
		WritesPerLinePerSec: 0.002,
		ReadsPerLinePerSec:  0.02,
		FootprintFrac:       1.0,
		ZipfSkew:            0.3,
		Phases: []trace.Phase{
			{DurationSec: sys.Horizon / 4, WriteMult: 4, ReadMult: 1},
			{DurationSec: sys.Horizon / 4, WriteMult: 0.01, ReadMult: 1},
		},
	}
	var fixedE, adaptE float64
	for i := 0; i < b.N; i++ {
		sys.Seed = uint64(i + 1)
		rF, err := engine.Run(engine.ResolveSpec(sys, mech["threshold"], phased, engine.Options{}))
		if err != nil {
			b.Fatal(err)
		}
		rA, err := engine.Run(engine.ResolveSpec(sys, mech["combined"], phased, engine.Options{}))
		if err != nil {
			b.Fatal(err)
		}
		fixedE = rF.ScrubEnergy.Total()
		adaptE = rA.ScrubEnergy.Total()
	}
	b.ReportMetric(fixedE/1e6, "fixed-scrub-uJ")
	b.ReportMetric(adaptE/1e6, "adaptive-scrub-uJ")
}
