package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/engine"
	"repro/internal/scrub"
	"repro/internal/trace"
)

func init() {
	register(experiment{ID: "F6", Title: "Lightweight detection ablation", Run: runF6})
	register(experiment{ID: "F7", Title: "Write-back threshold sweep (soft vs hard errors)", Run: runF7})
	register(experiment{ID: "F12", Title: "Adaptive vs fixed interval under phased workload", Run: runF12})
}

// runF6 isolates the value of the light probe: identical scheme, interval
// and write rule, with and without the CRC fast path.
func runF6(env *environment) ([]core.Table, error) {
	sys := env.sys
	w, err := trace.ByName("web-serve")
	if err != nil {
		return nil, err
	}
	full, err := core.SuiteMechanism(sys, "strong-ecc")
	if err != nil {
		return nil, err
	}
	light, err := core.SuiteMechanism(sys, "light-detect")
	if err != nil {
		return nil, err
	}
	rFull, err := env.runOne(sys, full, w)
	if err != nil {
		return nil, err
	}
	rLight, err := env.runOne(sys, light, w)
	if err != nil {
		return nil, err
	}
	t := core.Table{Title: "Full decode vs light detect (BCH-8, on-error, same interval)",
		Header: []string{"metric", "full-decode", "light-detect"}}
	t.AddRow("visits", core.FmtCount(rFull.ScrubVisits), core.FmtCount(rLight.ScrubVisits))
	t.AddRow("full decodes", core.FmtCount(rFull.ScrubDecodes), core.FmtCount(rLight.ScrubDecodes))
	t.AddRow("decodes avoided", "0",
		fmt.Sprintf("%.1f%%", 100*(1-float64(rLight.ScrubDecodes)/float64(rLight.ScrubVisits))))
	fullCheck := rFull.ScrubEnergy.ReadPJ + rFull.ScrubEnergy.DecodePJ + rFull.ScrubEnergy.DetectPJ
	lightCheck := rLight.ScrubEnergy.ReadPJ + rLight.ScrubEnergy.DecodePJ + rLight.ScrubEnergy.DetectPJ
	t.AddRow("check-path energy", core.FmtEnergy(fullCheck), core.FmtEnergy(lightCheck))
	t.AddRow("check-path saving", "-",
		fmt.Sprintf("%.1f%%", 100*(1-lightCheck/fullCheck)))
	t.AddRow("total scrub energy", core.FmtEnergy(rFull.ScrubEnergy.Total()), core.FmtEnergy(rLight.ScrubEnergy.Total()))
	t.AddRow("UEs", core.FmtCount(rFull.UEs), core.FmtCount(rLight.UEs))
	return []core.Table{t}, nil
}

// runF7 sweeps the write-back threshold: the dial between soft errors
// (higher threshold → lines run closer to the ECC margin) and hard errors
// (lower threshold → more scrub writes → endurance burned faster).
func runF7(env *environment) ([]core.Table, error) {
	sys := env.sys
	// Pre-age the device so endurance is a live concern: the weakest cell
	// of a 256-cell line dies around 2.2e7 writes with the default spread.
	sys.InitialLineWrites = 20_000_000
	w, err := trace.ByName("idle-archive")
	if err != nil {
		return nil, err
	}
	bch8 := ecc.MustBCHLine(8)
	interval, err := core.FixedIntervalFor(sys, bch8.T()-2)
	if err != nil {
		return nil, err
	}
	t := core.Table{Title: "Threshold sweep (BCH-8, pre-aged 2e7 writes, idle-archive)",
		Header: []string{"threshold", "UEs", "scrub writes", "total line writes", "dead cells", "energy"}}
	for _, thr := range []int{1, 2, 4, 6, 8} {
		mech := core.Mechanism{
			Name:   fmt.Sprintf("thr-%d", thr),
			Scheme: bch8,
			Policy: scrub.MustNew(scrub.Config{
				Label: fmt.Sprintf("thr-%d", thr), Detect: scrub.LightDetect, WriteThreshold: thr,
			}),
			Interval: interval,
		}
		r, err := env.runOne(sys, mech, w)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", thr), core.FmtCount(r.UEs), core.FmtCount(r.ScrubWrites()),
			core.FmtCount(r.TotalLineWrites), core.FmtCount(r.DeadCells),
			core.FmtEnergy(r.ScrubEnergy.Total()))
	}
	// Wear-aware variant at the suite threshold for comparison.
	wa := core.Mechanism{
		Name:   "thr-6+wear",
		Scheme: bch8,
		Policy: scrub.MustNew(scrub.Config{
			Label: "thr-6+wear", Detect: scrub.LightDetect, WriteThreshold: 6, WearAware: true,
		}),
		Interval: interval,
	}
	r, err := env.runOne(sys, wa, w)
	if err != nil {
		return nil, err
	}
	t.AddRow("6 (wear-aware)", core.FmtCount(r.UEs), core.FmtCount(r.ScrubWrites()),
		core.FmtCount(r.TotalLineWrites), core.FmtCount(r.DeadCells),
		core.FmtEnergy(r.ScrubEnergy.Total()))
	return []core.Table{t}, nil
}

// runF12 compares a fixed-interval threshold policy with the adaptive
// controller under a workload whose write intensity swings between
// phases, so the "right" interval changes over time.
func runF12(env *environment) ([]core.Table, error) {
	sys := env.sys
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
	fixed, err := core.SuiteMechanism(sys, "threshold")
	if err != nil {
		return nil, err
	}
	adaptive, err := core.SuiteMechanism(sys, "combined")
	if err != nil {
		return nil, err
	}
	rF, err := env.runOne(sys, fixed, phased)
	if err != nil {
		return nil, err
	}
	rA, err := env.runOneWithOptions(sys, adaptive, phased, engine.Options{RecordRounds: true})
	if err != nil {
		return nil, err
	}
	t := core.Table{Title: "Fixed vs adaptive interval (phased workload)",
		Header: []string{"metric", "fixed threshold", "combined (adaptive)"}}
	t.AddRow("UEs", core.FmtCount(rF.UEs), core.FmtCount(rA.UEs))
	t.AddRow("scrub writes", core.FmtCount(rF.ScrubWrites()), core.FmtCount(rA.ScrubWrites()))
	t.AddRow("scrub energy", core.FmtEnergy(rF.ScrubEnergy.Total()), core.FmtEnergy(rA.ScrubEnergy.Total()))
	t.AddRow("sweeps", core.FmtCount(int64(rF.Sweeps)), core.FmtCount(int64(rA.Sweeps)))
	t.AddRow("final interval", core.FmtSeconds(rF.FinalInterval), core.FmtSeconds(rA.FinalInterval))

	// The figure itself: the controller's interval trajectory over the
	// run, one character per sweep, log-scaled between its bounds.
	traj := core.Table{Title: "Adaptive interval trajectory (one mark per sweep)",
		Header: []string{"series", "value"}}
	intervals := make([]float64, len(rA.Rounds))
	for i, rr := range rA.Rounds {
		intervals[i] = rr.Interval
	}
	traj.AddRow("interval", sparkline(intervals))
	traj.AddRow("range", fmt.Sprintf("%s .. %s", core.FmtSeconds(minOf(intervals)), core.FmtSeconds(maxOf(intervals))))
	writeBacks := make([]float64, len(rA.Rounds))
	for i, rr := range rA.Rounds {
		writeBacks[i] = float64(rr.Stats.WriteBacks)
	}
	traj.AddRow("write-backs", sparkline(writeBacks))
	return []core.Table{t, traj}, nil
}

// sparkline renders values as a block-character strip (log-ish scaling is
// left to the data; this maps linearly between min and max).
func sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := minOf(values), maxOf(values)
	out := make([]rune, len(values))
	for i, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(blocks)-1))
		}
		out[i] = blocks[idx]
	}
	return string(out)
}

func minOf(values []float64) float64 {
	m := values[0]
	for _, v := range values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func maxOf(values []float64) float64 {
	m := values[0]
	for _, v := range values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
