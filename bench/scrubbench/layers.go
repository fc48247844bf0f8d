package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/pcm"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wear"
)

// substeps is the engine's default substep count per sweep: each substep
// draws one epoch of demand writes.
const substeps = 16

// workGroup accumulates engine work done under one (system, mechanism,
// workload) triple, so each layer's public call can be replayed at the
// parameters the work ran with.
type workGroup struct {
	sys  core.System
	mech core.Mechanism
	wl   trace.Workload

	runs, initLines, visits, demandWrites, writeBacks, repairs, sweeps, epochs int64
	simSeconds                                                                 float64
}

// work is the set of workGroups a run accumulated, keyed by triple.
type work map[string]*workGroup

func (w work) group(sys core.System, mech core.Mechanism, wl trace.Workload) *workGroup {
	key := fmt.Sprintf("%s/%s/%d", mech.Name, wl.Name, sys.Geometry.TotalLines())
	g := w[key]
	if g == nil {
		g = &workGroup{sys: sys, mech: mech, wl: wl}
		w[key] = g
	}
	return g
}

// addResult counts one completed run.
func (g *workGroup) addResult(r *engine.Result) {
	g.runs++
	g.initLines += int64(r.Lines)
	g.visits += r.ScrubVisits
	g.demandWrites += r.DemandWrites
	g.writeBacks += r.ScrubWriteBacks
	g.repairs += r.RepairWrites
	g.sweeps += int64(r.Sweeps)
	g.epochs += int64(r.Sweeps) * substeps
	g.simSeconds += r.SimSeconds
}

// addRunMetrics counts one completed run from its scrubd wire form.
func (g *workGroup) addRunMetrics(m service.RunMetrics) {
	g.runs++
	g.initLines += int64(m.Lines)
	g.visits += m.ScrubVisits
	g.demandWrites += m.DemandWrites
	g.writeBacks += m.ScrubWriteBacks
	g.repairs += m.RepairWrites
	g.sweeps += int64(m.Sweeps)
	g.epochs += int64(m.Sweeps) * substeps
	g.simSeconds += m.SimSeconds
}

// addTotals counts work from an engine.Stats() delta.
func (g *workGroup) addTotals(d engine.Totals) {
	g.runs += d.Runs
	g.initLines += d.Runs * int64(g.sys.Geometry.TotalLines())
	g.visits += d.Visits
	g.demandWrites += d.DemandWrites
	g.writeBacks += d.WriteBacks
	g.repairs += d.Repairs
	g.sweeps += d.Sweeps
	g.epochs += d.Sweeps * substeps
	g.simSeconds += d.SimSeconds
}

func totalsDelta(a, b engine.Totals) engine.Totals {
	return engine.Totals{
		Runs: b.Runs - a.Runs, Visits: b.Visits - a.Visits, Sweeps: b.Sweeps - a.Sweeps,
		WriteBacks: b.WriteBacks - a.WriteBacks, Repairs: b.Repairs - a.Repairs,
		DemandWrites: b.DemandWrites - a.DemandWrites, SimSeconds: b.SimSeconds - a.SimSeconds,
	}
}

// trackK mirrors the engine's choice of tracked drift crossings per line
// (scheme strength + 4, clamped to [8, 16]); the crossing sampler's cost
// depends on it.
func trackK(m core.Mechanism) int {
	return min(max(m.Scheme.T()+4, 8), 16)
}

// perCall times fn and returns its median cost in ns over five batches of
// n calls.
func perCall(n int, fn func()) float64 {
	var batches []float64
	for range 5 {
		start := time.Now()
		for range n {
			fn()
		}
		batches = append(batches, float64(time.Since(start))/float64(n))
	}
	return quantile(batches, 0.5)
}

// replayer times the engine's hot public calls. Every group of a run
// shares the study's device physics, so the crossing sampler's cost is
// cached by tracked-crossing count and the endurance draw's is measured
// once; the demand generator's depends on each group's workload.
type replayer struct {
	rng       *stats.RNG
	crossings map[int]float64 // tracked crossings -> ns per SampleCrossings
	weakest   float64         // ns per SampleWeakest (0 until measured)
}

func newReplayer() *replayer {
	return &replayer{rng: stats.NewRNG(1), crossings: map[int]float64{}}
}

func (r *replayer) crossingNS(g *workGroup) (float64, error) {
	k := trackK(g.mech)
	if ns, ok := r.crossings[k]; ok {
		return ns, nil
	}
	model, err := pcm.NewModel(g.sys.PCM)
	if err != nil {
		return 0, err
	}
	sampler, err := pcm.NewLineSampler(model, g.sys.Mix, pcm.CellsPerLine, k)
	if err != nil {
		return 0, err
	}
	var buf []float64
	r.crossings[k] = perCall(1000, func() { buf = sampler.SampleCrossings(r.rng, buf) })
	return r.crossings[k], nil
}

func (r *replayer) weakestNS(g *workGroup) (float64, error) {
	if r.weakest > 0 {
		return r.weakest, nil
	}
	wm, err := wear.NewModel(g.sys.Wear)
	if err != nil {
		return 0, err
	}
	var buf []float64
	r.weakest = perCall(1000, func() { buf = wm.SampleWeakest(r.rng, buf) })
	return r.weakest, nil
}

// epochNS times WritesInEpoch at the group's workload, size and mean
// epoch length.
func (r *replayer) epochNS(g *workGroup) (float64, error) {
	if g.epochs == 0 {
		return 0, nil
	}
	gen, err := trace.NewGenerator(g.wl, g.sys.Geometry.TotalLines(), stats.NewRNG(g.sys.Seed))
	if err != nil {
		return 0, err
	}
	dt := g.simSeconds / float64(g.epochs)
	var lines []int
	t := 0.0
	return perCall(int(min(g.epochs, 100)), func() {
		lines = gen.WritesInEpoch(r.rng, t, dt, lines)
		t += dt
	}), nil
}

// engineLayers attributes busy engine time to the crossing sampler, the
// endurance initialiser and the demand generator by replaying each public
// call at the groups' parameters and multiplying by the call counts. The
// patrol visit loop is the residual. reconcile_ratio is the replayed
// layers' sum over busy time: above 1 the replay overstates the layers.
func engineLayers(o *outcome, w work, busy time.Duration) error {
	var (
		xCalls, wCalls, eCalls             int64
		xTime, wTime, eTime                float64 // ns
		runs, visits, dw, wb, repairs, swp int64
	)
	r := newReplayer()
	for _, g := range w {
		xns, err := r.crossingNS(g)
		if err != nil {
			return err
		}
		wns, err := r.weakestNS(g)
		if err != nil {
			return err
		}
		ens, err := r.epochNS(g)
		if err != nil {
			return err
		}
		x := g.initLines + g.demandWrites + g.writeBacks + g.repairs
		xCalls += x
		xTime += float64(x) * xns
		wCalls += g.initLines
		wTime += float64(g.initLines) * wns
		eCalls += g.epochs
		eTime += float64(g.epochs) * ens
		runs += g.runs
		visits += g.visits
		dw += g.demandWrites
		wb += g.writeBacks
		repairs += g.repairs
		swp += g.sweeps
	}
	perCallNS := func(t float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return t / float64(n)
	}
	busyNS := float64(busy)
	o.layer("engine.busy_s", busy.Seconds())
	o.layer("engine.runs", float64(runs))
	o.layer("engine.visits", float64(visits))
	o.layer("engine.demand_writes", float64(dw))
	o.layer("engine.write_backs", float64(wb))
	o.layer("engine.repairs", float64(repairs))
	o.layer("engine.sweeps", float64(swp))
	o.layer("pcm.sample_crossings.calls", float64(xCalls))
	o.layer("pcm.sample_crossings.ns_per_call", perCallNS(xTime, xCalls))
	o.layer("wear.sample_weakest.calls", float64(wCalls))
	o.layer("wear.sample_weakest.ns_per_call", perCallNS(wTime, wCalls))
	o.layer("trace.writes_in_epoch.calls", float64(eCalls))
	o.layer("trace.writes_in_epoch.ns_per_call", perCallNS(eTime, eCalls))
	if busyNS <= 0 {
		return nil
	}
	o.layer("pcm.sample_crossings.share", xTime/busyNS)
	o.layer("wear.sample_weakest.share", wTime/busyNS)
	o.layer("trace.writes_in_epoch.share", eTime/busyNS)
	replayed := xTime + wTime + eTime
	o.layer("engine.reconcile_ratio", replayed/busyNS)
	loop := max(busyNS-replayed, 0)
	o.layer("engine.loop.share", loop/busyNS)
	o.layer("engine.loop.ns_per_visit", perCallNS(loop, visits))
	return nil
}

// journalAppendMS replays journal.Append of a submitted record carrying
// spec into a scratch journal and returns the median append time in ms.
func journalAppendMS(dir string, spec service.Spec) (float64, error) {
	jdir, err := os.MkdirTemp(dir, "append-replay-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(jdir)
	j, _, err := journal.Open(jdir)
	if err != nil {
		return 0, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		j.Close()
		return 0, err
	}
	var times []float64
	for i := range 200 {
		rec := journal.Record{Type: journal.TypeSubmitted, Job: fmt.Sprintf("replay-%d", i), Spec: raw}
		start := time.Now()
		if err := j.Append(rec); err != nil {
			j.Close()
			return 0, err
		}
		times = append(times, ms(time.Since(start)))
	}
	if err := j.Close(); err != nil {
		return 0, err
	}
	return quantile(times, 0.5), nil
}

// fingerprintUS replays the admission path's Normalized + Fingerprint on
// (up to 32 of) the given specs and returns µs per spec.
func fingerprintUS(specs []service.Spec) float64 {
	i := 0
	return perCall(min(len(specs), 32), func() {
		if n, err := specs[i%len(specs)].Normalized(); err == nil {
			_ = n.Fingerprint()
		}
		i++
	}) / 1e3
}

// decodeUSPerSpec replays the JSON decode of a request body holding
// nspecs specs and returns µs per spec.
func decodeUSPerSpec(body []byte, nspecs int, into func() any) float64 {
	return perCall(50, func() { _ = json.Unmarshal(body, into()) }) / 1e3 / float64(nspecs)
}

// spanQuantile is quantile over a tracer's spans of one name.
func spanQuantile(t *tracer, name string, q float64) float64 {
	return quantile(t.durations(name), q)
}

// selfQuantile is quantile over the self times of a tracer's spans.
func selfQuantile(t *tracer, name string, q float64) float64 {
	return quantile(t.selfTimes(name), q)
}
