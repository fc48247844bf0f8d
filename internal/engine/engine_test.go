package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ecc"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/pcm"
	"repro/internal/scrub"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wear"
)

func testWorkload() trace.Workload {
	return trace.Workload{
		Name:                "test-mix",
		WritesPerLinePerSec: 1e-5,
		ReadsPerLinePerSec:  1e-4,
		FootprintFrac:       1.0,
		ZipfSkew:            0.5,
	}
}

// testSpec is the small, fast test configuration: 256 lines under BCH-4
// with the basic full-decode patrol. Tests override knobs on the copy.
func testSpec() Spec {
	return Spec{
		System: System{
			Geometry: mem.Geometry{
				Channels: 1, RanksPerChan: 1, BanksPerRank: 2,
				RowsPerBank: 16, LinesPerRow: 8, LineBytes: 64,
			},
			PCM:      pcm.DefaultParams(),
			Mix:      pcm.UniformMix(),
			Wear:     wear.DefaultParams(),
			Energy:   energy.DefaultParams(),
			Horizon:  25000,
			Substeps: 8,
			Seed:     42,
		},
		Mechanism: Mechanism{Scheme: ecc.MustBCHLine(4), Policy: scrub.Basic(), Interval: 5000},
		Workload:  testWorkload(),
	}
}

// specVariants exercises every execution path the engine owns: both
// detection modes, write thresholds, adaptive control, leveling, SLC form
// switch, ECP, pre-aging, and fault injection.
func specVariants() map[string]Spec {
	variants := map[string]Spec{}

	basic := testSpec()
	variants["basic"] = basic

	light := testSpec()
	light.Scheme = ecc.MustBCHLine(8)
	light.Policy = scrub.LightBasic()
	variants["light-detect"] = light

	adaptive := scrub.DefaultAdaptive()
	adaptive.MaxInterval = 6250
	combined := testSpec()
	combined.Scheme = ecc.MustBCHLine(8)
	combined.Policy = scrub.MustNew(scrub.Config{
		Label:          "combined",
		Detect:         scrub.LightDetect,
		WriteThreshold: 6,
		WearAware:      true,
		Adaptive:       &adaptive,
	})
	variants["combined"] = combined

	substrates := testSpec()
	substrates.GapMovePeriod = 64
	substrates.SLCFraction = 0.3
	substrates.ECPEntries = 2
	substrates.InitialLineWrites = 90_000_000
	substrates.RecordRounds = true
	variants["substrates"] = substrates

	faulty := testSpec()
	faulty.Fault = &fault.Plan{ReadFlipRate: 0.01, SweepSkipRate: 0.2, StuckCheckRate: 0.05}
	variants["faulty"] = faulty

	return variants
}

// TestPoolReuseMatchesFirstRun pins the pooling invariant: recycled
// scratch and the shared sampler cache change allocation behaviour only.
// Every variant runs once, then again after all the others have cycled
// through the pool, and both results must be identical in every field.
func TestPoolReuseMatchesFirstRun(t *testing.T) {
	variants := specVariants()
	names := make([]string, 0, len(variants))
	for name := range variants {
		names = append(names, name)
	}
	sort.Strings(names)
	first := map[string]*Result{}
	for _, name := range names {
		res, err := Run(variants[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		first[name] = res
	}
	for _, name := range names {
		again, err := Run(variants[name])
		if err != nil {
			t.Fatalf("%s: rerun: %v", name, err)
		}
		if !reflect.DeepEqual(again, first[name]) {
			t.Errorf("%s: run on recycled state differs from first run:\n got  %+v\n want %+v", name, again, first[name])
		}
	}
}

// TestStatsAccumulate checks that completed runs fold into the
// process-wide totals scrubd surfaces on /metrics.
func TestStatsAccumulate(t *testing.T) {
	before := Stats()
	res, err := Run(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	after := Stats()
	if got := after.Runs - before.Runs; got < 1 {
		t.Errorf("Runs advanced by %d, want >= 1", got)
	}
	if got := after.Visits - before.Visits; got < res.ScrubVisits {
		t.Errorf("Visits advanced by %d, want >= %d", got, res.ScrubVisits)
	}
	if after.SimSeconds <= before.SimSeconds {
		t.Error("SimSeconds did not advance")
	}
}

// cancelAfter is a context that is cancelled right after its after-th
// Err call: that call still answers nil and records the run's visit
// count, and every later call answers Canceled. A test can then measure
// how many visits the engine performs between the cancel and its return.
type cancelAfter struct {
	context.Context
	s        *state
	after    int
	calls    int
	visitsAt int64
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.calls < c.after {
		return nil
	}
	if c.calls == c.after {
		c.visitsAt = c.s.res.ScrubVisits
		return nil
	}
	return context.Canceled
}

// TestCancellationVisitStride verifies the bounded-latency cancellation
// fix: with a single substep spanning 8192 lines, a context cancelled
// mid-substep must stop the patrol within visitStride visits, not at the
// substep boundary thousands of visits later. The always-write patrol
// runs every visit in full, so the visit counter is live.
func TestCancellationVisitStride(t *testing.T) {
	spec := testSpec()
	spec.Geometry = mem.Geometry{
		Channels: 1, RanksPerChan: 1, BanksPerRank: 8,
		RowsPerBank: 32, LinesPerRow: 32, LineBytes: 64,
	} // 8192 lines
	spec.Substeps = 1
	spec.Policy = scrub.AlwaysWrite()
	s, err := newState(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.release()
	ctx := &cancelAfter{Context: context.Background(), s: s, after: 3}

	err = s.run(ctx)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !strings.Contains(err.Error(), "engine: run canceled") {
		t.Errorf("error = %v, want engine cancellation error", err)
	}
	if ctx.visitsAt == 0 {
		t.Fatalf("cancelled after %d visits — test harness broken", ctx.visitsAt)
	}
	if extra := s.res.ScrubVisits - ctx.visitsAt; extra > visitStride {
		t.Errorf("engine performed %d visits after the cancel, want <= %d", extra, visitStride)
	}
	if s.res.ScrubVisits >= int64(s.slots) {
		t.Errorf("engine finished the %d-line substep (%d visits) despite the cancel", s.slots, s.res.ScrubVisits)
	}
}

// TestErrIsCanceledUnwrapsJoins pins that cancellation is recognised
// through wrapping and errors.Join trees alike.
func TestErrIsCanceledUnwrapsJoins(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("boom"), false},
		{context.Canceled, true},
		{fmt.Errorf("engine: run canceled: %w", context.DeadlineExceeded), true},
		{errors.Join(errors.New("shard 3 failed"), context.Canceled), true},
		{fmt.Errorf("campaign: %w", errors.Join(errors.New("x"), context.DeadlineExceeded)), true},
	}
	for _, c := range cases {
		if got := errIsCanceled(c.err); got != c.want {
			t.Errorf("errIsCanceled(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestCanceledRunCountsInStats pins that cancelled runs land in the
// CanceledRuns total rather than the success counters.
func TestCanceledRunCountsInStats(t *testing.T) {
	before := Stats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, testSpec()); err == nil {
		t.Fatal("run under cancelled context succeeded")
	}
	after := Stats()
	if got := after.CanceledRuns - before.CanceledRuns; got < 1 {
		t.Errorf("CanceledRuns advanced by %d, want >= 1", got)
	}
}

// BenchmarkEngineRun measures the pooled engine hot path (make bench
// records it in BENCH_engine.json). testSpec has no pre-aging and no SLC
// form switch, so each line write, the initial fill included, samples
// crossings once: crossings/op is the run's line-write count, which
// make bench multiplies by BenchmarkEngineCrossings' ns/op. lines/op and
// visits/op size the set-up and patrol layers of its reconciliation.
func BenchmarkEngineRun(b *testing.B) {
	spec := testSpec()
	b.ReportAllocs()
	var writes, draws, visits int64
	for i := 0; i < b.N; i++ {
		res, err := Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		writes += res.TotalLineWrites
		// Each slot draws its endurances once at init (without leveling a
		// slot per line); a one-shot run's UE repairs rewrite in place
		// without redrawing.
		draws += int64(res.Lines)
		visits += res.ScrubVisits
	}
	n := float64(b.N)
	b.ReportMetric(float64(writes)/n, "crossings/op")
	b.ReportMetric(float64(draws)/n, "weakest/op")
	b.ReportMetric(float64(draws)/n, "lines/op")
	b.ReportMetric(float64(visits)/n, "visits/op")
}

// sweepSpec is the basic rung of the campaign-cold workload: idle-archive
// on 512 lines under SECDED, full decode, write back on any error, at the
// interval the mechanism ladder derives for SECDED from the default
// physics and risk target.
func sweepSpec(b *testing.B) Spec {
	w, err := trace.ByName("idle-archive")
	if err != nil {
		b.Fatal(err)
	}
	spec := testSpec()
	spec.Geometry = mem.Geometry{
		Channels: 1, RanksPerChan: 1, BanksPerRank: 8,
		RowsPerBank: 2, LinesPerRow: 32, LineBytes: 64,
	} // 512 lines
	spec.Substeps = 16
	spec.Seed = 1
	spec.Scheme = ecc.NewSECDEDLine()
	spec.Policy = scrub.Basic()
	spec.Interval = pcm.MustModel(spec.PCM).ScrubIntervalFor(spec.Mix, pcm.CellsPerLine, 1, 1e-4)
	spec.Horizon = 172800
	spec.Workload = w
	return spec
}

// BenchmarkSweep times one steady-state patrol sweep of sweepSpec's
// device: the substeps' demand writes and one visit per line. Each
// iteration continues the same device one interval later, after a
// day of warm-up sweeps; ns/visit is the per-visit cost. Every line
// write (demand, write-back or repair) samples crossings once:
// crossings/visit lets make bench take those draws out of ns/visit, so
// its reconciliation counts each draw once.
func BenchmarkSweep(b *testing.B) {
	spec := sweepSpec(b)
	s, err := newState(spec)
	if err != nil {
		b.Fatal(err)
	}
	defer s.release()
	ctx := context.Background()
	t := 0.0
	sweep := func() {
		rs := scrub.RoundStats{Capability: s.capability}
		if err := s.sweep(ctx, t, spec.Interval, s.slots, &rs); err != nil {
			b.Fatal(err)
		}
		t += spec.Interval
	}
	writes := func() (n int64) {
		for _, w := range s.writes[:s.slots] {
			n += int64(w)
		}
		return n
	}
	for t < 86400 {
		sweep()
	}
	visits, written := s.res.ScrubVisits, writes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.StopTimer()
	visits = s.res.ScrubVisits - visits
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visits), "ns/visit")
	b.ReportMetric(float64(writes()-written)/float64(visits), "crossings/visit")
}

// BenchmarkNewState times a run's set-up for sweepSpec: pooled state,
// cached sampler, demand generator, patrol order, endurance draws and
// the initial write of every line. Each line draws its endurances and
// samples crossings once, which make bench takes out of the set-up line
// of its reconciliation.
func BenchmarkNewState(b *testing.B) {
	spec := sweepSpec(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := newState(spec)
		if err != nil {
			b.Fatal(err)
		}
		s.release()
	}
	lines := float64(spec.Geometry.TotalLines())
	b.ReportMetric(lines, "lines/op")
	b.ReportMetric(lines, "crossings/op")
	b.ReportMetric(lines, "weakest/op")
}

// BenchmarkEngineCrossings times one SampleCrossings call with the
// sampler and K that BenchmarkEngineRun's runs use, the per-call cost
// make bench reconciles against a run.
func BenchmarkEngineCrossings(b *testing.B) {
	spec := testSpec()
	sampler, err := cachedSampler(spec.PCM, spec.Mix, trackK(spec))
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(spec.Seed)
	var buf []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = sampler.SampleCrossings(r, buf)
	}
}
