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

// cancelPolicy cancels its context from inside the visit loop after a set
// number of write-back consultations, which under FullDecode is one per
// visit — letting the test measure how many further visits the engine
// performs before it notices.
type cancelPolicy struct {
	scrub.Policy
	cancel context.CancelFunc
	after  int
	calls  int
}

func (p *cancelPolicy) ShouldWriteBack(scrub.VisitInfo) bool {
	p.calls++
	if p.calls == p.after {
		p.cancel()
	}
	return false
}

// TestCancellationVisitStride verifies the bounded-latency cancellation
// fix: with a single substep spanning 8192 lines, a context cancelled
// mid-substep must stop the patrol within visitStride visits, not at the
// substep boundary thousands of visits later.
func TestCancellationVisitStride(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pol := &cancelPolicy{Policy: scrub.Basic(), cancel: cancel, after: 100}

	spec := testSpec()
	spec.Geometry = mem.Geometry{
		Channels: 1, RanksPerChan: 1, BanksPerRank: 8,
		RowsPerBank: 32, LinesPerRow: 32, LineBytes: 64,
	} // 8192 lines
	spec.Substeps = 1
	spec.Policy = pol

	_, err := RunContext(ctx, spec)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !strings.Contains(err.Error(), "engine: run canceled") {
		t.Errorf("error = %v, want engine cancellation error", err)
	}
	maxVisits := pol.after + visitStride
	if pol.calls > maxVisits {
		t.Errorf("engine performed %d visits before honouring cancel, want <= %d", pol.calls, maxVisits)
	}
	if pol.calls < pol.after {
		t.Errorf("only %d visits before cancel point %d — test harness broken", pol.calls, pol.after)
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
// make bench multiplies by BenchmarkEngineCrossings' ns/op.
func BenchmarkEngineRun(b *testing.B) {
	spec := testSpec()
	b.ReportAllocs()
	var writes, draws int64
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
	}
	b.ReportMetric(float64(writes)/float64(b.N), "crossings/op")
	b.ReportMetric(float64(draws)/float64(b.N), "weakest/op")
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
