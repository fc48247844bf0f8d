package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/ecc"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/trace"
)

// smallSystem shrinks the default system so full-suite tests run fast.
func smallSystem() System {
	sys := DefaultSystem()
	sys.Geometry = mem.Geometry{
		Channels: 1, RanksPerChan: 1, BanksPerRank: 4,
		RowsPerBank: 16, LinesPerRow: 8, LineBytes: 64,
	} // 512 lines
	sys.Horizon = 40000
	sys.Substeps = 8
	return sys
}

// runOne runs one mechanism under one workload through the engine.
func runOne(sys System, m Mechanism, w trace.Workload) (*engine.Result, error) {
	return engine.Run(engine.ResolveSpec(sys, m, w, engine.Options{}))
}

func smallWorkload() trace.Workload {
	return trace.Workload{
		Name:                "unit-mix",
		WritesPerLinePerSec: 1e-5,
		ReadsPerLinePerSec:  1e-4,
		FootprintFrac:       1.0,
		ZipfSkew:            0.5,
	}
}

func TestDefaultSystemValid(t *testing.T) {
	sys := DefaultSystem()
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSystemValidateRejects(t *testing.T) {
	cases := []func(*System){
		func(s *System) { s.Horizon = 0 },
		func(s *System) { s.RiskTarget = 0 },
		func(s *System) { s.RiskTarget = 1 },
		func(s *System) { s.Geometry.Channels = 0 },
		func(s *System) { s.PCM.T0 = 0 },
	}
	for i, mut := range cases {
		sys := DefaultSystem()
		mut(&sys)
		if err := sys.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestFixedIntervalMonotoneInTolerance(t *testing.T) {
	sys := DefaultSystem()
	i1, err := FixedIntervalFor(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	i6, err := FixedIntervalFor(sys, 6)
	if err != nil {
		t.Fatal(err)
	}
	if i6 <= i1 {
		t.Errorf("interval for tolerance 6 (%g) should exceed tolerance 1 (%g)", i6, i1)
	}
	if i1 < 60 {
		t.Errorf("interval should clamp at 60 s, got %g", i1)
	}
	if i6 > sys.Horizon/4 {
		t.Errorf("interval should clamp at horizon/4, got %g", i6)
	}
}

func TestSuiteShape(t *testing.T) {
	sys := smallSystem()
	ms, err := Suite(sys)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"basic", "strong-ecc", "light-detect", "threshold", "combined"}
	if len(ms) != len(wantNames) {
		t.Fatalf("suite has %d mechanisms", len(ms))
	}
	for i, m := range ms {
		if m.Name != wantNames[i] {
			t.Errorf("mechanism %d = %q, want %q", i, m.Name, wantNames[i])
		}
		if m.Scheme == nil || m.Policy.Validate() != nil || m.Interval <= 0 {
			t.Errorf("mechanism %q incomplete", m.Name)
		}
	}
	if ms[0].Scheme.Name() != "SECDED" {
		t.Errorf("basic should use SECDED, got %s", ms[0].Scheme.Name())
	}
	for _, m := range ms[1:] {
		if m.Scheme.Name() != "BCH-8" {
			t.Errorf("%s should use BCH-8, got %s", m.Name, m.Scheme.Name())
		}
	}
	// The strong-ECC ladder runs at a longer interval than basic.
	if ms[1].Interval <= ms[0].Interval {
		t.Errorf("strong-ecc interval (%g) should exceed basic (%g)", ms[1].Interval, ms[0].Interval)
	}
}

// TestLadderBCH8MatchesCodec pins the count-only BCH-8 scheme every
// strong rung carries to the geometry of the real BCH-8 line codec: the
// engine reads nothing else from a scheme, so matching these fields
// keeps every run as it was under the codec.
func TestLadderBCH8MatchesCodec(t *testing.T) {
	ms, err := Suite(smallSystem())
	if err != nil {
		t.Fatal(err)
	}
	codec := ecc.MustBCHLine(8)
	for _, m := range ms[1:] {
		s := m.Scheme
		if s.Name() != codec.Name() || s.DataBits() != codec.DataBits() ||
			s.CheckBits() != codec.CheckBits() || s.T() != codec.T() {
			t.Errorf("%s: scheme %s %d+%d bits t=%d, codec %s %d+%d bits t=%d", m.Name,
				s.Name(), s.DataBits(), s.CheckBits(), s.T(),
				codec.Name(), codec.DataBits(), codec.CheckBits(), codec.T())
		}
	}
}

// TestSuiteShortHorizon pins that horizons too short for the default
// adaptive floor still yield the full ladder (the combined rung clamps
// its minimum interval) and that every rung runs.
func TestSuiteShortHorizon(t *testing.T) {
	sys := smallSystem()
	sys.Horizon = 600
	ms, err := Suite(sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 5 {
		t.Fatalf("suite has %d mechanisms, want 5", len(ms))
	}
	for _, m := range ms {
		if _, err := runOne(sys, m, smallWorkload()); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestSuiteMechanismLookup(t *testing.T) {
	sys := smallSystem()
	m, err := SuiteMechanism(sys, "combined")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "combined" {
		t.Errorf("got %q", m.Name)
	}
	if _, err := SuiteMechanism(sys, "bogus"); err == nil {
		t.Error("unknown mechanism accepted")
	}
}

func TestRunOneProducesResult(t *testing.T) {
	sys := smallSystem()
	m, err := SuiteMechanism(sys, "basic")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOne(sys, m, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res.ScrubVisits == 0 || res.Sweeps == 0 {
		t.Error("run produced no scrub activity")
	}
	if res.SchemeName != "SECDED" || res.WorkloadName != "unit-mix" {
		t.Errorf("labels wrong: %s/%s", res.SchemeName, res.WorkloadName)
	}
}

func TestRunMatrixAndHeadline(t *testing.T) {
	sys := smallSystem()
	ms, err := Suite(sys)
	if err != nil {
		t.Fatal(err)
	}
	// Basic vs combined only, two workloads, to keep the test fast.
	pair := []Mechanism{ms[0], ms[4]}
	workloads := []trace.Workload{
		smallWorkload(),
		{Name: "idle", WritesPerLinePerSec: 1e-7, ReadsPerLinePerSec: 1e-5, FootprintFrac: 1.0},
	}
	mx, err := RunMatrixContext(context.Background(), sys, pair, workloads)
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range mx.Mechanisms {
		for _, w := range mx.Workloads {
			if mx.Get(mech, w) == nil {
				t.Fatalf("missing cell %s/%s", mech, w)
			}
		}
	}
	if mx.Get("nope", "unit-mix") != nil {
		t.Error("bogus cell lookup should be nil")
	}
	h, err := mx.ComputeHeadline("basic", "combined")
	if err != nil {
		t.Fatal(err)
	}
	// Direction checks — the combined mechanism must win on writes and
	// energy (UEs may both be ~0 at this small scale).
	if h.WriteReductionFactor <= 1 {
		t.Errorf("combined should reduce scrub writes, factor %.2f", h.WriteReductionFactor)
	}
	if h.EnergyReductionPct <= 0 {
		t.Errorf("combined should reduce scrub energy, got %.1f%%", h.EnergyReductionPct)
	}
	bt := mx.TotalsFor("basic")
	ct := mx.TotalsFor("combined")
	if ct.UEs > bt.UEs {
		t.Errorf("combined UEs (%d) should not exceed basic (%d)", ct.UEs, bt.UEs)
	}
	if _, err := mx.ComputeHeadline("basic", "missing"); err == nil {
		t.Error("headline with missing mechanism accepted")
	}
}

func TestRunMatrixReproducibleAcrossScheduling(t *testing.T) {
	sys := smallSystem()
	sys.Horizon = 20000
	ms, err := Suite(sys)
	if err != nil {
		t.Fatal(err)
	}
	pair := []Mechanism{ms[0], ms[3]}
	ws := []trace.Workload{smallWorkload()}
	a, err := RunMatrixContext(context.Background(), sys, pair, ws)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMatrixContext(context.Background(), sys, pair, ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range a.Mechanisms {
		ra, rb := a.Get(mech, "unit-mix"), b.Get(mech, "unit-mix")
		if ra.UEs != rb.UEs || ra.ScrubWrites() != rb.ScrubWrites() ||
			math.Abs(ra.ScrubEnergy.Total()-rb.ScrubEnergy.Total()) > 1e-6 {
			t.Errorf("%s: matrix not reproducible", mech)
		}
	}
}

func TestRunMatrixRejectsEmpty(t *testing.T) {
	sys := smallSystem()
	if _, err := RunMatrixContext(context.Background(), sys, nil, []trace.Workload{smallWorkload()}); err == nil {
		t.Error("empty mechanisms accepted")
	}
	ms, _ := Suite(sys)
	if _, err := RunMatrixContext(context.Background(), sys, ms[:1], nil); err == nil {
		t.Error("empty workloads accepted")
	}
}

func TestPerfOverhead(t *testing.T) {
	sys := smallSystem()
	m, err := SuiteMechanism(sys, "basic")
	if err != nil {
		t.Fatal(err)
	}
	w := smallWorkload()
	res, err := runOne(sys, m, w)
	if err != nil {
		t.Fatal(err)
	}
	if slow := PerfOverhead(sys, w, res); slow < 1 {
		t.Errorf("slowdown %g < 1", slow)
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "demo", Header: []string{"name", "value"}}
	tb.AddRow("alpha", "1")
	tb.AddRow("beta-long", "22", "extra-ignored")
	tb.AddRow("gamma")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"demo", "name", "alpha", "beta-long", "-----"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	var md strings.Builder
	if err := tb.Markdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "| name | value |") {
		t.Errorf("markdown header wrong:\n%s", md.String())
	}
	if !strings.Contains(md.String(), "| --- | --- |") {
		t.Error("markdown separator missing")
	}
}

func TestFormatters(t *testing.T) {
	if got := FmtCount(1234567); got != "1,234,567" {
		t.Errorf("FmtCount = %q", got)
	}
	if got := FmtCount(-42); got != "-42" {
		t.Errorf("FmtCount(-42) = %q", got)
	}
	if got := FmtCount(999); got != "999" {
		t.Errorf("FmtCount(999) = %q", got)
	}
	cases := []struct {
		pj   float64
		want string
	}{
		{5, "5.00 pJ"},
		{5e3, "5.00 nJ"},
		{5e6, "5.00 uJ"},
		{5e9, "5.00 mJ"},
		{5e12, "5.00 J"},
	}
	for _, c := range cases {
		if got := FmtEnergy(c.pj); got != c.want {
			t.Errorf("FmtEnergy(%g) = %q, want %q", c.pj, got, c.want)
		}
	}
	if got := FmtSeconds(30); got != "30 s" {
		t.Errorf("FmtSeconds(30) = %q", got)
	}
	if got := FmtSeconds(120); got != "2.0 min" {
		t.Errorf("FmtSeconds(120) = %q", got)
	}
	if got := FmtSeconds(7200); got != "2.0 h" {
		t.Errorf("FmtSeconds(7200) = %q", got)
	}
	if got := FmtSeconds(172800); got != "2.0 d" {
		t.Errorf("FmtSeconds(172800) = %q", got)
	}
}
