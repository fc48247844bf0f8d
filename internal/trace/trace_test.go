package trace

import (
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
)

func TestAllNamedWorkloadsValid(t *testing.T) {
	ws := All()
	if len(ws) != 8 {
		t.Fatalf("expected 8 built-in workloads, got %d", len(ws))
	}
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			t.Errorf("workload %s invalid: %v", w.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != name {
			t.Errorf("ByName(%q) returned %q", name, w.Name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestValidateRejectsBadWorkloads(t *testing.T) {
	base := Workload{Name: "x", WritesPerLinePerSec: 0.1, ReadsPerLinePerSec: 0.1, FootprintFrac: 0.5}
	cases := []func(*Workload){
		func(w *Workload) { w.Name = "" },
		func(w *Workload) { w.WritesPerLinePerSec = -1 },
		func(w *Workload) { w.FootprintFrac = 0 },
		func(w *Workload) { w.FootprintFrac = 1.5 },
		func(w *Workload) { w.ZipfSkew = -0.5 },
		func(w *Workload) { w.Phases = []Phase{{DurationSec: 0, WriteMult: 1, ReadMult: 1}} },
		func(w *Workload) { w.Phases = []Phase{{DurationSec: 10, WriteMult: -1, ReadMult: 1}} },
	}
	for i, mut := range cases {
		w := base
		mut(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: invalid workload accepted", i)
		}
	}
}

func TestGeneratorFootprint(t *testing.T) {
	r := stats.NewRNG(1)
	w := Workload{Name: "x", WritesPerLinePerSec: 1, FootprintFrac: 0.25}
	g, err := NewGenerator(w, 1000, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.FootprintLines() != 250 {
		t.Errorf("footprint = %d, want 250", g.FootprintLines())
	}
	// All generated targets stay inside the footprint set.
	inFootprint := map[int]bool{}
	for _, l := range g.perm {
		inFootprint[int(l)] = true
	}
	events := g.WritesInEpoch(r, 0, 1.0, nil)
	if len(events) == 0 {
		t.Fatal("expected events at rate 250/s over 1 s")
	}
	for _, l := range events {
		if l < 0 || l >= 1000 {
			t.Fatalf("line %d out of range", l)
		}
		if !inFootprint[l] {
			t.Fatalf("line %d outside footprint", l)
		}
	}
}

func TestGeneratorTinyFootprintClamped(t *testing.T) {
	r := stats.NewRNG(2)
	w := Workload{Name: "x", WritesPerLinePerSec: 1, FootprintFrac: 0.0001}
	g, err := NewGenerator(w, 100, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.FootprintLines() != 1 {
		t.Errorf("footprint = %d, want clamp to 1", g.FootprintLines())
	}
}

func TestEventRateMatchesPoissonMean(t *testing.T) {
	r := stats.NewRNG(3)
	w := Workload{Name: "x", WritesPerLinePerSec: 0.01, ReadsPerLinePerSec: 0.02, FootprintFrac: 1.0}
	const totalLines = 1000
	g, err := NewGenerator(w, totalLines, r)
	if err != nil {
		t.Fatal(err)
	}
	const dt = 10.0
	const epochs = 2000
	var writes, reads int
	var wbuf, rbuf []int
	for e := 0; e < epochs; e++ {
		wbuf = g.WritesInEpoch(r, float64(e)*dt, dt, wbuf)
		rbuf = g.ReadsInEpoch(r, float64(e)*dt, dt, rbuf)
		writes += len(wbuf)
		reads += len(rbuf)
	}
	wantW := 0.01 * totalLines * dt * epochs
	wantR := 0.02 * totalLines * dt * epochs
	if math.Abs(float64(writes)-wantW) > 5*math.Sqrt(wantW) {
		t.Errorf("writes %d, want ~%.0f", writes, wantW)
	}
	if math.Abs(float64(reads)-wantR) > 5*math.Sqrt(wantR) {
		t.Errorf("reads %d, want ~%.0f", reads, wantR)
	}
}

func TestZipfSkewConcentratesWrites(t *testing.T) {
	r := stats.NewRNG(4)
	hot := Workload{Name: "hot", WritesPerLinePerSec: 0.1, FootprintFrac: 1.0, ZipfSkew: 1.2}
	cold := Workload{Name: "cold", WritesPerLinePerSec: 0.1, FootprintFrac: 1.0, ZipfSkew: 0.0}
	const totalLines = 500
	count := func(w Workload) float64 {
		g, err := NewGenerator(w, totalLines, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		counts := map[int]int{}
		var buf []int
		for e := 0; e < 200; e++ {
			buf = g.WritesInEpoch(r, 0, 10, buf)
			for _, l := range buf {
				counts[l]++
			}
		}
		// Fraction of writes landing on the top-10 busiest lines.
		total, top := 0, make([]int, 0, len(counts))
		for _, c := range counts {
			total += c
			top = append(top, c)
		}
		best := 0
		for i := 0; i < 10; i++ {
			bi, bv := -1, -1
			for j, v := range top {
				if v > bv {
					bi, bv = j, v
				}
			}
			best += bv
			top[bi] = -1
		}
		return float64(best) / float64(total)
	}
	if hotFrac, coldFrac := count(hot), count(cold); hotFrac < 2*coldFrac {
		t.Errorf("Zipf skew should concentrate writes: hot top-10 frac %.3f vs cold %.3f", hotFrac, coldFrac)
	}
}

func TestPhasesModulateRates(t *testing.T) {
	r := stats.NewRNG(6)
	w := Workload{
		Name: "phased", WritesPerLinePerSec: 0.01, ReadsPerLinePerSec: 0.01,
		FootprintFrac: 1.0,
		Phases: []Phase{
			{DurationSec: 100, WriteMult: 2, ReadMult: 0.5},
			{DurationSec: 100, WriteMult: 0, ReadMult: 1},
		},
	}
	g, err := NewGenerator(w, 1000, r)
	if err != nil {
		t.Fatal(err)
	}
	base := 0.01 * 1000
	if got := g.WriteRateAt(50); math.Abs(got-2*base) > 1e-9 {
		t.Errorf("phase 1 write rate %g, want %g", got, 2*base)
	}
	if got := g.WriteRateAt(150); got != 0 {
		t.Errorf("phase 2 write rate %g, want 0", got)
	}
	if got := g.ReadRateAt(150); math.Abs(got-base) > 1e-9 {
		t.Errorf("phase 2 read rate %g, want %g", got, base)
	}
	// The cycle repeats.
	if got := g.WriteRateAt(250); math.Abs(got-2*base) > 1e-9 {
		t.Errorf("wrapped phase write rate %g, want %g", got, 2*base)
	}
}

func TestConstantWorkloadMultipliersAreUnity(t *testing.T) {
	r := stats.NewRNG(7)
	w := Workload{Name: "x", WritesPerLinePerSec: 0.5, FootprintFrac: 1.0}
	g, err := NewGenerator(w, 100, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.WriteRateAt(0) != g.WriteRateAt(1e6) {
		t.Error("constant workload should have time-invariant rates")
	}
}

func TestNewGeneratorRejectsBadInput(t *testing.T) {
	r := stats.NewRNG(8)
	w := Workload{Name: "x", WritesPerLinePerSec: 1, FootprintFrac: 1}
	if _, err := NewGenerator(w, 0, r); err == nil {
		t.Error("zero lines accepted")
	}
	bad := Workload{}
	if _, err := NewGenerator(bad, 100, r); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestWorkloadSuiteSpansIntensitySpace(t *testing.T) {
	// The suite must contain at least one write-heavy (≥0.01/line/s,
	// i.e. mean rewrite well inside the basic scrub interval) and one
	// near-idle (≤1e-4/line/s) workload so the policy comparisons see
	// both wear-bound and drift-bound regimes.
	var hasHot, hasCold bool
	for _, w := range All() {
		if w.WritesPerLinePerSec >= 0.01 {
			hasHot = true
		}
		if w.WritesPerLinePerSec <= 1e-4 {
			hasCold = true
		}
	}
	if !hasHot || !hasCold {
		t.Error("workload suite should span write-heavy to near-idle")
	}
}

// TestResetMatchesNewGenerator rebuilds one generator over a sequence of
// workloads and sizes, larger and smaller, and checks each rebuild draws
// exactly the events a fresh NewGenerator draws from the same streams.
func TestResetMatchesNewGenerator(t *testing.T) {
	reused := new(Generator)
	for i, c := range []struct {
		name  string
		lines int
	}{{"db-oltp", 4096}, {"idle-archive", 512}, {"hpc-stencil", 2048}, {"db-oltp", 64}} {
		w, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		seed := uint64(300 + i)
		fresh, err := NewGenerator(w, c.lines, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := reused.Reset(w, c.lines, stats.NewRNG(seed)); err != nil {
			t.Fatal(err)
		}
		ra, rb := stats.NewRNG(seed+1), stats.NewRNG(seed+1)
		var a, b []int
		for e := 0; e < 20; e++ {
			tt := float64(e) * 3600
			a = fresh.WritesInEpoch(ra, tt, 3600, a)
			b = reused.WritesInEpoch(rb, tt, 3600, b)
			if !slices.Equal(a, b) {
				t.Fatalf("%s/%d epoch %d: reset generator drew %v, fresh %v", c.name, c.lines, e, b, a)
			}
		}
		if fresh.WriteRateAt(1e5) != reused.WriteRateAt(1e5) || fresh.FootprintLines() != reused.FootprintLines() {
			t.Fatalf("%s/%d: reset generator's rates or footprint differ", c.name, c.lines)
		}
	}
}

// BenchmarkWritesInEpoch times one epoch's demand writes for db-oltp on
// 512 lines (a 409-line footprint): a Poisson count, then one Zipf draw
// and permutation lookup per write. A 60 s epoch holds about 74 writes.
func BenchmarkWritesInEpoch(b *testing.B) {
	w, err := ByName("db-oltp")
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGenerator(w, 512, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(2)
	var buf []int
	const dt = 60.0
	t := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.WritesInEpoch(r, t, dt, buf)
		t += dt
	}
}
