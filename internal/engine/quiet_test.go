package engine

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/ondie"
	"repro/internal/scrub"
	"repro/internal/stats"
)

// noTraffic is a traffic source with no demand writes that draws no
// random number.
type noTraffic struct{}

func (noTraffic) WritesInEpoch(_ *stats.RNG, _, _ float64, buf []int) []int { return buf[:0] }

// cleanState returns a state whose every line is clean, with no stuck
// bit and no crossing due before the horizon, and no demand traffic.
func cleanState(t *testing.T, pol scrub.Policy) *state {
	t.Helper()
	spec := testSpec()
	spec.Policy = pol
	spec.Source = noTraffic{}
	s, err := newState(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.slots; i++ {
		s.due[i] = math.Inf(1)
		s.drift[i] = 0
		s.stuckBits[i] = 0
	}
	return s
}

// TestQuietSweepIsCounted checks the quiet-visit contract on a device
// where every line is clean and no crossing is due: under both detection
// modes a sweep draws no random number, and it moves the visit count,
// the probe or decode count and every operation count by exactly one
// visit's worth per slot.
func TestQuietSweepIsCounted(t *testing.T) {
	for _, pol := range []scrub.Policy{scrub.Basic(), scrub.LightBasic()} {
		s := cleanState(t, pol)
		if !s.quiet(0, 1) {
			t.Fatalf("%s: clean line not quiet", pol.Name())
		}
		rng := *s.rng
		rs := scrub.RoundStats{Capability: s.capability}
		if err := s.sweep(context.Background(), 0, s.spec.Interval, s.slots, &rs); err != nil {
			t.Fatal(err)
		}
		if *s.rng != rng {
			t.Errorf("%s: a quiet sweep moved the RNG", pol.Name())
		}
		n := int64(s.slots)
		w := s.width
		want := energy.Ops{ReadBits: n * w.fullRead, SECDEDWords: n * w.secdedWords, BCHUnits: n * w.bchUnits}
		probes, decodes := int64(0), n
		if pol.Detection() == scrub.LightDetect {
			want = energy.Ops{ReadBits: n * w.probeRead, CRCPasses: n}
			probes, decodes = n, 0
		}
		if s.scrubOps != want {
			t.Errorf("%s: operation counts %+v, want %+v", pol.Name(), s.scrubOps, want)
		}
		if s.demandOps != (energy.Ops{}) {
			t.Errorf("%s: demand counts %+v on a device without traffic", pol.Name(), s.demandOps)
		}
		if s.res.ScrubVisits != n || rs.Lines != n || s.res.ScrubProbes != probes || s.res.ScrubDecodes != decodes {
			t.Errorf("%s: visits %d, lines %d, probes %d, decodes %d; want %d, %d, %d, %d", pol.Name(),
				s.res.ScrubVisits, rs.Lines, s.res.ScrubProbes, s.res.ScrubDecodes, n, n, probes, decodes)
		}
		if s.res.ScrubWrites() != 0 || s.res.MaxErrBits != 0 || rs.LinesNearMargin != 0 {
			t.Errorf("%s: a quiet sweep wrote or saw errors: %+v", pol.Name(), rs)
		}
		s.release()
	}
}

// TestQuietPredicateConditions checks that every condition of the quiet
// predicate holds it off: a line with stuck bits, with a drift error or
// with a crossing due is visited in full, and so is every line of a run
// under the always-write patrol, fault injection, on-die ECC or active
// profiling, or of a device swapped to the always-write patrol.
func TestQuietPredicateConditions(t *testing.T) {
	s := cleanState(t, scrub.Basic())
	defer s.release()
	s.stuckBits[1] = 1
	s.drift[2] = 1
	s.due[3] = 500
	for i, want := range []bool{true, false, false, false} {
		if got := s.quiet(i, 1000); got != want {
			t.Errorf("basic line %d: quiet = %v, want %v", i, got, want)
		}
	}

	runs := map[string]func(*Spec){
		"always-write": func(sp *Spec) { sp.Policy = scrub.AlwaysWrite() },
		"faults":       func(sp *Spec) { sp.Fault = &fault.Plan{ReadFlipRate: 0.01} },
		"on-die":       func(sp *Spec) { sp.OnDie = &ondie.Config{T: 1} },
		"profiled":     func(sp *Spec) { sp.Policy = scrub.ProfiledThreshold(1) },
	}
	for name, mut := range runs {
		spec := testSpec()
		mut(&spec)
		s, err := newState(spec)
		if err != nil {
			t.Fatal(err)
		}
		s.due[0], s.drift[0], s.stuckBits[0] = math.Inf(1), 0, 0
		if s.quiet(0, 1) {
			t.Errorf("%s: a clean line is quiet", name)
		}
		s.release()
	}

	d, err := NewDevice(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetPolicy(scrub.AlwaysWrite()); err != nil {
		t.Fatal(err)
	}
	d.s.due[0], d.s.drift[0], d.s.stuckBits[0] = math.Inf(1), 0, 0
	if d.s.quiet(0, 1) {
		t.Error("device swapped to always-write: a clean line is quiet")
	}
}

// TestQuietSkipMatchesFullVisits runs every engine path twice, once with
// quiet visits counted and once with every visit run in full, and
// requires identical results: counting a quiet visit is exactly what
// running it would have done.
func TestQuietSkipMatchesFullVisits(t *testing.T) {
	for name, spec := range specVariants() {
		var results [2]Result
		for k, skip := range []bool{true, false} {
			s, err := newState(spec)
			if err != nil {
				t.Fatal(err)
			}
			s.skipQuiet = s.skipQuiet && skip
			if err := s.run(context.Background()); err != nil {
				t.Fatal(err)
			}
			results[k] = s.res
			s.release()
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("%s: counting quiet visits changed the result:\n skip %+v\n full %+v", name, results[0], results[1])
		}
	}
}
