package engine

import (
	"math"
	"testing"
)

// TestGoldenDeterminism pins the exact counters of a fixed-seed run. It
// exists as a regression tripwire: any change to RNG consumption order,
// sampling algorithms, or event scheduling shifts these numbers and must
// be a conscious decision. When such a change is intentional, regenerate
// the constants (run with -run TestGoldenDeterminism -v and copy the
// failure output).
func TestGoldenDeterminism(t *testing.T) {
	res, err := Run(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	type golden struct {
		UEs, ScrubWrites, Corrected, Demand, Visits int64
		Energy                                      float64
	}
	want := golden{
		UEs:         1,
		ScrubWrites: 498,
		Corrected:   653,
		Demand:      64,
		Visits:      1280,
		Energy:      5.1513128e+07,
	}
	got := golden{
		UEs:         res.UEs,
		ScrubWrites: res.ScrubWrites(),
		Corrected:   res.CorrectedBits,
		Demand:      res.DemandWrites,
		Visits:      res.ScrubVisits,
		Energy:      res.ScrubEnergy.Total(),
	}
	if got.UEs != want.UEs || got.ScrubWrites != want.ScrubWrites ||
		got.Corrected != want.Corrected || got.Demand != want.Demand ||
		got.Visits != want.Visits ||
		math.Abs(got.Energy-want.Energy)/want.Energy > 1e-4 {
		t.Errorf("golden counters drifted:\n got  %+v\n want %+v", got, want)
	}
}
