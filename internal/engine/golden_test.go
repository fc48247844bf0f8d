package engine

import "testing"

// TestGoldenDeterminism pins the exact counters of a fixed-seed run. It
// exists as a regression tripwire: any change to RNG consumption order,
// sampling algorithms, or event scheduling shifts these numbers and must
// be a conscious decision. When such a change is intentional, regenerate
// the constants (run with -run TestGoldenDeterminism -v and copy the
// failure output). Energy is compared exactly: the run's charges are
// fixed products added in a fixed order, so its bits are part of the
// contract.
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
	if got != want {
		t.Errorf("golden counters drifted:\n got  %+v\n want %+v", got, want)
	}
}
