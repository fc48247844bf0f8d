package stats

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

// TestSummaryJSONRoundTrip pins the property the cluster shard protocol
// depends on: a Summary survives JSON marshal/unmarshal with its exact
// accumulator state, so derived statistics are bit-identical after the
// round trip.
func TestSummaryJSONRoundTrip(t *testing.T) {
	var s Summary
	for _, x := range []float64{3.25, -1.5, 0.3333333333333333, 1e-300, 7.1e12} {
		s.Add(x)
	}
	data, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip changed state: %+v != %+v", back, s)
	}
	if back.Mean() != s.Mean() || back.Variance() != s.Variance() ||
		back.Min() != s.Min() || back.Max() != s.Max() || back.N() != s.N() {
		t.Error("derived statistics differ after round trip")
	}
	// Value receivers marshal too (Summary is embedded by value in
	// engine.Result).
	byValue, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(byValue) != string(data) {
		t.Errorf("value and pointer marshal differ: %s vs %s", byValue, data)
	}
	var empty Summary
	if err := json.Unmarshal([]byte(`{"n":-1}`), &empty); err == nil {
		t.Error("negative n accepted")
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v", s.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("variance = %v", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 {
		t.Error("empty summary should report zeros")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(42)
	if s.Mean() != 42 || s.Variance() != 0 || s.Min() != 42 || s.Max() != 42 {
		t.Errorf("single-element summary wrong: %v", s.String())
	}
}

func TestSummaryMergeEqualsSequential(t *testing.T) {
	clamp := func(x float64) (float64, bool) {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
			return 0, false
		}
		return x, true
	}
	f := func(as, bs []float64) bool {
		var all, left, right Summary
		for _, raw := range as {
			x, ok := clamp(raw)
			if !ok {
				continue
			}
			all.Add(x)
			left.Add(x)
		}
		for _, raw := range bs {
			x, ok := clamp(raw)
			if !ok {
				continue
			}
			all.Add(x)
			right.Add(x)
		}
		left.Merge(&right)
		if left.N() != all.N() {
			return false
		}
		if all.N() == 0 {
			return true
		}
		scale := math.Max(1, math.Abs(all.Mean()))
		if math.Abs(left.Mean()-all.Mean()) > 1e-6*scale {
			return false
		}
		vscale := math.Max(1, all.Variance())
		return math.Abs(left.Variance()-all.Variance()) < 1e-5*vscale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryMergeEmptyCases(t *testing.T) {
	var a, b Summary
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(&b) // merging empty is a no-op
	if a.N() != before.N() || a.Mean() != before.Mean() {
		t.Error("merge with empty changed the summary")
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 2 || b.Mean() != 2 {
		t.Errorf("merge into empty: %v", b.String())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileEmptyNaN(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}
