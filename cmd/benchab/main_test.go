package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestSummarizeCountsWinsByDirection(t *testing.T) {
	before := []float64{300, 320, 310, 350, 330}
	after := []float64{400, 310, 420, 450, 500}
	s := summarize(before, after, "higher")
	if s.wins != 4 {
		t.Errorf("higher-is-better wins = %d, want 4", s.wins)
	}
	if s.before != [3]float64{310, 320, 330} || s.after != [3]float64{400, 420, 450} {
		t.Errorf("quartiles before %v after %v, want [310 320 330] and [400 420 450]", s.before, s.after)
	}
	if w := summarize(before, after, "lower").wins; w != 1 {
		t.Errorf("lower-is-better wins = %d, want 1", w)
	}
}

func TestReadMetricsFromBenchmarkFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	doc := `{"end_to_end": [{"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readMetrics(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (metricSpec{Name: "throughput_per_s", Unit: "1/s", Better: "higher"}) {
		t.Errorf("metrics = %+v", got)
	}
}
