package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"testing"
	"time"
)

var (
	legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	legalUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadRef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadRef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// TestBenchmarkJSONMatchesCatalog holds BENCHMARK.json and the program's
// metric and workload catalog equal, and both within the file's limits.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 12,
		EndToEnd:   e2eMetrics,
		PerLayer:   layerMetrics,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, workloadRef{Name: w.Name, Why: w.Why})
	}
	if !reflect.DeepEqual(got, want) {
		exp, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json differs from the catalog; expected:\n%s", exp)
	}
	seen := map[string]bool{}
	for _, m := range slices.Concat(e2eMetrics, layerMetrics) {
		if !legalName.MatchString(m.Name) || !legalUnit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q) is illegal or repeated", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range e2eMetrics {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > e2eMetrics[0].Bound {
			t.Errorf("metric %q: bound %g above setup_s's", m.Name, m.Bound)
		}
	}
	for _, w := range workloads {
		if !legalName.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: illegal name or why longer than 200", w.Name)
		}
	}
}

// TestSmoke runs every workload for under a second, untraced and traced,
// at shrunk scale, and checks that each report carries every catalogued
// metric and passes the correctness gates.
func TestSmoke(t *testing.T) {
	if !testing.Short() {
		t.Skip("smoke test runs with -short; full runs go through bench/run.sh")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				e := &env{seed: 7, window: 700 * time.Millisecond, dir: t.TempDir(), out: t.TempDir(), name: w.Name, small: true}
				if traced {
					e.tr = newTracer()
				}
				rep, err := measure(w, e)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range rep.Checks {
					if !c.OK {
						t.Errorf("check %s failed: %s", c.Name, c.Detail)
					}
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
				}
				cat := catalogFor(traced)
				if len(rep.Metrics) != len(cat) {
					t.Errorf("%d metrics, catalog has %d", len(rep.Metrics), len(cat))
				}
				for _, m := range cat {
					v, ok := rep.Metrics[m.Name]
					if !ok || (!traced && v <= 0) {
						t.Errorf("metric %s = %v (present %v)", m.Name, v, ok)
					}
				}
			})
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "x", "--trace", "0", "--seed", "3", "-trace", "1", "-trace"})
	want := []string{"--workload", "x", "--trace=0", "--seed", "3", "-trace=1", "-trace"}
	if !slices.Equal(got, want) {
		t.Fatalf("normalizeArgs = %q, want %q", got, want)
	}
}

// TestPyQuartiles pins the quartiles to Python's statistics.quantiles(xs,
// n=4): [2.75, 5.5, 8.25] for 1..10 and [0.75, 1.5, 2.25] for [1, 2].
func TestPyQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		if q1, q3 := pyQuartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles of %v = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
