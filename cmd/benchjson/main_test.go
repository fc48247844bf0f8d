package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestParseLineCustomMetric(t *testing.T) {
	b, ok := parseLine("BenchmarkEngineRun-2   \t    2104\t   1277995 ns/op\t       812.0 crossings/op\t       256.0 weakest/op\t    3863 B/op\t       7 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if b.NsPerOp != 1277995 || b.BytesPerOp != 3863 || b.AllocsPerOp != 7 {
		t.Errorf("ns/B/allocs = %v/%d/%d, want 1277995/3863/7", b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
	}
	if got := b.Metrics["crossings/op"]; got != 812 {
		t.Errorf("crossings/op = %v, want 812", got)
	}
	if got := b.Metrics["weakest/op"]; got != 256 {
		t.Errorf("weakest/op = %v, want 256", got)
	}
	codec, _ := parseLine("BenchmarkBCHDecode/t=2-2  \t  582464\t  4279 ns/op\t  14.96 MB/s\t  176 B/op\t  9 allocs/op")
	if codec.Metrics != nil {
		t.Errorf("MB/s kept as a custom metric: %v", codec.Metrics)
	}
}

func TestParseKeepsMedianRun(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "bench")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `pkg: repro/internal/stats
BenchmarkExponential-2   100   9 ns/op
BenchmarkOther-2   100   5 ns/op
BenchmarkExponential-2   100   7 ns/op
BenchmarkExponential-2   100   8 ns/op
`)
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 || rep.Benchmarks[0].Name != "BenchmarkExponential-2" {
		t.Fatalf("benchmarks = %+v, want Exponential then Other", rep.Benchmarks)
	}
	if b := rep.Benchmarks[0]; b.NsPerOp != 8 || b.Runs != 3 {
		t.Errorf("Exponential = %v ns/op over %d runs, want the median 8 over 3", b.NsPerOp, b.Runs)
	}
	if b := rep.Benchmarks[1]; b.NsPerOp != 5 || b.Runs != 1 {
		t.Errorf("Other = %v ns/op over %d runs, want 5 over 1", b.NsPerOp, b.Runs)
	}
}

// parseString parses go test output held in a string.
func parseString(t *testing.T, text string) *Report {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "bench")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, text)
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := parse(f)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestChangesAndReconcile(t *testing.T) {
	// Five alternated pairs: the after build wins pairs 1, 2, 4 and 5.
	before := parseString(t, `BenchmarkEngineRun-2 1 1200 ns/op
BenchmarkExponential-4 1 24 ns/op
BenchmarkGone-2 1 5 ns/op
BenchmarkEngineRun-2 1 1100 ns/op
BenchmarkExponential-4 1 20 ns/op
BenchmarkEngineRun-2 1 900 ns/op
BenchmarkEngineRun-2 1 1300 ns/op
BenchmarkEngineRun-2 1 1000 ns/op
`)
	after := parseString(t, `BenchmarkEngineRun-2 1 1000 ns/op
BenchmarkExponential-2 1 12 ns/op
BenchmarkEngineRun-2 1 1050 ns/op
BenchmarkExponential-2 1 30 ns/op
BenchmarkEngineRun-2 1 950 ns/op
BenchmarkEngineRun-2 1 800 ns/op
BenchmarkEngineRun-2 1 700 ns/op
`)
	cs := changes(before, after)
	if len(cs) != 2 || cs[0].Name != "BenchmarkEngineRun" || cs[1].Name != "BenchmarkExponential" {
		t.Fatalf("changes = %+v, want EngineRun then Exponential", cs)
	}
	want := Change{Name: "BenchmarkEngineRun", Pairs: 5, BeforeNs: 1100, BeforeIQR: 200,
		AfterNs: 950, AfterIQR: 200, Speedup: 1100.0 / 950, Wins: 4}
	if cs[0] != want {
		t.Errorf("EngineRun change = %+v, want %+v", cs[0], want)
	}
	if c := cs[1]; c.Pairs != 2 || c.Wins != 1 || c.BeforeNs != 22 || c.AfterNs != 21 || c.BeforeIQR != 2 || c.AfterIQR != 9 {
		t.Errorf("Exponential change = %+v, want 2 pairs, 1 win, 22 -> 21, IQR 2 and 9", c)
	}
}

func TestReconcileCountsEachDrawOnce(t *testing.T) {
	bs := []Benchmark{
		{Name: "BenchmarkEngineRun-2", NsPerOp: 1000, Metrics: map[string]float64{
			"crossings/op": 2, "weakest/op": 4, "lines/op": 4, "visits/op": 10}},
		{Name: "BenchmarkEngineCrossings-2", NsPerOp: 100},
		{Name: "BenchmarkSampleWeakest-2", NsPerOp: 50},
		// 8 lines: 8 crossing samples and 8 endurance draws (1200 ns) of
		// 1600 ns leave 50 ns of other set-up per line.
		{Name: "BenchmarkNewState-2", NsPerOp: 1600, Metrics: map[string]float64{
			"lines/op": 8, "crossings/op": 8, "weakest/op": 8}},
		// A visit costs 12 ns, 2 of them its line writes' crossing samples.
		{Name: "BenchmarkSweep-2", NsPerOp: 1234, Metrics: map[string]float64{
			"ns/visit": 12, "crossings/visit": 0.02}},
	}
	rec := reconcile(bs)
	crossings := []string{"BenchmarkEngineCrossings"}
	want := []ReconcileLine{
		{Layer: "crossings", Benchmark: "BenchmarkEngineCrossings", Calls: 2, NsPerCall: 100, Ns: 200, Share: 0.2},
		{Layer: "weakest", Benchmark: "BenchmarkSampleWeakest", Calls: 4, NsPerCall: 50, Ns: 200, Share: 0.2},
		{Layer: "setup", Benchmark: "BenchmarkNewState", NetOf: []string{"BenchmarkEngineCrossings", "BenchmarkSampleWeakest"},
			Calls: 4, NsPerCall: 50, Ns: 200, Share: 0.2},
		{Layer: "visits", Benchmark: "BenchmarkSweep", NetOf: crossings, Calls: 10, NsPerCall: 10, Ns: 100, Share: 0.1},
	}
	if rec == nil || !reflect.DeepEqual(rec.Layers, want) || rec.EngineNs != 1000 || math.Abs(rec.Share-0.7) > 1e-12 {
		t.Errorf("reconcile = %+v, want %+v, share 0.7", rec, want)
	}
	// A layer whose benchmark, or a draw it nets out, is missing is left
	// out: without BenchmarkSampleWeakest the set-up line goes too.
	rec = reconcile([]Benchmark{bs[0], bs[1], bs[3], bs[4]})
	if rec == nil || len(rec.Layers) != 2 || rec.Layers[0].Layer != "crossings" || rec.Layers[1].Layer != "visits" {
		t.Errorf("reconcile without SampleWeakest = %+v, want the crossing and visit lines", rec)
	}
	if reconcile(bs[1:]) != nil {
		t.Error("reconcile without BenchmarkEngineRun should be nil")
	}
}
