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

func TestChangesAndReconcile(t *testing.T) {
	before := []Benchmark{
		{Name: "BenchmarkEngineRun-2", NsPerOp: 1200},
		{Name: "BenchmarkExponential-4", NsPerOp: 24},
		{Name: "BenchmarkGone-2", NsPerOp: 5},
	}
	after := []Benchmark{
		{Name: "BenchmarkEngineRun-2", NsPerOp: 1000, Metrics: map[string]float64{"crossings/op": 2, "weakest/op": 4}},
		{Name: "BenchmarkEngineCrossings-2", NsPerOp: 250},
		{Name: "BenchmarkSampleWeakest-2", NsPerOp: 50},
		{Name: "BenchmarkExponential-2", NsPerOp: 12},
	}
	cs := changes(before, after)
	if len(cs) != 2 || cs[0].Name != "BenchmarkEngineRun" || cs[1].Name != "BenchmarkExponential" {
		t.Fatalf("changes = %+v, want EngineRun then Exponential", cs)
	}
	if cs[1].BeforeNs != 24 || cs[1].AfterNs != 12 || cs[1].Speedup != 2 {
		t.Errorf("Exponential change = %+v, want 24 -> 12, speedup 2", cs[1])
	}
	rec := reconcile(after)
	want := []ReconcileLine{
		{Layer: "crossings", Benchmark: "BenchmarkEngineCrossings", Calls: 2, NsPerCall: 250, Ns: 500, Share: 0.5},
		{Layer: "weakest", Benchmark: "BenchmarkSampleWeakest", Calls: 4, NsPerCall: 50, Ns: 200, Share: 0.2},
	}
	if rec == nil || !reflect.DeepEqual(rec.Layers, want) || rec.EngineNs != 1000 || math.Abs(rec.Share-0.7) > 1e-12 {
		t.Errorf("reconcile = %+v, want crossings 500 ns and weakest 200 ns of 1000, share 0.7", rec)
	}
	// A layer whose per-call benchmark is missing is left out.
	rec = reconcile(after[:2])
	if rec == nil || len(rec.Layers) != 1 || rec.Layers[0].Layer != "crossings" || rec.Share != 0.5 {
		t.Errorf("reconcile without SampleWeakest = %+v, want the crossing line alone", rec)
	}
	if reconcile(before) != nil {
		t.Error("reconcile without any layer metric should be nil")
	}
}
