// Command benchjson converts `go test -bench -benchmem` text output on
// stdin into a small machine-readable JSON document on stdout, so perf
// baselines can be committed and diffed (see `make bench`, which writes
// BENCH_engine.json).
//
// Usage:
//
//	go test -bench . -benchmem ./internal/engine | benchjson > BENCH_engine.json
//
// The output keeps the benchstat-friendly raw lines alongside the parsed
// numbers.
//
// With -ab OLD.txt (the `go test -bench` output of an earlier build,
// run alternately with the output on stdin, as `make bench-ab` does),
// the output also carries a "changes" block: per shared benchmark, the
// median and interquartile range of each build's ns/op and how many of
// the alternated pairs the stdin build won. When the run holds
// BenchmarkEngineRun, a "reconcile" block sets each layer it counts
// against the benchmark that times the layer, as a share of an engine
// run: crossing samples, endurance draws, the rest of a run's set-up and
// the patrol visits.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	// Name is the benchmark name with the -cpu suffix retained
	// (e.g. "BenchmarkEngineRun-8").
	Name string `json:"name"`
	// Iterations is the b.N the line reports.
	Iterations int64 `json:"iterations"`
	// NsPerOp, BytesPerOp and AllocsPerOp are the standard -benchmem
	// triple. BytesPerOp/AllocsPerOp are -1 when -benchmem was off.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metrics holds the line's custom b.ReportMetric values by unit,
	// e.g. BenchmarkEngineRun's "crossings/op".
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Runs is how many result lines the benchmark had (go test -count);
	// the fields above are those of its median-ns/op line.
	Runs int `json:"runs"`
	// Raw is the untouched benchmark line, kept benchstat-compatible.
	Raw string `json:"raw"`
}

// Change compares one benchmark across Pairs alternated runs of an
// earlier build (before) and this one (after): each side's median ns/op
// and interquartile range, Speedup = before median / after median, and
// Wins, the pairs in which this build was faster.
type Change struct {
	Name      string  `json:"name"`
	Pairs     int     `json:"pairs"`
	BeforeNs  float64 `json:"before_ns_per_op"`
	BeforeIQR float64 `json:"before_iqr_ns"`
	AfterNs   float64 `json:"after_ns_per_op"`
	AfterIQR  float64 `json:"after_iqr_ns"`
	Speedup   float64 `json:"speedup"`
	Wins      int     `json:"wins"`
}

// Reconciliation sets per-layer costs against an engine run. Share is
// the listed layers' total over EngineNs.
type Reconciliation struct {
	EngineNs float64         `json:"engine_ns_per_op"`
	Layers   []ReconcileLine `json:"layers"`
	Share    float64         `json:"share"`
}

// ReconcileLine is one layer of an engine run: Ns = Calls × NsPerCall,
// and Share = Ns/EngineNs. Calls is a BenchmarkEngineRun metric and
// NsPerCall comes from the benchmark that times the layer, net of the
// draws that benchmark makes which other layers already count (NetOf).
type ReconcileLine struct {
	Layer     string   `json:"layer"`
	Benchmark string   `json:"benchmark"`
	NetOf     []string `json:"net_of,omitempty"`
	Calls     float64  `json:"calls_per_op"`
	NsPerCall float64  `json:"ns_per_call"`
	Ns        float64  `json:"ns_per_op"`
	Share     float64  `json:"share"`
}

// layer describes one reconcile line. metric is the BenchmarkEngineRun
// metric counting the layer's calls, and bench the benchmark timing it in
// unit (ns/op, or a custom metric such as ns/visit). Each entry of net
// names a bench metric counting draws per unit that another layer's
// benchmark times; they are taken out at that benchmark's ns/op. per,
// when set, is the bench metric that divides the net cost into calls.
type layer struct {
	name, metric, bench, unit, per string
	net                            []draw
}

// draw is a count of calls per unit (a bench metric) and the benchmark
// that times one call.
type draw struct{ metric, bench string }

// reconcileLayers are the layers of BenchmarkEngineRun. Every crossing
// sample and endurance draw, the initial fill included, is counted once,
// in the first two layers: BenchmarkEngineCrossings uses the engine
// benchmark's own sampler and K, and BenchmarkSampleWeakest the default
// wear parameters, which every engine benchmark's spec uses too. The
// set-up layer is the rest of BenchmarkNewState per line, and the visit
// layer BenchmarkSweep's ns/visit net of its line writes' crossing
// samples.
var reconcileLayers = []layer{
	{name: "crossings", metric: "crossings/op", bench: "BenchmarkEngineCrossings", unit: "ns/op"},
	{name: "weakest", metric: "weakest/op", bench: "BenchmarkSampleWeakest", unit: "ns/op"},
	{name: "setup", metric: "lines/op", bench: "BenchmarkNewState", unit: "ns/op", per: "lines/op",
		net: []draw{{"crossings/op", "BenchmarkEngineCrossings"}, {"weakest/op", "BenchmarkSampleWeakest"}}},
	{name: "visits", metric: "visits/op", bench: "BenchmarkSweep", unit: "ns/visit",
		net: []draw{{"crossings/visit", "BenchmarkEngineCrossings"}}},
}

// Report is the document benchjson emits.
type Report struct {
	GoOS       string          `json:"goos,omitempty"`
	GoArch     string          `json:"goarch,omitempty"`
	Package    string          `json:"pkg,omitempty"`
	CPU        string          `json:"cpu,omitempty"`
	Benchmarks []Benchmark     `json:"benchmarks"`
	Changes    []Change        `json:"changes,omitempty"`
	Reconcile  *Reconciliation `json:"reconcile,omitempty"`

	// runs holds every result line per benchmark name, in input order.
	runs map[string][]Benchmark
}

func main() {
	before := flag.String("ab", "", "`go test -bench` output of an earlier build, run alternately with stdin's, to compare each shared benchmark against")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *before); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in *os.File, out *os.File, before string) error {
	rep, err := parse(in)
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (run with `go test -bench . -benchmem`)")
	}
	if before != "" {
		f, err := os.Open(before)
		if err != nil {
			return err
		}
		old, err := parse(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", before, err)
		}
		rep.Changes = changes(old, rep)
	}
	rep.Reconcile = reconcile(rep.Benchmarks)
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// changes compares every benchmark of this run with the same-named one
// of the earlier build, in this run's order. The k-th runs of the two
// builds form the k-th alternated pair; a benchmark missing from either
// side is left out.
func changes(before, after *Report) []Change {
	old := make(map[string][]Benchmark, len(before.runs))
	for name, runs := range before.runs {
		old[stripCPUSuffix(name)] = runs
	}
	var out []Change
	for _, b := range after.Benchmarks {
		name := stripCPUSuffix(b.Name)
		ob, nb := nsPerOp(old[name]), nsPerOp(after.runs[b.Name])
		pairs := min(len(ob), len(nb))
		if pairs == 0 {
			continue
		}
		ob, nb = ob[:pairs], nb[:pairs]
		c := Change{Name: name, Pairs: pairs}
		for k := 0; k < pairs; k++ {
			if nb[k] < ob[k] {
				c.Wins++
			}
		}
		c.BeforeNs, c.BeforeIQR = stats.Quantile(ob, 0.5), iqr(ob)
		c.AfterNs, c.AfterIQR = stats.Quantile(nb, 0.5), iqr(nb)
		c.Speedup = c.BeforeNs / c.AfterNs
		out = append(out, c)
	}
	return out
}

// nsPerOp lists the runs' ns/op in run order.
func nsPerOp(runs []Benchmark) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.NsPerOp
	}
	return out
}

// iqr is the distance between the quartiles of xs.
func iqr(xs []float64) float64 {
	return stats.Quantile(xs, 0.75) - stats.Quantile(xs, 0.25)
}

// reconcile sets each layer in reconcileLayers against
// BenchmarkEngineRun's ns/op, skipping layers whose metrics or
// benchmarks the run lacks. It returns nil when no layer is present.
func reconcile(bs []Benchmark) *Reconciliation {
	byName := make(map[string]*Benchmark, len(bs))
	for i := range bs {
		byName[stripCPUSuffix(bs[i].Name)] = &bs[i]
	}
	engine := byName["BenchmarkEngineRun"]
	if engine == nil || engine.NsPerOp <= 0 {
		return nil
	}
	rec := &Reconciliation{EngineNs: engine.NsPerOp}
	for _, l := range reconcileLayers {
		calls, ok := engine.Metrics[l.metric]
		per, ok2 := l.nsPerCall(byName)
		if !ok || !ok2 {
			continue
		}
		line := ReconcileLine{Layer: l.name, Benchmark: l.bench, Calls: calls, NsPerCall: per, Ns: calls * per}
		for _, d := range l.net {
			line.NetOf = append(line.NetOf, d.bench)
		}
		line.Share = line.Ns / engine.NsPerOp
		rec.Layers = append(rec.Layers, line)
		rec.Share += line.Share
	}
	if len(rec.Layers) == 0 {
		return nil
	}
	return rec
}

// nsPerCall is the layer's cost per call: its benchmark's cost per unit,
// less the draws other layers count, divided by the calls per unit. ok
// is false when a benchmark or metric it needs is missing.
func (l layer) nsPerCall(byName map[string]*Benchmark) (float64, bool) {
	b := byName[l.bench]
	if b == nil {
		return 0, false
	}
	ns := b.NsPerOp
	if l.unit != "ns/op" {
		var ok bool
		if ns, ok = b.Metrics[l.unit]; !ok {
			return 0, false
		}
	}
	for _, d := range l.net {
		n, found := b.Metrics[d.metric]
		per := byName[d.bench]
		if !found || per == nil {
			return 0, false
		}
		ns -= n * per.NsPerOp
	}
	if l.per != "" {
		n := b.Metrics[l.per]
		if n <= 0 {
			return 0, false
		}
		ns /= n
	}
	return ns, true
}

// stripCPUSuffix drops the trailing "-N" GOMAXPROCS marker go test
// appends to benchmark names.
func stripCPUSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// parse scans go test output, keeping header metadata and every
// "Benchmark..." result line. Unrecognised lines (PASS, ok, test logs)
// are ignored so the tool can sit directly on a `go test` pipe. A
// benchmark run several times is reported by its median-ns/op line.
func parse(in *os.File) (*Report, error) {
	rep := &Report{runs: map[string][]Benchmark{}}
	runs := rep.runs
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			// Multi-package runs (`go test -bench ... ./a ./b`) emit one
			// header per package; keep them all.
			p := strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			if rep.Package == "" {
				rep.Package = p
			} else if !strings.Contains(rep.Package, p) {
				rep.Package += ", " + p
			}
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if !ok {
				continue
			}
			if len(runs[b.Name]) == 0 {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
			runs[b.Name] = append(runs[b.Name], b)
		}
	}
	for i, b := range rep.Benchmarks {
		rep.Benchmarks[i] = median(append([]Benchmark(nil), runs[b.Name]...))
	}
	return rep, sc.Err()
}

// median returns the run with the median ns/op (the lower middle one
// for an even count), with Runs set to the number of runs.
func median(runs []Benchmark) Benchmark {
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].NsPerOp < runs[j].NsPerOp })
	b := runs[(len(runs)-1)/2]
	b.Runs = len(runs)
	return b
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8   612   1958339 ns/op   6238 B/op   41 allocs/op
//
// returning ok=false for lines that merely start with "Benchmark" (such
// as a benchmark's own log output).
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	ns, err := strconv.ParseFloat(f[2], 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: f[0], Iterations: iters, NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1, Raw: line}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch unit := f[i+1]; unit {
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		case "MB/s":
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}
