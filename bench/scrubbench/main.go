// Command scrubbench is the repository's end-to-end benchmark. It drives
// the scrub simulator's layers from outside, through their public APIs,
// on six workloads: library campaigns (core, engine), a journaled scrubd
// (service, journal) under fresh and cached traffic, a coordinator with
// two workers (cluster), and a patrolling device fleet (fleet).
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace] [-repeat N]
//
// Each workload run happens in a fresh child process. A run sets its
// fixture up several times (setup_s is the median), measures for -seconds,
// checks that the outputs are correct, and prints every metric by name and
// unit. Untraced runs report the end-to-end metrics; -trace runs record
// spans at the benchmark's own layer boundaries, replay the engine's hot
// public calls, and report the per-layer metrics instead. The last line of
// standard output is one JSON object; reports, span files and CPU
// profiles go to -out.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scrubbench:", err)
	}
	os.Exit(code)
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	repeat   int
	out      string
	child    bool
}

// normalizeArgs rewrites "-trace 0" / "--trace 1" into the "-trace=0"
// form the flag package needs for a boolean flag with a separate value.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("scrubbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed generates the same specs, replicas and devices")
	fs.IntVar(&o.seconds, "seconds", 12, "measured window per run, in seconds")
	fs.BoolVar(&o.trace, "trace", false, "record spans and report per-layer metrics instead of end-to-end ones")
	fs.IntVar(&o.repeat, "repeat", 1, "run each workload this many times in fresh processes and report the spread")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for reports, span files and profiles")
	fs.BoolVar(&o.child, "child", false, "run one workload in this process (used by the parent)")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	if o.repeat < 1 {
		return o, fmt.Errorf("-repeat must be at least 1, got %d", o.repeat)
	}
	if o.workload != "" {
		if _, ok := workloadByName(o.workload); !ok {
			return o, fmt.Errorf("unknown workload %q", o.workload)
		}
	}
	return o, nil
}

func run(args []string, stdout io.Writer) (int, error) {
	o, err := parseFlags(args)
	if err != nil {
		return 2, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return 1, err
	}
	if o.child {
		return runChild(o, stdout)
	}
	return runParent(o, stdout)
}

// env is what a workload receives: its inputs' seed, how long to measure,
// and where tracing goes.
type env struct {
	seed   uint64
	window time.Duration
	tr     *tracer // nil on untraced runs
	dir    string  // scratch directory (journals), removed after the run
	out    string
	name   string
	// small shrinks pools and set-up to smoke-test scale.
	small bool
}

// setupReps is how many times a workload builds its fixture; setup_s is
// the median build.
func (e *env) setupReps() int {
	if e.small {
		return 1
	}
	return 5
}

// outcome is what a workload measured.
type outcome struct {
	setup     []float64 // seconds, one per setup repetition
	rec       recorder  // the window's latencies and completed items
	start     time.Time
	window    time.Duration
	attempted int64
	failed    int64
	checks    []check
	cpu       time.Duration      // process CPU time inside the window
	layers    map[string]float64 // traced runs only
	info      map[string]any
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) layer(name string, v float64) {
	if o.layers == nil {
		o.layers = map[string]float64{}
	}
	o.layers[name] = v
}

func (o *outcome) note(name string, v any) {
	if o.info == nil {
		o.info = map[string]any{}
	}
	o.info[name] = v
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// window brackets a workload's measured interval.
type window struct {
	e     *env
	start time.Time
	cpu0  time.Duration
	mem0  runtime.MemStats
	prof  *os.File
}

// begin starts the measured interval (and, when traced, the CPU profile).
func (e *env) begin() (*window, error) {
	w := &window{e: e}
	if e.tr != nil {
		runtime.ReadMemStats(&w.mem0)
		f, err := os.Create(filepath.Join(e.out, e.name+".cpu.pprof"))
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		w.prof = f
		e.tr.on.Store(true)
	}
	w.cpu0 = cpuTime()
	w.start = time.Now()
	return w, nil
}

// deadline is when closed loops stop issuing operations.
func (w *window) deadline() time.Time { return w.start.Add(w.e.window) }

// finish closes the interval and records its length, its CPU time and
// the process-level layer metrics.
func (w *window) finish(o *outcome) error {
	o.start = w.start
	o.window = time.Since(w.start)
	o.cpu = cpuTime() - w.cpu0
	if w.prof == nil {
		return nil
	}
	w.e.tr.on.Store(false)
	pprof.StopCPUProfile()
	if err := w.prof.Close(); err != nil {
		return err
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	secs := o.window.Seconds()
	o.layer("runtime.alloc_mb_per_s", float64(m.TotalAlloc-w.mem0.TotalAlloc)/(1<<20)/secs)
	o.layer("runtime.gc_cycles", float64(m.NumGC-w.mem0.NumGC))
	o.layer("runtime.cpu_util", o.cpu.Seconds()/(secs*float64(runtime.GOMAXPROCS(0))))
	return nil
}

// report is one workload run's result, passed from child to parent as
// JSON.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Samples   int                `json:"samples"`
	WindowS   float64            `json:"window_s"`
	Metrics   map[string]float64 `json:"metrics"`
	Checks    []check            `json:"checks"`
	Info      map[string]any     `json:"info,omitempty"`
}

func runChild(o options, stdout io.Writer) (int, error) {
	w, _ := workloadByName(o.workload)
	if w.Run == nil {
		return 2, errors.New("-child needs -workload")
	}
	dir, err := os.MkdirTemp(o.out, "work-"+w.Name+"-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: o.seed, window: time.Duration(o.seconds) * time.Second, dir: dir, out: o.out, name: w.Name}
	if o.trace {
		e.tr = newTracer()
	}
	rep, err := measure(w, e)
	if err != nil {
		return 1, fmt.Errorf("%s: %w", w.Name, err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0, nil
}

// measure runs one workload and turns its outcome into a report.
func measure(w workloadDef, e *env) (*report, error) {
	probe := hostProbeMS()
	o, err := w.Run(e)
	if err != nil {
		return nil, err
	}
	o.note("host.fp_probe_ms", probe)
	samples := len(o.rec.values())
	if samples == 0 || o.window <= 0 {
		return nil, errors.New("no operation completed in the window")
	}
	rep := &report{
		Workload: w.Name, Seed: e.seed, Trace: e.tr != nil, Correct: true,
		Attempted: o.attempted, Failed: o.failed, Samples: samples,
		WindowS: o.window.Seconds(), Metrics: map[string]float64{},
		Checks: o.checks, Info: o.info,
	}
	for _, c := range o.checks {
		rep.Correct = rep.Correct && c.OK
	}
	if e.tr == nil {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		p50, p95, perSec := o.rec.e2e(o.start, o.window)
		rep.Metrics["setup_s"] = quantile(o.setup, 0.5)
		rep.Metrics["latency_ms_p50"] = p50
		rep.Metrics["latency_ms_p95"] = p95
		rep.Metrics["throughput_per_s"] = perSec
		rep.Metrics["peak_rss_mb"] = rss
		return rep, nil
	}
	spans := e.tr.all()
	o.layer("trace.spans", float64(len(spans)))
	if o.cpu > 0 {
		o.layer("trace.overhead_pct", 100*float64(len(spans))*spanCostNS()/float64(o.cpu))
	}
	if err := e.tr.write(filepath.Join(e.out, w.Name+".trace.json")); err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, m := range layerMetrics {
		known[m.Name] = true
		rep.Metrics[m.Name] = 0
	}
	for name, v := range o.layers {
		if !known[name] {
			return nil, fmt.Errorf("layer metric %q is not in the catalog", name)
		}
		rep.Metrics[name] = v
	}
	return rep, nil
}

func runParent(o options, stdout io.Writer) (int, error) {
	var names []string
	for _, w := range workloads {
		if o.workload == "" || o.workload == w.Name {
			names = append(names, w.Name)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return 1, err
	}
	var (
		reports []*report
		failed  []string
	)
	for _, name := range names {
		for i := range o.repeat {
			rep, err := spawn(exe, o, name)
			if err != nil {
				failed = append(failed, fmt.Sprintf("%s run %d: %v", name, i+1, err))
				continue
			}
			printReport(os.Stderr, rep)
			reports = append(reports, rep)
		}
	}
	if o.repeat > 1 {
		printSpread(stdout, reports, o.trace)
	}
	if err := writeJSON(filepath.Join(o.out, "report.json"), reports); err != nil {
		return 1, err
	}
	for _, f := range failed {
		fmt.Fprintln(os.Stderr, "scrubbench:", f)
	}
	if len(failed) > 0 {
		// No result line: a run that did not finish has nothing to report.
		return 1, fmt.Errorf("%d run(s) failed", len(failed))
	}
	line, correct := resultLine(reports, o.trace)
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1, errors.New("a correctness check failed")
	}
	return 0, nil
}

// spawn runs one workload in a fresh child process and decodes its report
// from the child's last line of output.
func spawn(exe string, o options, name string) (*report, error) {
	budget := time.Duration(o.seconds)*time.Second + 150*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace=" + strconv.FormatBool(o.trace), "-out", o.out}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("decode child report: %w", err)
	}
	return &rep, nil
}

func catalogFor(trace bool) []metricDef {
	if trace {
		return layerMetrics
	}
	return e2eMetrics
}

// resultLine renders the final JSON line. For one run of one workload it
// carries the metrics by name; otherwise each metric is the median over
// runs, keyed "<workload>/<metric>".
func resultLine(reports []*report, trace bool) ([]byte, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range reports {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	groups := byWorkload(reports)
	for _, runs := range groups {
		for _, m := range catalogFor(trace) {
			key := m.Name
			if len(groups) > 1 || len(runs) > 1 {
				key = runs[0].Workload + "/" + m.Name
			}
			out.Metrics[key] = value{Value: quantile(metricValues(runs, m.Name), 0.5), Unit: m.Unit}
		}
	}
	data, _ := json.Marshal(out) // only numbers, strings and bools
	return data, out.Correct
}

// byWorkload groups reports by workload, in the order workloads first
// appear.
func byWorkload(reports []*report) [][]*report {
	var groups [][]*report
	index := map[string]int{}
	for _, r := range reports {
		i, ok := index[r.Workload]
		if !ok {
			i = len(groups)
			index[r.Workload] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], r)
	}
	return groups
}

func metricValues(runs []*report, name string) []float64 {
	vs := make([]float64, 0, len(runs))
	for _, r := range runs {
		vs = append(vs, r.Metrics[name])
	}
	return vs
}

func printReport(w io.Writer, r *report) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d): %d attempted, %d failed, %d latency samples over %.1f s\n",
		r.Workload, mode, r.Seed, r.Attempted, r.Failed, r.Samples, r.WindowS)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, m := range catalogFor(r.Trace) {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", m.Name, r.Metrics[m.Name], m.Unit)
	}
	tw.Flush()
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s = %v\n", k, r.Info[k])
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %-28s %-4s %s\n", c.Name, status, c.Detail)
	}
}

// pyQuartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads printed here match the acceptance arithmetic.
func pyQuartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// printSpread prints, per workload and metric, the median, the IQR as a
// share of the median, and the largest relative spread (max-min)/median.
// The host probe's row shows how far the host's own speed moved across
// the runs.
func printSpread(w io.Writer, reports []*report, trace bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\truns\tmedian\tunit\tiqr/median\tmax spread/median\tbound")
	row := func(workload, metric, unit string, vs []float64, bound float64) {
		med := quantile(vs, 0.5)
		q1, q3 := pyQuartiles(vs)
		iqr, spread := 0.0, 0.0
		if med != 0 {
			iqr = (q3 - q1) / med
			spread = (slices.Max(vs) - slices.Min(vs)) / med
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%s\t%.3f\t%.3f\t%g\n", workload, metric, len(vs), med, unit, iqr, spread, bound)
	}
	for _, runs := range byWorkload(reports) {
		name := runs[0].Workload
		for _, m := range catalogFor(trace) {
			row(name, m.Name, m.Unit, metricValues(runs, m.Name), m.Bound)
		}
		var probes []float64
		for _, r := range runs {
			if v, ok := r.Info["host.fp_probe_ms"].(float64); ok {
				probes = append(probes, v)
			}
		}
		row(name, "host.fp_probe_ms", "ms", probes, 0)
	}
	tw.Flush()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
