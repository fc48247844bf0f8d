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
// numbers. Codec benchmark pairs (a sub-benchmark plus its ".../ref"
// scalar sibling, see internal/ecc and internal/ondie) are additionally
// folded into a "codecs" comparison block carrying the kernel-vs-reference
// speedup ratio per codec. A second mode,
//
//	go run ./cmd/benchjson -gate BENCH_engine.json
//
// re-reads a committed baseline and fails unless every gated codec holds
// its ratio floor (BCH line decode >= -min-bch, SECDED line decode >=
// -min-secded); CI runs it after `make bench`. Ratios are gated rather
// than wall-clock numbers because both sides of a pair run on the same
// box in the same process, so machine noise largely cancels.
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
	// Raw is the untouched benchmark line, kept benchstat-compatible.
	Raw string `json:"raw"`
}

// CodecComparison relates one codec's kernel benchmark to its ".../ref"
// scalar sibling. Speedup is ref_ns/kernel_ns, the ratio CI gates.
type CodecComparison struct {
	// Name is the pair's shared stem without the "Benchmark" prefix,
	// e.g. "BCHDecode/t=4" or "SECDEDLineDecode/line".
	Name     string  `json:"name"`
	Kernel   string  `json:"kernel"`
	Ref      string  `json:"ref"`
	KernelNs float64 `json:"kernel_ns_per_op"`
	RefNs    float64 `json:"ref_ns_per_op"`
	Speedup  float64 `json:"speedup"`
}

// Report is the document benchjson emits.
type Report struct {
	GoOS       string            `json:"goos,omitempty"`
	GoArch     string            `json:"goarch,omitempty"`
	Package    string            `json:"pkg,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks"`
	Codecs     []CodecComparison `json:"codecs,omitempty"`
}

func main() {
	gateFile := flag.String("gate", "", "gate mode: read this BENCH json file and fail if any codec speedup is below its floor")
	minBCH := flag.Float64("min-bch", 5, "minimum BCHDecode kernel speedup in gate mode")
	minSECDED := flag.Float64("min-secded", 3, "minimum SECDEDLineDecode kernel speedup in gate mode")
	flag.Parse()
	if *gateFile != "" {
		if err := gate(*gateFile, *minBCH, *minSECDED); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in *os.File, out *os.File) error {
	rep, err := parse(in)
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (run with `go test -bench . -benchmem`)")
	}
	rep.Codecs = codecComparisons(rep.Benchmarks)
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// gate re-reads an emitted report and enforces the codec speedup floors:
// every BCHDecode pair must hold minBCH and every SECDEDLineDecode pair
// minSECDED (other pairs, like OnDieDecode, are informational). Both
// families must be present — an empty block must fail, not pass.
func gate(path string, minBCH, minSECDED float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var gatedBCH, gatedSECDED int
	var failed []string
	for _, c := range rep.Codecs {
		floor := 0.0
		switch {
		case strings.HasPrefix(c.Name, "BCHDecode"):
			floor = minBCH
			gatedBCH++
		case strings.HasPrefix(c.Name, "SECDEDLineDecode"):
			floor = minSECDED
			gatedSECDED++
		}
		status := "info"
		if floor > 0 {
			status = fmt.Sprintf("floor %.1fx", floor)
			if c.Speedup < floor {
				status += " FAIL"
				failed = append(failed, c.Name)
			}
		}
		fmt.Printf("%-28s kernel %10.1f ns/op  ref %10.1f ns/op  speedup %5.2fx  [%s]\n",
			c.Name, c.KernelNs, c.RefNs, c.Speedup, status)
	}
	if gatedBCH == 0 || gatedSECDED == 0 {
		return fmt.Errorf("%s: codecs block missing gated entries (BCHDecode: %d, SECDEDLineDecode: %d)", path, gatedBCH, gatedSECDED)
	}
	if len(failed) > 0 {
		return fmt.Errorf("codec speedup below floor: %s", strings.Join(failed, ", "))
	}
	return nil
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

// codecComparisons pairs every ".../ref" benchmark with its kernel
// sibling (the same name without the suffix).
func codecComparisons(bs []Benchmark) []CodecComparison {
	byName := make(map[string]*Benchmark, len(bs))
	for i := range bs {
		byName[stripCPUSuffix(bs[i].Name)] = &bs[i]
	}
	var out []CodecComparison
	for i := range bs {
		name := stripCPUSuffix(bs[i].Name)
		base, ok := strings.CutSuffix(name, "/ref")
		if !ok {
			continue
		}
		fast := byName[base]
		if fast == nil || fast.NsPerOp <= 0 || bs[i].NsPerOp <= 0 {
			continue
		}
		out = append(out, CodecComparison{
			Name:     strings.TrimPrefix(base, "Benchmark"),
			Kernel:   fast.Name,
			Ref:      bs[i].Name,
			KernelNs: fast.NsPerOp,
			RefNs:    bs[i].NsPerOp,
			Speedup:  bs[i].NsPerOp / fast.NsPerOp,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// parse scans go test output, keeping header metadata and every
// "Benchmark..." result line. Unrecognised lines (PASS, ok, test logs)
// are ignored so the tool can sit directly on a `go test` pipe.
func parse(in *os.File) (*Report, error) {
	rep := &Report{}
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
			if ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	return rep, sc.Err()
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
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		}
	}
	return b, true
}
