// Command benchab compares the end-to-end benchmark (bench/run.sh) at an
// earlier commit with the working tree, in alternated pairs of runs.
//
// Usage, from the repository root:
//
//	go run ./cmd/benchab -rev <commit> -workload W [-n 10] [-seed N]
//
// It exports the commit with `git archive` into a temporary directory,
// removed afterwards, and runs `bash bench/run.sh -workload W` n times in
// each tree, alternately, flipping which tree goes first in every pair
// so host drift falls on both alike. For every end-to-end metric that
// BENCHMARK.json declares, it prints each tree's median and quartiles,
// the change of the medians, and in how many pairs the working tree did
// better, followed by every run's value.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"text/tabwriter"

	"repro/internal/stats"
)

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runResult is the JSON line bench/run.sh ends its output with.
type runResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	rev := flag.String("rev", "", "commit to compare the working tree against (required)")
	workload := flag.String("workload", "", "bench/run.sh workload to run (required)")
	n := flag.Int("n", 10, "alternated pairs of runs")
	seed := flag.Int("seed", 1, "bench/run.sh -seed")
	flag.Parse()
	if *rev == "" || *workload == "" || *n < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchab -rev <commit> -workload W [-n 10] [-seed N]")
		os.Exit(2)
	}
	if err := run(*rev, *workload, *n, *seed, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func run(rev, workload string, n, seed int, out io.Writer) error {
	specs, err := readMetrics("BENCHMARK.json")
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "benchab")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := export(rev, dir); err != nil {
		return err
	}
	trees := [2]string{dir, "."}
	var runs [2][]runResult
	for i := 0; i < n; i++ {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, k := range order {
			r, err := benchRun(trees[k], workload, seed)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", i+1, [2]string{rev, "working tree"}[k], err)
			}
			runs[k] = append(runs[k], r)
		}
		fmt.Fprintf(os.Stderr, "benchab: pair %d of %d done\n", i+1, n)
	}
	fmt.Fprintf(out, "%s: %s vs working tree, %d alternated pairs, seed %d\n", workload, rev, n, seed)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tbefore median [q1, q3]\tafter median [q1, q3]\tchange\tbefore IQR\twins")
	var raw strings.Builder
	for _, m := range specs {
		before, after := values(runs[0], m.Name), values(runs[1], m.Name)
		if len(before) != n || len(after) != n {
			continue
		}
		s := summarize(before, after, m.Better)
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%.4g\t%d/%d\n",
			m.Name, m.Unit, s.before[1], s.before[0], s.before[2], s.after[1], s.after[0], s.after[2],
			100*(s.after[1]/s.before[1]-1), s.before[2]-s.before[0], s.wins, n)
		fmt.Fprintf(&raw, "%s before %v\n%s after  %v\n", m.Name, before, m.Name, after)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err = io.WriteString(out, raw.String())
	return err
}

// readMetrics returns the end-to-end metrics a BENCHMARK.json declares.
func readMetrics(path string) ([]metricSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, nil
}

// export writes the tree of commit rev into dir.
func export(rev, dir string) error {
	archive := exec.Command("git", "archive", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	return untar.Wait()
}

// benchRun runs bench/run.sh once in tree and parses its result line.
func benchRun(tree, workload string, seed int) (runResult, error) {
	cmd := exec.Command("bash", "bench/run.sh", "-workload", workload, "-seed", fmt.Sprint(seed))
	cmd.Dir = tree
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return runResult{}, fmt.Errorf("bench/run.sh: %w\n%s", err, stderr.String())
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var r runResult
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return runResult{}, fmt.Errorf("bench/run.sh result line: %w", err)
	}
	if !r.Correct {
		return runResult{}, errors.New("bench/run.sh reported a failed correctness gate")
	}
	return r, nil
}

// values lists metric name's value in every run that reports it.
func values(runs []runResult, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// summary holds each side's quartiles (q1, median, q3) and the pairs in
// which the after side did better.
type summary struct {
	before, after [3]float64
	wins          int
}

// summarize compares alternated pairs before[k], after[k]; better is
// "higher" or "lower".
func summarize(before, after []float64, better string) summary {
	s := summary{before: quartiles(before), after: quartiles(after)}
	for k := range min(len(before), len(after)) {
		if (better == "higher" && after[k] > before[k]) || (better == "lower" && after[k] < before[k]) {
			s.wins++
		}
	}
	return s
}

// quartiles returns the lower quartile, median and upper quartile of xs.
func quartiles(xs []float64) [3]float64 {
	return [3]float64{stats.Quantile(xs, 0.25), stats.Quantile(xs, 0.5), stats.Quantile(xs, 0.75)}
}
