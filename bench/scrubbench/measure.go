package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recorder collects what a window's operations completed, from concurrent
// clients: latency samples, and a running count of work items, both
// stamped with the time they completed.
type recorder struct {
	mu    sync.Mutex
	lat   []stamped
	done  []stamped // running total of items completed
	total float64
}

type stamped struct {
	at time.Time
	v  float64
}

// op records one operation completed now: its latency and the items it
// completed.
func (r *recorder) op(d time.Duration, items float64) {
	r.mu.Lock()
	now := time.Now() // under the lock, so done stays in time order
	r.lat = append(r.lat, stamped{now, ms(d)})
	r.total += items
	r.done = append(r.done, stamped{now, r.total})
	r.mu.Unlock()
}

// sample records a latency stamped with when the operation was issued,
// for open-loop operations that may finish after the window closes.
func (r *recorder) sample(issued time.Time, d time.Duration) {
	r.mu.Lock()
	r.lat = append(r.lat, stamped{issued, ms(d)})
	r.mu.Unlock()
}

// progress records the running total of items completed so far, for
// workloads whose work is not made of the timed operations.
func (r *recorder) progress(total float64) {
	r.mu.Lock()
	r.total = total
	r.done = append(r.done, stamped{time.Now(), total})
	r.mu.Unlock()
}

// items returns the running total of items completed.
func (r *recorder) items() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// values returns every latency sample in ms.
func (r *recorder) values() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, len(r.lat))
	for i, s := range r.lat {
		out[i] = s.v
	}
	return out
}

// subWindows is how many equal parts of the window the end-to-end
// metrics are computed over; each is reported as the median over parts,
// so a burst of interference in one part moves it little.
const subWindows = 4

// e2e returns the medians over sub-windows of [start, start+window) of
// the latency p50 and p95 and of the throughput in items per second.
func (r *recorder) e2e(start time.Time, window time.Duration) (p50, p95, perSec float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	doneAt := func(t time.Time) float64 {
		i, _ := slices.BinarySearchFunc(r.done, t, func(s stamped, t time.Time) int { return s.at.Compare(t) })
		if i == 0 {
			return 0
		}
		return r.done[i-1].v
	}
	part := window / subWindows
	var p50s, p95s, rates []float64
	for k := range subWindows {
		a := start.Add(time.Duration(k) * part)
		b := a.Add(part)
		if k == subWindows-1 {
			b = start.Add(window).Add(time.Nanosecond)
		}
		var xs []float64
		for _, s := range r.lat {
			if !s.at.Before(a) && s.at.Before(b) {
				xs = append(xs, s.v)
			}
		}
		if len(xs) > 0 {
			p50s = append(p50s, quantile(xs, 0.5))
			p95s = append(p95s, quantile(xs, 0.95))
		}
		rates = append(rates, (doneAt(b)-doneAt(a))/part.Seconds())
	}
	return quantile(p50s, 0.5), quantile(p95s, 0.5), quantile(rates, 0.5)
}

// closedLoop runs op on `clients` goroutines, each issuing its next
// operation only after the previous one returned, until the deadline
// passes or ctx ends. seq numbers operations across clients in issue order.
// It returns how many operations were attempted and how many failed, and
// the first error seen.
func closedLoop(ctx context.Context, clients int, deadline time.Time, op func(client int, seq int64) error) (attempted, failed int64, firstErr error) {
	var (
		next, nFail atomic.Int64
		errOnce     sync.Once
		wg          sync.WaitGroup
	)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				seq := next.Add(1) - 1
				if err := op(c, seq); err != nil {
					nFail.Add(1)
					errOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
	wg.Wait()
	return next.Load(), nFail.Load(), firstErr
}

// setupRepeated builds a fixture reps times and records each build's
// duration; every fixture but the last is torn down. Reporting the
// median build keeps one-off process warm-up (page faults, shared sampler
// tables) out of setup_s while any work a change moves into set-up still
// shows.
func setupRepeated[F any](reps int, build func() (F, error), teardown func(F)) (F, []float64, error) {
	var (
		fx    F
		times []float64
	)
	for i := range reps {
		start := time.Now()
		f, err := build()
		if err != nil {
			return fx, nil, fmt.Errorf("setup %d: %w", i+1, err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			teardown(f)
			continue
		}
		fx = f
	}
	return fx, times, nil
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

var probeSink float64

// hostProbeMS times a fixed loop of math.Log and math.Exp, the calls the
// engine's samplers and Spec.Normalized spend their time in, and returns
// the median of five runs in ms. The host the benchmark was built on runs
// such code up to 1.5x slower for minutes at a time while its neighbours
// are busy; comparing this number across runs tells a slow host from a
// regression.
func hostProbeMS() float64 {
	var times []float64
	x := 0.0
	for range 5 {
		start := time.Now()
		for i := range 200000 {
			x += math.Log(float64(i)+1.5) + math.Exp(-float64(i%50))
		}
		times = append(times, ms(time.Since(start)))
	}
	probeSink = x
	return quantile(times, 0.5)
}

// span is one timed interval at a benchmark-owned layer boundary. Spans of
// one request share Req; Parent names the span that caused this one
// (0 for a request's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary. Spans are kept
// only while the tracer is on, that is inside the measured window: set-up
// traffic and post-window checks stay out of the per-layer numbers.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span ID before the span's end is known, so children
// can name their parent while it is still open.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span under a reserved ID (0 reserves one).
func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// durations returns the durations in ms of every span with the name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.all() {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns, per span with the name, its duration minus the part
// covered by its direct children, in ms.
func (t *tracer) selfTimes(name string) []float64 {
	spans := t.all()
	child := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] = append(child[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		covered := int64(0)
		for _, c := range child[s.ID] {
			covered += max(0, min(c.End, s.End)-max(c.Start, s.Start))
		}
		out = append(out, float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.all()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanCostNS measures what recording one span costs, for the tracing
// overhead estimate.
func spanCostNS() float64 {
	const n = 20000
	t := newTracer()
	t.on.Store(true)
	start := time.Now()
	for i := range n {
		t.add(0, 0, int64(i), "cost", time.Now(), time.Now())
	}
	return float64(time.Since(start)) / n
}
