package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubResult fabricates a deterministic Result for a normalised spec.
func stubResult(spec Spec) *Result {
	return &Result{
		Fingerprint: spec.Fingerprint(),
		Spec:        spec,
		Replicas:    ReplicaSummary{Requested: spec.Replicas, Completed: spec.Replicas, StdErrInflation: 1},
	}
}

// countingRunner records execution order and count without simulating.
type countingRunner struct {
	mu    sync.Mutex
	seeds []uint64
	runs  atomic.Int64
}

func (c *countingRunner) run(ctx context.Context, spec Spec) (*Result, error) {
	c.runs.Add(1)
	c.mu.Lock()
	c.seeds = append(c.seeds, spec.Seed)
	c.mu.Unlock()
	return stubResult(spec), nil
}

// blockingRunner parks every execution until released (or its context
// ends), signalling starts on started.
type blockingRunner struct {
	started chan uint64
	release chan struct{}
	runs    atomic.Int64
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{started: make(chan uint64, 16), release: make(chan struct{})}
}

func (b *blockingRunner) run(ctx context.Context, spec Spec) (*Result, error) {
	b.runs.Add(1)
	b.started <- spec.Seed
	select {
	case <-b.release:
		return stubResult(spec), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, s *Service, id string, want State) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v, err := s.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if v.State == want {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("job %s terminal in %q (error %q), want %q", id, v.State, v.Error, want)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
	return JobView{}
}

func mustSubmit(t *testing.T, s *Service, spec Spec) Submission {
	t.Helper()
	sub, err := s.SubmitWith(spec, SubmitOptions{})
	if err != nil {
		t.Fatalf("SubmitWith: %v", err)
	}
	return sub
}

func shutdown(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
}

func TestQueueOrderingFIFO(t *testing.T) {
	r := &countingRunner{}
	s := New(Config{Workers: 1, QueueCapacity: 16, Runner: r.run})
	defer shutdown(t, s)
	var ids []string
	for seed := uint64(1); seed <= 5; seed++ {
		ids = append(ids, mustSubmit(t, s, tinySpec(seed)).ID)
	}
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, seed := range r.seeds {
		if seed != uint64(i+1) {
			t.Fatalf("execution order %v, want submission order", r.seeds)
		}
	}
}

func TestQueueBoundedRejection(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 1, QueueCapacity: 2, Runner: r.run})
	defer shutdown(t, s)
	defer close(r.release)

	first := mustSubmit(t, s, tinySpec(1))
	<-r.started // worker holds job 1; queue is empty again
	mustSubmit(t, s, tinySpec(2))
	mustSubmit(t, s, tinySpec(3))
	if _, err := s.SubmitWith(tinySpec(4), SubmitOptions{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("4th submit: err = %v, want ErrQueueFull", err)
	}
	if got := s.Snapshot().JobsRejected; got != 1 {
		t.Errorf("JobsRejected = %d, want 1", got)
	}
	_ = first
}

func TestCacheHitOnIdenticalSpec(t *testing.T) {
	r := &countingRunner{}
	s := New(Config{Workers: 1, Runner: r.run})
	defer shutdown(t, s)

	sub1 := mustSubmit(t, s, tinySpec(1))
	v1 := waitState(t, s, sub1.ID, StateDone)

	sub2 := mustSubmit(t, s, tinySpec(1))
	if !sub2.CacheHit || sub2.State != StateDone {
		t.Fatalf("second submit not a cache hit: %+v", sub2)
	}
	if sub2.ID == sub1.ID {
		t.Error("cache hit reused the original job ID")
	}
	v2, err := s.Get(sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(v1.Result) != string(v2.Result) {
		t.Error("cache hit returned different result bytes")
	}
	if len(v2.Result) == 0 {
		t.Error("cache hit carried no result")
	}
	if got := r.runs.Load(); got != 1 {
		t.Errorf("runner executed %d times, want 1", got)
	}
	snap := s.Snapshot()
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Errorf("cache counters = hits %d misses %d, want 1/1", snap.CacheHits, snap.CacheMisses)
	}
}

func TestCacheMissOnAnyFieldChange(t *testing.T) {
	r := &countingRunner{}
	s := New(Config{Workers: 1, Runner: r.run})
	defer shutdown(t, s)

	a := mustSubmit(t, s, tinySpec(1))
	waitState(t, s, a.ID, StateDone)
	changed := tinySpec(1)
	changed.Replicas = 2
	b := mustSubmit(t, s, changed)
	if b.CacheHit {
		t.Fatal("changed spec hit the cache")
	}
	waitState(t, s, b.ID, StateDone)
	if got := r.runs.Load(); got != 2 {
		t.Errorf("runner executed %d times, want 2", got)
	}
}

func TestSingleFlightDedupUnderConcurrentSubmits(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 2, QueueCapacity: 8, Runner: r.run})
	defer shutdown(t, s)

	first := mustSubmit(t, s, tinySpec(1))
	<-r.started

	const extra = 8
	subs := make(chan Submission, extra)
	var wg sync.WaitGroup
	for i := 0; i < extra; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			subs <- mustSubmit(t, s, tinySpec(1))
		}()
	}
	wg.Wait()
	close(subs)
	for sub := range subs {
		if !sub.Deduped || sub.ID != first.ID {
			t.Errorf("concurrent submit not deduped onto %s: %+v", first.ID, sub)
		}
	}
	close(r.release)
	waitState(t, s, first.ID, StateDone)
	if got := r.runs.Load(); got != 1 {
		t.Errorf("runner executed %d times, want 1", got)
	}
	v, _ := s.Get(first.ID)
	if v.Attached != extra {
		t.Errorf("Attached = %d, want %d", v.Attached, extra)
	}
	if got := s.Snapshot().Deduped; got != extra {
		t.Errorf("Deduped counter = %d, want %d", got, extra)
	}
}

func TestDedupEndsWhenJobFinishes(t *testing.T) {
	r := &countingRunner{}
	s := New(Config{Workers: 1, Runner: r.run})
	defer shutdown(t, s)
	a := mustSubmit(t, s, tinySpec(1))
	waitState(t, s, a.ID, StateDone)
	b := mustSubmit(t, s, tinySpec(1))
	if b.Deduped {
		t.Error("submit after completion deduped instead of hitting the cache")
	}
}

func TestCancelRunningJob(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 1, Runner: r.run})
	defer shutdown(t, s)
	defer close(r.release)

	sub := mustSubmit(t, s, tinySpec(1))
	<-r.started
	v, err := s.Cancel(sub.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if v.State != StateCancelled {
		t.Fatalf("state after cancel = %q, want cancelled", v.State)
	}
	// The daemon survives: a fresh (different) job still completes, and
	// the cancelled spec was not cached.
	r2 := mustSubmit(t, s, tinySpec(2))
	<-r.started
	if got, _ := s.Get(sub.ID); got.State != StateCancelled {
		t.Errorf("cancelled job drifted to %q", got.State)
	}
	v2, err := s.Cancel(r2.ID)
	if err != nil || v2.State != StateCancelled {
		t.Fatalf("second cancel: %v (state %q)", err, v2.State)
	}
	if got := s.Snapshot().JobsCancelled; got != 2 {
		t.Errorf("JobsCancelled = %d, want 2", got)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 1, QueueCapacity: 4, Runner: r.run})
	defer shutdown(t, s)

	a := mustSubmit(t, s, tinySpec(1))
	<-r.started
	b := mustSubmit(t, s, tinySpec(2))
	v, err := s.Cancel(b.ID)
	if err != nil || v.State != StateCancelled {
		t.Fatalf("cancel queued: %v (state %q)", err, v.State)
	}
	close(r.release)
	waitState(t, s, a.ID, StateDone)
	// Give the worker a chance to (incorrectly) pick up the cancelled job.
	time.Sleep(10 * time.Millisecond)
	if got := r.runs.Load(); got != 1 {
		t.Errorf("runner executed %d times, want 1 (cancelled job ran)", got)
	}
}

func TestCancelResubmitAfterCancelReruns(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 1, Runner: r.run})
	defer shutdown(t, s)

	a := mustSubmit(t, s, tinySpec(1))
	<-r.started
	if _, err := s.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	// Same spec again: must not dedup onto the cancelled job and must
	// execute afresh.
	b := mustSubmit(t, s, tinySpec(1))
	if b.Deduped || b.CacheHit {
		t.Fatalf("resubmit after cancel reused dead work: %+v", b)
	}
	<-r.started
	close(r.release)
	waitState(t, s, b.ID, StateDone)
	if got := r.runs.Load(); got != 2 {
		t.Errorf("runner executed %d times, want 2", got)
	}
}

func TestCancelErrors(t *testing.T) {
	r := &countingRunner{}
	s := New(Config{Workers: 1, Runner: r.run})
	defer shutdown(t, s)
	if _, err := s.Cancel("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown: %v", err)
	}
	a := mustSubmit(t, s, tinySpec(1))
	waitState(t, s, a.ID, StateDone)
	if _, err := s.Cancel(a.ID); !errors.Is(err, ErrNotRunning) {
		t.Errorf("cancel done job: %v", err)
	}
}

func TestFailedJobIsNotCached(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	r := &countingRunner{}
	runner := func(ctx context.Context, spec Spec) (*Result, error) {
		if fail.Load() {
			return nil, errors.New("synthetic failure")
		}
		return r.run(ctx, spec)
	}
	s := New(Config{Workers: 1, Runner: runner})
	defer shutdown(t, s)

	a := mustSubmit(t, s, tinySpec(1))
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, _ := s.Get(a.ID)
		if v.State == StateFailed {
			if v.Error == "" {
				t.Error("failed job lost its error")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", v.State)
		}
		time.Sleep(time.Millisecond)
	}
	fail.Store(false)
	b := mustSubmit(t, s, tinySpec(1))
	if b.CacheHit {
		t.Fatal("failure was cached")
	}
	waitState(t, s, b.ID, StateDone)
}

func TestPanickingJobIsContained(t *testing.T) {
	runner := func(ctx context.Context, spec Spec) (*Result, error) {
		if spec.Seed == 13 {
			panic("synthetic defect")
		}
		return stubResult(spec), nil
	}
	s := New(Config{Workers: 1, Runner: runner})
	defer shutdown(t, s)
	bad := mustSubmit(t, s, tinySpec(13))
	good := mustSubmit(t, s, tinySpec(1))
	waitState(t, s, good.ID, StateDone)
	v, _ := s.Get(bad.ID)
	if v.State != StateFailed {
		t.Errorf("panicked job state = %q, want failed", v.State)
	}
	if got := s.Snapshot().JobsFailed; got != 1 {
		t.Errorf("JobsFailed = %d, want 1", got)
	}
}

func TestShutdownDrainsThenRefuses(t *testing.T) {
	r := &countingRunner{}
	s := New(Config{Workers: 2, QueueCapacity: 16, Runner: r.run})
	var ids []string
	for seed := uint64(1); seed <= 6; seed++ {
		ids = append(ids, mustSubmit(t, s, tinySpec(seed)).ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	for _, id := range ids {
		if v, _ := s.Get(id); v.State != StateDone {
			t.Errorf("job %s = %q after drain, want done", id, v.State)
		}
	}
	if _, err := s.SubmitWith(tinySpec(99), SubmitOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after shutdown: %v, want ErrClosed", err)
	}
}

func TestShutdownForceCancelsAtDeadline(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 1, Runner: r.run})
	sub := mustSubmit(t, s, tinySpec(1))
	<-r.started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v", err)
	}
	if v, _ := s.Get(sub.ID); v.State != StateCancelled {
		t.Errorf("job after forced drain = %q, want cancelled", v.State)
	}
}

func TestSnapshotGauges(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 1, QueueCapacity: 8, Runner: r.run})
	defer shutdown(t, s)
	defer close(r.release)
	mustSubmit(t, s, tinySpec(1))
	<-r.started
	mustSubmit(t, s, tinySpec(2))
	snap := s.Snapshot()
	if snap.BusyWorkers != 1 || snap.Workers != 1 {
		t.Errorf("busy/workers = %d/%d, want 1/1", snap.BusyWorkers, snap.Workers)
	}
	if snap.WorkerUtilization != 1 {
		t.Errorf("utilization = %v, want 1", snap.WorkerUtilization)
	}
	if snap.QueueDepth != 1 {
		t.Errorf("queue depth = %d, want 1", snap.QueueDepth)
	}
	if snap.QueueCapacity != 8 {
		t.Errorf("queue capacity = %d", snap.QueueCapacity)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newResultCache(2)
	c.add("a", []byte("1"))
	c.add("b", []byte("2"))
	if _, ok := c.get("a"); !ok { // promotes a
		t.Fatal("a missing")
	}
	c.add("c", []byte("3")) // evicts b
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted despite promotion")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c missing")
	}
	if c.len() != 2 {
		t.Errorf("len = %d", c.len())
	}
}
