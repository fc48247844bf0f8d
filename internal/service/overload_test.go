package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/journal"
)

// prioSpec is tinySpec with a scheduling class attached.
func prioSpec(seed uint64, priority string) Spec {
	s := tinySpec(seed)
	s.Priority = priority
	return s
}

// TestFingerprintIgnoresScheduling pins that priority and deadline steer
// WHEN a job runs, never WHAT it computes: the fingerprint — and with it
// dedup and the result cache — is identical across scheduling hints.
func TestFingerprintIgnoresScheduling(t *testing.T) {
	base := mustNormalize(t, tinySpec(42)).Fingerprint()
	hinted := tinySpec(42)
	hinted.Priority = PriorityInteractive
	hinted.DeadlineAt = time.Now().Add(time.Hour).Format(time.RFC3339Nano)
	norm := mustNormalize(t, hinted)
	if got := norm.Fingerprint(); got != base {
		t.Fatalf("fingerprint changed with scheduling hints: %s vs %s", got, base)
	}
	batch := tinySpec(42)
	batch.Priority = PriorityBatch
	if got := mustNormalize(t, batch).Fingerprint(); got != base {
		t.Fatalf("fingerprint changed with batch priority: %s vs %s", got, base)
	}
}

// TestSpecPriorityValidation pins the accepted priority vocabulary and
// deadline canonicalisation.
func TestSpecPriorityValidation(t *testing.T) {
	bad := tinySpec(1)
	bad.Priority = "urgent"
	if _, err := bad.Normalized(); err == nil {
		t.Fatal("unknown priority accepted")
	}
	badDl := tinySpec(1)
	badDl.DeadlineAt = "next tuesday"
	if _, err := badDl.Normalized(); err == nil {
		t.Fatal("unparsable deadline accepted")
	}
	// RFC 3339 deadlines canonicalise to RFC3339Nano UTC-preserving form.
	dl := tinySpec(1)
	dl.DeadlineAt = "2030-01-02T03:04:05Z"
	norm := mustNormalize(t, dl)
	parsed, err := time.Parse(time.RFC3339Nano, norm.DeadlineAt)
	if err != nil {
		t.Fatalf("canonical deadline %q unparsable: %v", norm.DeadlineAt, err)
	}
	if !parsed.Equal(time.Date(2030, 1, 2, 3, 4, 5, 0, time.UTC)) {
		t.Fatalf("deadline mangled: %v", parsed)
	}
	// Class mapping.
	for prio, want := range map[string]Class{
		"":                  ClassNormal,
		PriorityNormal:      ClassNormal,
		PriorityInteractive: ClassInteractive,
		PriorityBatch:       ClassBatch,
	} {
		s := tinySpec(1)
		s.Priority = prio
		if got := mustNormalize(t, s).Class(); got != want {
			t.Errorf("priority %q → class %v, want %v", prio, got, want)
		}
	}
}

// TestPriorityInversion is the pinned scheduling test: with the queue
// saturated by batch work, a late-arriving interactive job runs before
// every still-queued batch job.
func TestPriorityInversion(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 1, QueueCapacity: 8, Runner: r.run})
	t.Cleanup(func() { shutdown(t, s) })

	mustSubmit(t, s, prioSpec(1, PriorityBatch))
	if got := <-r.started; got != 1 {
		t.Fatalf("first job seed %d, want 1", got)
	}
	// Saturate the queue with batch, then drop in one interactive job.
	for seed := uint64(2); seed <= 4; seed++ {
		mustSubmit(t, s, prioSpec(seed, PriorityBatch))
	}
	sub := mustSubmit(t, s, prioSpec(10, PriorityInteractive))

	close(r.release)
	if got := <-r.started; got != 10 {
		t.Fatalf("after release the worker ran seed %d first, want the interactive 10", got)
	}
	waitState(t, s, sub.ID, StateDone)
	for want := uint64(2); want <= 4; want++ {
		if got := <-r.started; got != want {
			t.Fatalf("batch backlog ran seed %d, want %d (arrival order)", got, want)
		}
	}
}

// TestEDFWithinClass pins earliest-deadline-first order inside one
// class, with deadline-free jobs after deadline-bearing ones.
func TestEDFWithinClass(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 1, QueueCapacity: 8, Runner: r.run})
	t.Cleanup(func() { shutdown(t, s) })

	mustSubmit(t, s, tinySpec(1))
	<-r.started

	far := tinySpec(2)
	far.DeadlineAt = time.Now().Add(time.Hour).Format(time.RFC3339Nano)
	near := tinySpec(3)
	near.DeadlineAt = time.Now().Add(30 * time.Minute).Format(time.RFC3339Nano)
	none := tinySpec(4)
	mustSubmit(t, s, far)
	mustSubmit(t, s, near)
	mustSubmit(t, s, none)

	close(r.release)
	for i, want := range []uint64{3, 2, 4} {
		if got := <-r.started; got != want {
			t.Fatalf("EDF position %d ran seed %d, want %d", i, got, want)
		}
	}
}

// TestAgingRescuesStarvedClass exercises the starvation escape hatch as
// a unit on the queue: an old batch job outranks fresh interactive
// arrivals once it has waited past the aging threshold.
func TestAgingRescuesStarvedClass(t *testing.T) {
	now := time.Now()
	var pq priorityQueue
	old := &job{class: ClassBatch, arrival: 1, submitted: now.Add(-10 * time.Second)}
	fresh := &job{class: ClassInteractive, arrival: 2, submitted: now}
	pq.push(old)
	pq.push(fresh)

	j, aged := pq.pick(now, 5*time.Second)
	if j != old || !aged {
		t.Fatalf("pick(aging=5s) = seed-class %v aged %v, want the starved batch job aged", j.class, aged)
	}
	if j, _ := pq.pick(now, 5*time.Second); j != fresh {
		t.Fatalf("second pick = class %v, want the interactive job", j.class)
	}

	// Aging off: strict precedence, no rescue.
	pq.push(old)
	pq.push(fresh)
	if j, aged := pq.pick(now, 0); j != fresh || aged {
		t.Fatalf("pick(aging off) = class %v aged %v, want interactive un-aged", j.class, aged)
	}
}

// TestDeadlineExpiredAtAdmission pins that a spec whose deadline has
// already passed is refused at the door, not queued to die later.
func TestDeadlineExpiredAtAdmission(t *testing.T) {
	s := New(Config{Workers: 1, Runner: (&countingRunner{}).run})
	t.Cleanup(func() { shutdown(t, s) })
	late := tinySpec(1)
	late.DeadlineAt = time.Now().Add(-time.Second).Format(time.RFC3339Nano)
	_, err := s.SubmitWith(late, SubmitOptions{})
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("expired deadline admitted (err %v)", err)
	}
	if got := s.Snapshot().DeadlineRejected; got != 1 {
		t.Fatalf("deadline_rejected = %d, want 1", got)
	}
}

// TestDeadlineReapedFromQueue pins lazy reaping: a queued job whose
// deadline lapses before a worker reaches it fails without running.
func TestDeadlineReapedFromQueue(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 1, QueueCapacity: 4, Runner: r.run})
	t.Cleanup(func() { shutdown(t, s) })

	mustSubmit(t, s, tinySpec(1))
	<-r.started
	doomed := tinySpec(2)
	doomed.DeadlineAt = time.Now().Add(30 * time.Millisecond).Format(time.RFC3339Nano)
	sub := mustSubmit(t, s, doomed)
	time.Sleep(60 * time.Millisecond)
	close(r.release)

	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := s.Get(sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == StateFailed {
			if !strings.Contains(v.Error, "reaped") {
				t.Fatalf("reaped job error %q, want a reaped marker", v.Error)
			}
			break
		}
		if v.State == StateDone {
			t.Fatal("expired job ran to completion instead of being reaped")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", v.State)
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.Snapshot().DeadlineReaped; got != 1 {
		t.Fatalf("deadline_reaped = %d, want 1", got)
	}
}

// TestDedupEscalation pins that a duplicate submission at a higher
// priority drags the queued original up with it.
func TestDedupEscalation(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 1, QueueCapacity: 8, Runner: r.run})
	t.Cleanup(func() { shutdown(t, s) })

	mustSubmit(t, s, prioSpec(1, PriorityBatch))
	<-r.started
	mustSubmit(t, s, prioSpec(2, PriorityBatch))
	first := mustSubmit(t, s, prioSpec(3, PriorityBatch))
	// Same work, now wanted interactively.
	again := mustSubmit(t, s, prioSpec(3, PriorityInteractive))
	if !again.Deduped || again.ID != first.ID {
		t.Fatalf("duplicate not attached: %+v vs %+v", again, first)
	}

	close(r.release)
	if got := <-r.started; got != 3 {
		t.Fatalf("escalated job ran %d first, want seed 3", got)
	}
	if got := s.Snapshot().Escalated; got != 1 {
		t.Fatalf("escalated = %d, want 1", got)
	}
}

// TestShedBatchStillServesInteractive is the pinned load-shedding test:
// past the batch watermark, batch submissions bounce with Retry-After
// while interactive traffic is still admitted and still completes.
func TestShedBatchStillServesInteractive(t *testing.T) {
	r := newBlockingRunner()
	shed := DefaultShedConfig()
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueCapacity: 10, Shed: &shed, Runner: r.run,
	})
	defer close(r.release)

	postJob(t, ts, prioSpec(1, PriorityInteractive))
	<-r.started
	// Occupy half the queue: 5/10 hits the 0.50 batch watermark.
	for seed := uint64(2); seed <= 6; seed++ {
		if code, _ := postJob(t, ts, prioSpec(seed, PriorityInteractive)); code != http.StatusAccepted {
			t.Fatalf("fill POST seed %d: %d", seed, code)
		}
	}

	body, _ := json.Marshal(prioSpec(100, PriorityBatch))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch POST under shed-batch: %d, want 503 (or 429)", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response without Retry-After")
	}

	code, sub := postJob(t, ts, prioSpec(101, PriorityInteractive))
	if code != http.StatusAccepted {
		t.Fatalf("interactive POST under shed-batch: %d, want 202", code)
	}
	if sub.ID == "" {
		t.Fatal("interactive submission without an ID")
	}
}

// TestQueueFullHammer floods a small daemon from many goroutines (run
// under -race): every response must be exactly 202 or a 429 carrying
// Retry-After — never a 500 — and after drain the journal must hold one
// submitted record per accepted job.
func TestQueueFullHammer(t *testing.T) {
	dir := t.TempDir()
	jn, _, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A runner slow enough to keep the tiny queue contended.
	counting := &countingRunner{}
	runner := func(ctx context.Context, spec Spec) (*Result, error) {
		time.Sleep(2 * time.Millisecond)
		return counting.run(ctx, spec)
	}
	s := New(Config{Workers: 2, QueueCapacity: 4, Journal: jn, Runner: runner})
	srv := httptest.NewServer(NewHandlerWith(s, HandlerConfig{}))
	t.Cleanup(srv.Close)
	ts := srv.URL

	const clients, perClient = 16, 25
	var mu sync.Mutex
	counts := map[int]int{}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				spec := tinySpec(uint64(c*1000 + i + 1))
				body, _ := json.Marshal(spec)
				resp, err := http.Post(ts+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("POST: %v", err)
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
					t.Errorf("429 without Retry-After")
				}
				resp.Body.Close()
				mu.Lock()
				counts[resp.StatusCode]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	// One expired-deadline spec rejected at admission even under load.
	late := tinySpec(999999)
	late.DeadlineAt = time.Now().Add(-time.Minute).Format(time.RFC3339Nano)
	body, _ := json.Marshal(late)
	resp, err := http.Post(ts+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("expired-deadline POST: %d, want 422", resp.StatusCode)
	}

	for code := range counts {
		if code != http.StatusAccepted && code != http.StatusTooManyRequests {
			t.Fatalf("hammer produced status %d (%d times); only 202/429 allowed", code, counts[code])
		}
	}
	if counts[http.StatusAccepted] == 0 || counts[http.StatusTooManyRequests] == 0 {
		t.Fatalf("hammer not contended enough: %v", counts)
	}

	// Drain (Shutdown finishes the backlog), then audit the journal: no
	// accepted job may be missing its write-ahead record.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	jn.Close()
	raw, err := os.ReadFile(jn.Path())
	if err != nil {
		t.Fatal(err)
	}
	submitted := bytes.Count(raw, []byte(`"type":"submitted"`))
	if submitted != counts[http.StatusAccepted] {
		t.Fatalf("journal holds %d submitted records for %d accepted jobs", submitted, counts[http.StatusAccepted])
	}
}

// TestBatchSubmitGroupCommit pins the group-commit contract: a batch of
// N fresh jobs costs ONE fsync and appends N submitted records.
func TestBatchSubmitGroupCommit(t *testing.T) {
	dir := t.TempDir()
	jn, _, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := newBlockingRunner()
	s := New(Config{Workers: 1, QueueCapacity: 16, Journal: jn, Runner: r.run})
	t.Cleanup(func() {
		close(r.release)
		shutdown(t, s)
		jn.Close()
	})

	mustSubmit(t, s, tinySpec(1))
	<-r.started // worker parked: no lifecycle records interleave below

	f0, a0, g0 := jn.Fsyncs(), jn.Appended(), jn.GroupCommits()
	specs := []Spec{tinySpec(2), tinySpec(3), tinySpec(4), tinySpec(5), tinySpec(6)}
	results := s.SubmitBatch(specs, SubmitOptions{Tenant: "t1"})
	for i, br := range results {
		if br.Err != nil {
			t.Fatalf("batch item %d: %v", i, br.Err)
		}
	}
	if got := jn.Appended() - a0; got != int64(len(specs)) {
		t.Fatalf("batch appended %d records, want %d", got, len(specs))
	}
	if got := jn.Fsyncs() - f0; got != 1 {
		t.Fatalf("batch cost %d fsyncs, want 1", got)
	}
	if got := jn.GroupCommits() - g0; got != 1 {
		t.Fatalf("group_commits grew by %d, want 1", got)
	}
}

// TestHTTPBatchSubmit pins the batch endpoint: per-spec verdicts in
// order, in-request duplicates deduped, empty batches refused.
func TestHTTPBatchSubmit(t *testing.T) {
	r := &countingRunner{}
	_, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 16, Runner: r.run})

	payload, _ := json.Marshal(BatchSubmitRequest{
		Specs: []Spec{tinySpec(1), tinySpec(2), tinySpec(1)},
	})
	resp, err := http.Post(ts.URL+"/v1/jobs/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch POST: %d, want 200", resp.StatusCode)
	}
	var br BatchSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 || br.Accepted != 3 {
		t.Fatalf("batch response: %d results, %d accepted, want 3/3", len(br.Results), br.Accepted)
	}
	if br.Results[0].Status != http.StatusAccepted || br.Results[1].Status != http.StatusAccepted {
		t.Fatalf("fresh specs got statuses %d/%d, want 202", br.Results[0].Status, br.Results[1].Status)
	}
	if !br.Results[2].Deduped && !br.Results[2].CacheHit {
		t.Fatalf("in-batch duplicate not deduped: %+v", br.Results[2])
	}
	if br.Results[2].ID != br.Results[0].ID {
		t.Fatalf("duplicate attached to %s, want %s", br.Results[2].ID, br.Results[0].ID)
	}

	// An expired-deadline duplicate is refused alone; its twin stands.
	expired := tinySpec(3)
	expired.DeadlineAt = time.Now().Add(-time.Minute).Format(time.RFC3339Nano)
	payload, _ = json.Marshal(BatchSubmitRequest{Specs: []Spec{tinySpec(3), expired}})
	resp3, err := http.Post(ts.URL+"/v1/jobs/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var br3 BatchSubmitResponse
	if err := json.NewDecoder(resp3.Body).Decode(&br3); err != nil {
		t.Fatal(err)
	}
	if len(br3.Results) != 2 || br3.Results[0].Status != http.StatusAccepted ||
		br3.Results[1].Status != http.StatusUnprocessableEntity {
		t.Fatalf("expired duplicate batch: %+v, want statuses 202 then 422", br3.Results)
	}

	// Empty batch → 400.
	resp2, err := http.Post(ts.URL+"/v1/jobs/batch", "application/json", strings.NewReader(`{"specs":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d, want 400", resp2.StatusCode)
	}
}

// TestTenantRateLimit pins per-tenant token buckets: a tenant burning
// its burst gets 429 + Retry-After while another tenant sails through.
func TestTenantRateLimit(t *testing.T) {
	r := &countingRunner{}
	s := New(Config{Workers: 1, QueueCapacity: 64, Runner: r.run,
		TenantRate: 0.001, TenantBurst: 2})
	t.Cleanup(func() { shutdown(t, s) })

	for i := 0; i < 2; i++ {
		if _, err := s.SubmitWith(tinySpec(uint64(i+1)), SubmitOptions{Tenant: "greedy"}); err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
	}
	_, err := s.SubmitWith(tinySpec(3), SubmitOptions{Tenant: "greedy"})
	var rl *RateLimitError
	if !errors.As(err, &rl) {
		t.Fatalf("third submit err %v, want RateLimitError", err)
	}
	if rl.Wait <= 0 {
		t.Fatalf("RateLimitError without a wait hint: %+v", rl)
	}
	if _, err := s.SubmitWith(tinySpec(4), SubmitOptions{Tenant: "polite"}); err != nil {
		t.Fatalf("other tenant blocked: %v", err)
	}
	if got := s.Snapshot().RateLimited; got != 1 {
		t.Fatalf("rate_limited = %d, want 1", got)
	}
}

// TestHTTPBodyLimit pins the 1 MiB default request-body cap: an
// oversized spec earns 413, not an OOM or a 500.
func TestHTTPBodyLimit(t *testing.T) {
	r := &countingRunner{}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: r.run})

	huge := fmt.Sprintf(`{"workload":"db-oltp","notes":%q}`, strings.Repeat("x", 2<<20))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB POST: %d, want 413", resp.StatusCode)
	}
}

// TestBatchJournalFailureRefusesSiblings pins the write-ahead barrier
// for in-batch dedups: when the group commit fails, the specs that
// deduped onto a not-yet-journaled sibling are refused along with the
// fresh jobs — no client may hold an acknowledgement for a job that was
// never made durable, never stored, and never enqueued.
func TestBatchJournalFailureRefusesSiblings(t *testing.T) {
	dir := t.TempDir()
	jn, _, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueCapacity: 16, Journal: jn, Runner: (&countingRunner{}).run})
	t.Cleanup(func() { shutdown(t, s) })

	// Down the journal: every append now fails the barrier.
	jn.Close()

	results := s.SubmitBatch([]Spec{tinySpec(1), tinySpec(1), tinySpec(2)}, SubmitOptions{})
	for i, br := range results {
		if br.Err == nil {
			t.Fatalf("batch item %d acknowledged (%+v) despite journal failure", i, br.Submission)
		}
	}
	if jobs := s.List(); len(jobs) != 0 {
		t.Fatalf("%d jobs exist after a failed group commit, want 0", len(jobs))
	}
	snap := s.Snapshot()
	if snap.JobsAccepted != 0 || snap.Deduped != 0 || snap.QueueDepth != 0 {
		t.Fatalf("counters leaked past the failed barrier: accepted=%d deduped=%d depth=%d, want all 0",
			snap.JobsAccepted, snap.Deduped, snap.QueueDepth)
	}
}

// TestAgingRescuesDeadlineFreeJob pins within-class starvation
// avoidance: a deadline-free job never wins precedence under a steady
// stream of deadline-bearing siblings, but it is the longest-waiting
// job, so the aging rule still serves it once it has waited past the
// threshold.
func TestAgingRescuesDeadlineFreeJob(t *testing.T) {
	now := time.Now()
	var pq priorityQueue
	starved := &job{class: ClassNormal, arrival: 1, submitted: now.Add(-time.Minute)}
	pq.push(starved)
	urgent := make([]*job, 3)
	for i := range urgent {
		urgent[i] = &job{
			class: ClassNormal, arrival: uint64(i + 2),
			submitted: now, deadline: now.Add(time.Duration(i+1) * time.Second),
		}
		pq.push(urgent[i])
	}

	j, aged := pq.pick(now, 30*time.Second)
	if j != starved || !aged {
		t.Fatalf("pick(aging=30s) = %+v aged=%v, want the starved deadline-free job aged", j, aged)
	}
	// The rest drain in plain EDF order.
	for i, want := range urgent {
		if j, _ := pq.pick(now, 30*time.Second); j != want {
			t.Fatalf("drain position %d got arrival %d, want %d", i, j.arrival, want.arrival)
		}
	}
}

// TestEscalatedJobKeepsItsAge pins that dedup escalation moves a queued
// job into its new class without resetting its age. Batch job B queues
// at t=0 and interactive job I at t=10 s; an interactive duplicate of B
// then escalates it. At t=45 s under 30 s aging, B is both the
// precedence winner (same class, earlier arrival) and the longest-
// waiting job, so it runs first and no aging rescue is counted.
func TestEscalatedJobKeepsItsAge(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 1, QueueCapacity: 8, Runner: r.run, Aging: 30 * time.Second})
	t.Cleanup(func() { shutdown(t, s) })
	t0 := time.Now()
	var offset atomic.Int64
	s.mu.Lock()
	s.now = func() time.Time { return t0.Add(time.Duration(offset.Load())) }
	s.mu.Unlock()
	next := func() uint64 {
		t.Helper()
		select {
		case seed := <-r.started:
			return seed
		case <-time.After(5 * time.Second):
			t.Fatal("no job started")
			return 0
		}
	}

	if _, err := s.SubmitWith(tinySpec(1000), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	next() // the worker is parked on the first job
	submit := func(at time.Duration, sp Spec) Submission {
		t.Helper()
		offset.Store(int64(at))
		sub, err := s.SubmitWith(sp, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	submit(0, prioSpec(1, PriorityBatch))
	submit(10*time.Second, prioSpec(2, PriorityInteractive))
	if sub := submit(20*time.Second, prioSpec(1, PriorityInteractive)); !sub.Deduped {
		t.Fatalf("interactive duplicate of B = %+v, want a dedup attach", sub)
	}
	offset.Store(int64(45 * time.Second))
	close(r.release)

	if first, second := next(), next(); first != 1 || second != 2 {
		t.Fatalf("served seeds %d then %d, want B (1) then I (2)", first, second)
	}
	if snap := s.Snapshot(); snap.Escalated != 1 || snap.AgedServed != 0 {
		t.Fatalf("escalated=%d aged_served=%d, want 1 and 0", snap.Escalated, snap.AgedServed)
	}
}

// TestHTTPBatchSpecCap pins the specs-per-batch bound: the body-byte cap
// alone would admit tens of thousands of tiny specs into one lock-held
// admission pass, so an over-count batch is refused with 413 before any
// spec is admitted.
func TestHTTPBatchSpecCap(t *testing.T) {
	s := New(Config{Workers: 1, QueueCapacity: 16, Runner: (&countingRunner{}).run})
	t.Cleanup(func() { shutdown(t, s) })
	ts := httptest.NewServer(NewHandlerWith(s, HandlerConfig{}))
	t.Cleanup(ts.Close)

	specs := make([]Spec, MaxBatchSpecs+1)
	for i := range specs {
		specs[i] = tinySpec(uint64(i + 1))
	}
	over, _ := json.Marshal(BatchSubmitRequest{Specs: specs})
	resp, err := http.Post(ts.URL+"/v1/jobs/batch", "application/json", bytes.NewReader(over))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-spec batch against cap %d: %d, want 413", len(specs), MaxBatchSpecs, resp.StatusCode)
	}
	if got := s.Snapshot().BatchSpecs; got != 0 {
		t.Fatalf("refused batch still admitted %d specs", got)
	}

	within, _ := json.Marshal(BatchSubmitRequest{Specs: specs[:MaxBatchSpecs]})
	resp2, err := http.Post(ts.URL+"/v1/jobs/batch", "application/json", bytes.NewReader(within))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("%d-spec batch against cap %d: %d, want 200", MaxBatchSpecs, MaxBatchSpecs, resp2.StatusCode)
	}
}

// TestRefusalsDoNotBurnTokens pins token-charge ordering: a submission
// the service refuses anyway (queue full) must not spend the tenant's
// rate budget, so the tenant still has tokens the moment capacity
// returns.
func TestRefusalsDoNotBurnTokens(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 1, QueueCapacity: 2, Runner: r.run,
		TenantRate: 0.001, TenantBurst: 4})
	t.Cleanup(func() {
		close(r.release)
		shutdown(t, s)
	})
	opts := SubmitOptions{Tenant: "retry-happy"}

	// Token 1 runs (parking the worker), tokens 2-3 fill the queue.
	if _, err := s.SubmitWith(tinySpec(1), opts); err != nil {
		t.Fatal(err)
	}
	<-r.started
	queued := make([]Submission, 2)
	for i := range queued {
		sub, err := s.SubmitWith(tinySpec(uint64(i+2)), opts)
		if err != nil {
			t.Fatal(err)
		}
		queued[i] = sub
	}

	// Hammer the full queue: every refusal must be queue-full, never
	// rate-limited, and none may spend the remaining token.
	for i := 0; i < 5; i++ {
		_, err := s.SubmitWith(tinySpec(uint64(i+10)), opts)
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("refusal %d: %v, want ErrQueueFull", i, err)
		}
	}
	if got := s.Snapshot().RateLimited; got != 0 {
		t.Fatalf("rate_limited = %d after queue-full refusals, want 0", got)
	}

	// Capacity returns; the last token must still be there.
	if _, err := s.Cancel(queued[1].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitWith(tinySpec(20), opts); err != nil {
		t.Fatalf("submit after capacity returned: %v, want the saved token to admit it", err)
	}
}

// TestBatchEqualsSingles pins the batch contract: SubmitBatch gives each
// spec the verdict it would have received sent alone by SubmitWith right
// after its predecessors — the same error or Submission, the same jobs
// in the same states and scheduling positions, and the same counters
// (bar the batch-endpoint ones). Each case runs on twin services, one
// fed spec by spec and one batch by batch, both with their one worker
// parked so nothing leaves the queue.
func TestBatchEqualsSingles(t *testing.T) {
	past := time.Now().Add(-time.Hour).Format(time.RFC3339Nano)
	soon := time.Now().Add(time.Hour).Format(time.RFC3339Nano)
	late := time.Now().Add(2 * time.Hour).Format(time.RFC3339Nano)
	withDeadline := func(s Spec, at string) Spec {
		s.DeadlineAt = at
		return s
	}
	shed := DefaultShedConfig()
	var interactive []Spec
	for seed := uint64(11); seed <= 19; seed++ {
		interactive = append(interactive, prioSpec(seed, PriorityInteractive))
	}
	type batch struct {
		tenant string
		specs  []Spec
	}
	type tcase struct {
		name    string
		cfg     Config
		batches []batch
	}
	cases := []tcase{
		{
			// The duplicate's dead deadline is refused, not attached to
			// (and reaping) the live job.
			name:    "expired-duplicate",
			cfg:     Config{QueueCapacity: 8},
			batches: []batch{{specs: []Spec{tinySpec(1), withDeadline(tinySpec(1), past)}}},
		},
		{
			// Every duplicate spends its own token.
			name:    "token-per-duplicate",
			cfg:     Config{QueueCapacity: 8, TenantRate: 0.001, TenantBurst: 2},
			batches: []batch{{tenant: "a", specs: []Spec{tinySpec(1), tinySpec(1), tinySpec(1)}}},
		},
		{
			// Nine queued of ten is interactive-only: the batch-class
			// duplicate is shed, not deduped.
			name:    "shed-duplicate",
			cfg:     Config{QueueCapacity: 10, Shed: &shed},
			batches: []batch{{specs: append(interactive, prioSpec(19, PriorityBatch))}},
		},
	}
	priorities := []string{"", PriorityInteractive, PriorityNormal, PriorityBatch}
	deadlines := []string{"", past, soon, late}
	// Random mixes of duplicates, classes and deadlines from two tenants:
	// odd seeds with burst-2 token buckets, even seeds unlimited, so the
	// queue also fills through every shed stage to queue-full.
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		tc := tcase{
			name: fmt.Sprintf("random-%d", seed),
			cfg:  Config{QueueCapacity: 8, Shed: &shed},
		}
		if seed%2 == 1 {
			tc.cfg.TenantRate, tc.cfg.TenantBurst = 0.001, 2
		}
		for b := 0; b < 6; b++ {
			bt := batch{tenant: []string{"a", "b"}[b%2]}
			for n := 1 + rng.IntN(6); n > 0; n-- {
				sp := prioSpec(uint64(1+rng.IntN(9)), priorities[rng.IntN(len(priorities))])
				bt.specs = append(bt.specs, withDeadline(sp, deadlines[rng.IntN(len(deadlines))]))
			}
			tc.batches = append(tc.batches, bt)
		}
		cases = append(cases, tc)
	}

	// twin starts a service whose one worker is parked on a job no case
	// submits, with seed 6's result already cached.
	twin := func(cfg Config) *Service {
		r := newBlockingRunner()
		cfg.Workers, cfg.Runner = 1, r.run
		s := New(cfg)
		t.Cleanup(func() {
			close(r.release)
			shutdown(t, s)
		})
		if _, err := s.SubmitWith(tinySpec(1000), SubmitOptions{Tenant: "parker"}); err != nil {
			t.Fatal(err)
		}
		<-r.started
		s.mu.Lock()
		s.cache.add(mustNormalize(t, tinySpec(6)).Fingerprint(), []byte(`{}`))
		s.mu.Unlock()
		return s
	}
	verdict := func(res BatchResult) string {
		for _, sentinel := range []error{ErrRateLimited, ErrShedding, ErrDeadlineExpired, ErrQueueFull, ErrClosed} {
			if errors.Is(res.Err, sentinel) {
				return sentinel.Error()
			}
		}
		if res.Err != nil {
			return res.Err.Error()
		}
		return fmt.Sprintf("%+v", res.Submission)
	}
	jobs := func(s *Service) []string {
		s.mu.Lock()
		defer s.mu.Unlock()
		var out []string
		for _, j := range s.jobs {
			out = append(out, fmt.Sprintf("%s %s class=%v deadline=%v attached=%d cached=%v queued=%v tenant=%q",
				j.id, j.state, j.class, j.deadline, j.attached, j.cacheHit, slices.Contains(s.pq, j), j.tenant))
		}
		sort.Strings(out)
		return out
	}
	counters := func(s *Service) Snapshot {
		snap := s.Snapshot()
		snap.BatchRequests, snap.BatchSpecs, snap.Engine = 0, 0, engine.Totals{}
		return snap
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			single, batched := twin(tc.cfg), twin(tc.cfg)
			var want, got []string
			for _, bt := range tc.batches {
				opts := SubmitOptions{Tenant: bt.tenant}
				for _, sp := range bt.specs {
					sub, err := single.SubmitWith(sp, opts)
					want = append(want, verdict(BatchResult{Submission: sub, Err: err}))
				}
				for _, res := range batched.SubmitBatch(bt.specs, opts) {
					got = append(got, verdict(res))
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("spec %d: batch verdict %s, alone %s", i, got[i], want[i])
				}
			}
			if w, g := jobs(single), jobs(batched); !slices.Equal(w, g) {
				t.Errorf("jobs differ:\nbatch %q\nalone %q", g, w)
			}
			if w, g := counters(single), counters(batched); w != g {
				t.Errorf("counters differ:\nbatch %+v\nalone %+v", g, w)
			}
		})
	}
}
