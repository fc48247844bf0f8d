package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/httpx"
	"repro/internal/service"
)

// tinySpec is a fast, valid, normalised spec for cluster tests.
func tinySpec(t *testing.T, replicas int) service.Spec {
	t.Helper()
	s := service.Spec{
		Mechanism:  "basic",
		Workload:   "db-oltp",
		HorizonSec: 20000,
		Seed:       7,
		Replicas:   replicas,
		Geometry: &service.GeometrySpec{
			Channels: 1, RanksPerChan: 1, BanksPerRank: 2,
			RowsPerBank: 8, LinesPerRow: 8, LineBytes: 64,
		},
	}
	norm, err := s.Normalized()
	if err != nil {
		t.Fatalf("Normalized: %v", err)
	}
	return norm
}

// newWorkerServer starts an in-process worker node: the shard executor
// plus a /healthz the heartbeat can probe.
func newWorkerServer(t *testing.T, maxInFlight int) (*Worker, *httptest.Server) {
	t.Helper()
	w := NewWorker(maxInFlight)
	mux := http.NewServeMux()
	mux.Handle(ShardPath, w.ShardHandler())
	mux.HandleFunc(HealthPath, func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return w, srv
}

func resultJSON(t *testing.T, res *service.Result) string {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(raw)
}

func standaloneJSON(t *testing.T, spec service.Spec) string {
	t.Helper()
	res, err := service.DefaultRunner(context.Background(), spec)
	if err != nil {
		t.Fatalf("standalone run: %v", err)
	}
	return resultJSON(t, res)
}

func mustJoin(t *testing.T, ms *Membership, url string) Member {
	t.Helper()
	m, err := ms.Join(url)
	if err != nil {
		t.Fatalf("Join(%q): %v", url, err)
	}
	return m
}

// TestClusterMatchesStandalone is the subsystem's core promise: a job
// sharded across three in-process workers merges to result JSON
// byte-identical to the single-node run of the same spec.
func TestClusterMatchesStandalone(t *testing.T) {
	spec := tinySpec(t, 8)
	want := standaloneJSON(t, spec)

	ms := NewMembershipWith(MembershipConfig{PerWorkerInFlight: 2})
	workers := make([]*Worker, 3)
	for i := range workers {
		w, srv := newWorkerServer(t, 2)
		workers[i] = w
		mustJoin(t, ms, srv.URL)
	}
	c := NewCoordinator(Config{Members: ms})
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("cluster result JSON differs from standalone:\n got %s\nwant %s", got, want)
	}

	snap := c.Snapshot()
	if snap.JobsSharded != 1 || snap.JobsLocal != 0 {
		t.Errorf("expected one sharded job, got %+v", snap)
	}
	if snap.ShardsCompleted == 0 || snap.ShardsCompleted != snap.ShardsDispatched {
		t.Errorf("expected all dispatched shards to complete, got %+v", snap)
	}
	var executed int64
	for _, w := range workers {
		executed += w.Snapshot().ShardsExecuted
	}
	if executed != snap.ShardsCompleted {
		t.Errorf("workers executed %d shards, coordinator completed %d", executed, snap.ShardsCompleted)
	}
	if executed < 2 {
		t.Errorf("expected the job to spread over workers, executed=%d", executed)
	}
}

// TestClusterFailoverOnWorkerCrash kills one worker (its connections
// drop mid-request) and checks its shards are re-dispatched to the
// survivors, the worker is declared dead, and the merged result is still
// byte-identical to the standalone run.
func TestClusterFailoverOnWorkerCrash(t *testing.T) {
	spec := tinySpec(t, 8)
	want := standaloneJSON(t, spec)

	ms := NewMembershipWith(MembershipConfig{PerWorkerInFlight: 2})
	for i := 0; i < 2; i++ {
		_, srv := newWorkerServer(t, 2)
		mustJoin(t, ms, srv.URL)
	}
	// The crashing worker accepts shard requests and drops the connection
	// mid-handling — the coordinator sees a transport error on a shard it
	// already dispatched, exactly as if the process died under load.
	var crashes atomic.Int64
	crashMux := http.NewServeMux()
	crashMux.HandleFunc(ShardPath, func(rw http.ResponseWriter, r *http.Request) {
		crashes.Add(1)
		panic(http.ErrAbortHandler)
	})
	crashMux.HandleFunc(HealthPath, func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	crashSrv := httptest.NewServer(crashMux)
	t.Cleanup(crashSrv.Close)
	crashed := mustJoin(t, ms, crashSrv.URL)

	c := NewCoordinator(Config{Members: ms})
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("cluster run with crashing worker: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("failover result JSON differs from standalone:\n got %s\nwant %s", got, want)
	}
	if crashes.Load() == 0 {
		t.Fatal("crashing worker never received a shard; test proves nothing")
	}
	snap := c.Snapshot()
	if snap.ShardFailovers == 0 {
		t.Errorf("expected shard failovers, got %+v", snap)
	}
	for _, m := range ms.List() {
		if m.ID == crashed.ID && m.Alive {
			t.Errorf("crashed worker %s still marked alive", m.ID)
		}
	}
}

// TestClusterHTTPErrorExcludesWithoutDeath checks that a worker replying
// with an HTTP error (it is serving, just refusing) is excluded for the
// shard but not declared dead.
func TestClusterHTTPErrorExcludesWithoutDeath(t *testing.T) {
	spec := tinySpec(t, 4)
	want := standaloneJSON(t, spec)

	ms := NewMembershipWith(MembershipConfig{PerWorkerInFlight: 4})
	_, srv := newWorkerServer(t, 4)
	mustJoin(t, ms, srv.URL)

	busyMux := http.NewServeMux()
	busyMux.HandleFunc(ShardPath, func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Retry-After", "1")
		httpx.WriteError(rw, http.StatusTooManyRequests, errors.New("cluster: worker at capacity"))
	})
	busyMux.HandleFunc(HealthPath, func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	busySrv := httptest.NewServer(busyMux)
	t.Cleanup(busySrv.Close)
	busy := mustJoin(t, ms, busySrv.URL)

	c := NewCoordinator(Config{Members: ms})
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("cluster run with busy worker: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("result JSON differs from standalone:\n got %s\nwant %s", got, want)
	}
	for _, m := range ms.List() {
		if m.ID == busy.ID && !m.Alive {
			t.Errorf("busy worker %s wrongly declared dead", m.ID)
		}
	}
}

// TestClusterLocalFallbackNoWorkers runs a job with an empty membership:
// the coordinator executes it wholly locally and still matches the
// standalone result.
func TestClusterLocalFallbackNoWorkers(t *testing.T) {
	spec := tinySpec(t, 3)
	want := standaloneJSON(t, spec)

	c := NewCoordinator(Config{Members: NewMembershipWith(MembershipConfig{})})
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("local-fallback run: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("local-fallback result JSON differs from standalone:\n got %s\nwant %s", got, want)
	}
	snap := c.Snapshot()
	if snap.JobsLocal != 1 || snap.JobsSharded != 0 {
		t.Errorf("expected one local job, got %+v", snap)
	}
}

// TestClusterShardLocalFallbackAfterDeath kills the only worker after it
// joined: every shard's dispatch fails, the worker is declared dead, and
// the shards complete locally on the coordinator.
func TestClusterShardLocalFallbackAfterDeath(t *testing.T) {
	spec := tinySpec(t, 4)
	want := standaloneJSON(t, spec)

	ms := NewMembershipWith(MembershipConfig{PerWorkerInFlight: 2})
	mux := http.NewServeMux()
	mux.HandleFunc(HealthPath, func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(mux)
	mustJoin(t, ms, srv.URL)
	srv.Close() // the worker dies between joining and the job

	c := NewCoordinator(Config{Members: ms})
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run after worker death: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("result JSON differs from standalone:\n got %s\nwant %s", got, want)
	}
	snap := c.Snapshot()
	if snap.ShardsLocal == 0 {
		t.Errorf("expected local shard fallback, got %+v", snap)
	}
	if snap.WorkersAlive != 0 {
		t.Errorf("dead worker still counted alive: %+v", snap)
	}
}

// TestClusterRunCancellation checks a cancelled job context surfaces as
// an error rather than a bogus result.
func TestClusterRunCancellation(t *testing.T) {
	spec := tinySpec(t, 8)
	_, srv := newWorkerServer(t, 2)
	ms := NewMembershipWith(MembershipConfig{PerWorkerInFlight: 2})
	mustJoin(t, ms, srv.URL)
	c := NewCoordinator(Config{Members: ms})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx, spec); err == nil {
		t.Fatal("expected error from cancelled cluster run")
	}
}

func TestMembershipJoinIdempotent(t *testing.T) {
	ms := NewMembershipWith(MembershipConfig{})
	a := mustJoin(t, ms, "http://10.0.0.1:8080")
	b := mustJoin(t, ms, "http://10.0.0.1:8080/")
	if a.ID != b.ID {
		t.Errorf("re-join minted a new ID: %s vs %s", a.ID, b.ID)
	}
	if ms.Size() != 1 {
		t.Errorf("Size() = %d, want 1", ms.Size())
	}
	ms.markDead(a.ID)
	if ms.AliveCount() != 0 {
		t.Fatalf("AliveCount() = %d after markDead", ms.AliveCount())
	}
	mustJoin(t, ms, "http://10.0.0.1:8080")
	if ms.AliveCount() != 1 {
		t.Errorf("re-join did not revive the worker")
	}
}

func TestMembershipJoinRejectsBadURL(t *testing.T) {
	ms := NewMembershipWith(MembershipConfig{})
	for _, bad := range []string{"", "not-a-url", "10.0.0.1:8080", "/relative"} {
		if _, err := ms.Join(bad); err == nil {
			t.Errorf("Join(%q) accepted an invalid URL", bad)
		}
	}
}

func TestMembershipAcquire(t *testing.T) {
	ms := NewMembershipWith(MembershipConfig{PerWorkerInFlight: 1})
	ctx := context.Background()

	if _, _, err := ms.acquire(ctx, nil); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("acquire on empty membership = %v, want ErrNoWorkers", err)
	}

	a := mustJoin(t, ms, "http://10.0.0.1:1")
	b := mustJoin(t, ms, "http://10.0.0.2:1")

	// Least-loaded first, ties by ID.
	id1, _, err := ms.acquire(ctx, nil)
	if err != nil || id1 != a.ID {
		t.Fatalf("first acquire = %q, %v; want %q", id1, err, a.ID)
	}
	id2, _, err := ms.acquire(ctx, nil)
	if err != nil || id2 != b.ID {
		t.Fatalf("second acquire = %q, %v; want %q", id2, err, b.ID)
	}

	// All at capacity: acquire blocks until a release.
	got := make(chan string, 1)
	go func() {
		id, _, err := ms.acquire(ctx, nil)
		if err != nil {
			got <- "error: " + err.Error()
			return
		}
		got <- id
	}()
	select {
	case id := <-got:
		t.Fatalf("acquire returned %q while all workers at capacity", id)
	case <-time.After(20 * time.Millisecond):
	}
	ms.release(b.ID)
	select {
	case id := <-got:
		if id != b.ID {
			t.Errorf("blocked acquire got %q, want %q", id, b.ID)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("acquire still blocked after release")
	}

	// Excluding every worker yields ErrNoWorkers, not a deadlock.
	ms.release(a.ID)
	if _, _, err := ms.acquire(ctx, map[string]bool{a.ID: true, b.ID: true}); !errors.Is(err, ErrNoWorkers) {
		t.Errorf("acquire with all excluded = %v, want ErrNoWorkers", err)
	}

	// Cancellation unblocks a waiter. b's slot is still held by the
	// goroutine above; re-acquiring a fills the other slot.
	_, _, _ = ms.acquire(ctx, nil)
	cctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := ms.acquire(cctx, nil)
		errCh <- err
	}()
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled acquire = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled acquire never returned")
	}
}

func TestMembershipCheckOnce(t *testing.T) {
	ms := NewMembershipWith(MembershipConfig{})
	var healthy atomic.Bool
	healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc(HealthPath, func(rw http.ResponseWriter, r *http.Request) {
		if healthy.Load() {
			rw.WriteHeader(http.StatusOK)
			return
		}
		rw.WriteHeader(http.StatusServiceUnavailable)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	mustJoin(t, ms, srv.URL)

	ms.CheckOnce(context.Background(), srv.Client(), time.Second)
	if ms.AliveCount() != 1 {
		t.Fatalf("healthy worker marked dead")
	}
	healthy.Store(false)
	ms.CheckOnce(context.Background(), srv.Client(), time.Second)
	if ms.AliveCount() != 0 {
		t.Fatalf("unhealthy worker still alive")
	}
	if ms.HeartbeatFailures() == 0 {
		t.Errorf("heartbeat failure not counted")
	}
	healthy.Store(true)
	ms.CheckOnce(context.Background(), srv.Client(), time.Second)
	if ms.AliveCount() != 1 {
		t.Errorf("recovered worker not revived by heartbeat")
	}
}

func TestCoordinatorHandlerJoinAndList(t *testing.T) {
	ms := NewMembershipWith(MembershipConfig{})
	c := NewCoordinator(Config{Members: ms})
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)

	if err := Join(context.Background(), srv.Client(), srv.URL, "http://10.9.9.9:7777"); err != nil {
		t.Fatalf("Join via HTTP: %v", err)
	}
	resp, err := srv.Client().Get(srv.URL + WorkersPath)
	if err != nil {
		t.Fatalf("GET workers: %v", err)
	}
	defer resp.Body.Close()
	var listing struct {
		Workers []Member `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatalf("decode workers: %v", err)
	}
	if len(listing.Workers) != 1 || listing.Workers[0].URL != "http://10.9.9.9:7777" {
		t.Errorf("workers listing = %+v", listing.Workers)
	}

	// A join with an unparseable URL is a client error, not a crash.
	if err := Join(context.Background(), srv.Client(), srv.URL, "::bad::"); err == nil {
		t.Error("join with bad URL succeeded")
	}
}

func TestWorkerRejectsAtCapacity(t *testing.T) {
	// maxInFlight=1 and a first request parked in the semaphore would need
	// a blocking simulation; instead exercise the admission check directly
	// by filling the semaphore.
	w := NewWorker(1)
	w.sem <- struct{}{}
	defer func() { <-w.sem }()

	spec := tinySpec(t, 2)
	body, _ := json.Marshal(ShardRequest{Spec: spec, First: 0, Count: 2})
	req := httptest.NewRequest(http.MethodPost, ShardPath, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	w.ShardHandler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if w.Snapshot().ShardsRejected != 1 {
		t.Errorf("rejection not counted: %+v", w.Snapshot())
	}
}

// TestWorkerRefusesBeforeBuilding: admission comes before validation, so
// a worker at capacity refuses even an invalid spec with 429 — it builds
// nothing for work it will not run — while with a free slot the same
// request is a 400.
func TestWorkerRefusesBeforeBuilding(t *testing.T) {
	w := NewWorker(1)
	spec := tinySpec(t, 2)
	spec.Workload = "no-such-workload"
	body, _ := json.Marshal(ShardRequest{Spec: spec, First: 0, Count: 2})
	post := func() int {
		rec := httptest.NewRecorder()
		w.ShardHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ShardPath, bytes.NewReader(body)))
		return rec.Code
	}
	w.sem <- struct{}{}
	if code := post(); code != http.StatusTooManyRequests {
		t.Errorf("invalid spec at capacity: status = %d, want 429", code)
	}
	<-w.sem
	if code := post(); code != http.StatusBadRequest {
		t.Errorf("invalid spec with a free slot: status = %d, want 400", code)
	}
	if snap := w.Snapshot(); snap.ShardsFailed != 0 || snap.ShardsRejected != 1 {
		t.Errorf("counters: %+v, want 1 rejected and 0 failed", snap)
	}
}

func TestWorkerRejectsBadShardRange(t *testing.T) {
	w := NewWorker(1)
	spec := tinySpec(t, 2)
	for _, rg := range []ShardRequest{
		{Spec: spec, First: -1, Count: 2},
		{Spec: spec, First: 0, Count: 0},
		{Spec: spec, First: 1, Count: 2}, // exceeds 2 replicas
	} {
		body, _ := json.Marshal(rg)
		req := httptest.NewRequest(http.MethodPost, ShardPath, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		w.ShardHandler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("shard [%d,+%d): status = %d, want 400", rg.First, rg.Count, rec.Code)
		}
	}
}

func TestPlanShards(t *testing.T) {
	cases := []struct {
		n, shards int
		want      []shardRange
	}{
		{8, 3, []shardRange{{0, 3}, {3, 3}, {6, 2}}},
		{4, 8, []shardRange{{0, 1}, {1, 1}, {2, 1}, {3, 1}}},
		{5, 1, []shardRange{{0, 5}}},
		{6, 0, []shardRange{{0, 6}}},
	}
	for _, tc := range cases {
		got := planShards(tc.n, tc.shards)
		if len(got) != len(tc.want) {
			t.Errorf("planShards(%d,%d) = %v, want %v", tc.n, tc.shards, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("planShards(%d,%d)[%d] = %v, want %v", tc.n, tc.shards, i, got[i], tc.want[i])
			}
		}
	}
}

func TestShardResponseValidatesEcho(t *testing.T) {
	resp := &ShardResponse{First: 2, Count: 3, Results: make([]*engine.Result, 3)}
	if _, err := resp.Shard(2, 3); err != nil {
		t.Errorf("matching echo rejected: %v", err)
	}
	if _, err := resp.Shard(0, 3); err == nil {
		t.Error("mismatched first accepted")
	}
	if _, err := resp.Shard(2, 4); err == nil {
		t.Error("mismatched count accepted")
	}
	short := &ShardResponse{First: 2, Count: 3, Results: make([]*engine.Result, 2)}
	if _, err := short.Shard(2, 3); err == nil {
		t.Error("short results slice accepted")
	}
}
