package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster/chaosproxy"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/service"
)

// chaosMembership is tuned for chaos tests: a short breaker cooldown so
// tripped workers probe again within the test, and a low threshold so
// the breaker actually participates.
func chaosMembership() *Membership {
	ms := NewMembershipWith(MembershipConfig{PerWorkerInFlight: 2})
	ms.breakerThreshold = 2
	ms.breakerCooldown = 100 * time.Millisecond
	return ms
}

// fastCoordinator keeps retry backoff tiny and deterministic.
func fastCoordinator(ms *Membership, client *http.Client) *Coordinator {
	c := NewCoordinator(Config{Members: ms, Client: client})
	c.backoff = NewBackoff(time.Millisecond, 10*time.Millisecond, 1)
	return c
}

// TestClusterChaosFaultyProxy routes one of two workers through a
// fault-injecting proxy that drops, resets, and delays connections. The
// merged result must stay byte-identical to the standalone run no matter
// which faults fire.
func TestClusterChaosFaultyProxy(t *testing.T) {
	spec := tinySpec(t, 8)
	want := standaloneJSON(t, spec)

	ms := chaosMembership()
	_, healthy := newWorkerServer(t, 2)
	mustJoin(t, ms, healthy.URL)

	_, flakySrv := newWorkerServer(t, 2)
	proxy, err := chaosproxy.New(flakySrv.Listener.Addr().String(), 42)
	if err != nil {
		t.Fatalf("chaosproxy.New: %v", err)
	}
	t.Cleanup(func() { proxy.Close() })
	proxy.SetPlan(chaosproxy.Plan{Pass: 1, Drop: 2, Reset: 2, Delay: 1, Latency: 5 * time.Millisecond})
	mustJoin(t, ms, proxy.URL())

	c := fastCoordinator(ms, &http.Client{Timeout: 10 * time.Second})
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("chaos result JSON differs from standalone:\n got %s\nwant %s", got, want)
	}
	snap := proxy.Snapshot()
	if snap.Dropped+snap.Resets+snap.Delayed == 0 {
		t.Errorf("proxy injected no faults (%+v); test proves nothing", snap)
	}
}

// TestClusterChaosBlackholedWorker blackholes every connection to one
// worker: requests hang instead of erroring. The coordinator's HTTP
// client deadline turns the hang into a transport failure, the breaker
// trips, and the campaign completes correctly on the healthy worker.
func TestClusterChaosBlackholedWorker(t *testing.T) {
	spec := tinySpec(t, 6)
	want := standaloneJSON(t, spec)

	ms := chaosMembership()
	_, healthy := newWorkerServer(t, 2)
	mustJoin(t, ms, healthy.URL)

	_, holedSrv := newWorkerServer(t, 2)
	proxy, err := chaosproxy.New(holedSrv.Listener.Addr().String(), 7)
	if err != nil {
		t.Fatalf("chaosproxy.New: %v", err)
	}
	t.Cleanup(func() { proxy.Close() })
	proxy.SetPlan(chaosproxy.Plan{Blackhole: 1})
	holed := mustJoin(t, ms, proxy.URL())

	client := &http.Client{Transport: &http.Transport{ResponseHeaderTimeout: time.Second}}
	c := fastCoordinator(ms, client)
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("blackhole run: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("blackhole result JSON differs from standalone:\n got %s\nwant %s", got, want)
	}
	if proxy.Snapshot().Blackhole == 0 {
		t.Error("no connection was blackholed; test proves nothing")
	}
	// The hung worker took at least one transport failure.
	for _, m := range ms.List() {
		if m.ID == holed.ID && m.Retries == 0 {
			t.Errorf("blackholed worker has no recorded retries: %+v", m)
		}
	}
}

// TestClusterChaosWorkerRestartMidCampaign kills a worker's proxy path
// mid-campaign (reset storm), then heals it: shards fail over, the
// breaker trips and later re-admits the worker, and the merged result is
// still exact.
func TestClusterChaosWorkerRestartMidCampaign(t *testing.T) {
	spec := tinySpec(t, 8)
	want := standaloneJSON(t, spec)

	ms := chaosMembership()
	_, healthy := newWorkerServer(t, 2)
	mustJoin(t, ms, healthy.URL)

	_, victimSrv := newWorkerServer(t, 2)
	proxy, err := chaosproxy.New(victimSrv.Listener.Addr().String(), 99)
	if err != nil {
		t.Fatalf("chaosproxy.New: %v", err)
	}
	t.Cleanup(func() { proxy.Close() })
	victim := mustJoin(t, ms, proxy.URL())

	// Crash: every connection to the victim resets.
	proxy.SetPlan(chaosproxy.Plan{Reset: 1})
	c := fastCoordinator(ms, &http.Client{Timeout: 10 * time.Second})
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run during reset storm: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("reset-storm result differs from standalone:\n got %s\nwant %s", got, want)
	}

	// Restart: the proxy heals and the heartbeat revives the victim; the
	// breaker half-opens after its cooldown and closes on the probe.
	proxy.SetPlan(chaosproxy.Plan{Pass: 1})
	ms.CheckOnce(context.Background(), nil, time.Second)
	time.Sleep(150 * time.Millisecond) // past the breaker cooldown
	res, err = c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run after heal: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("post-heal result differs from standalone:\n got %s\nwant %s", got, want)
	}
	if st := ms.BreakerStates()[victim.ID]; st == BreakerOpen {
		t.Errorf("healed worker's breaker still open")
	}
}

// TestClusterChaosElasticScaleEvents is the elastic-cluster acceptance
// pin: a campaign on a 3-worker fleet survives one worker dying
// mid-shard (scale-down), one worker joining mid-campaign (scale-up),
// and one straggling shard rescued by speculative re-execution — all
// with the straggler behind a seeded fault-injecting proxy — and still
// merges to result JSON byte-identical to the single-node run.
func TestClusterChaosElasticScaleEvents(t *testing.T) {
	spec := tinySpec(t, 12)
	want := standaloneJSON(t, spec)

	ms := chaosMembership()

	// Worker C exists from the start but joins only mid-campaign, the
	// moment the straggler event fires.
	_, srvC := newWorkerServer(t, 2)

	// Worker A sits behind a seeded chaos proxy (seed 4: the first
	// connection draws Delay, so fault injection is guaranteed) and
	// hangs the first shard it receives until the coordinator cancels
	// it — the campaign's designated straggler.
	realA := NewWorker(2)
	var hungA atomic.Int64
	var firstA atomic.Bool
	muxA := http.NewServeMux()
	muxA.HandleFunc(ShardPath, func(rw http.ResponseWriter, r *http.Request) {
		if firstA.CompareAndSwap(false, true) {
			// The straggler is now stuck: scale up, mid-campaign.
			if _, err := ms.Join(srvC.URL); err != nil {
				t.Errorf("mid-campaign join: %v", err)
			}
			// Drain the body so the server watches for client
			// disconnect; the coordinator's cancel is the release.
			io.Copy(io.Discard, r.Body)
			hungA.Add(1)
			<-r.Context().Done()
			panic(http.ErrAbortHandler)
		}
		realA.ShardHandler().ServeHTTP(rw, r)
	})
	muxA.HandleFunc(HealthPath, func(rw http.ResponseWriter, r *http.Request) { rw.WriteHeader(http.StatusOK) })
	srvA := httptest.NewServer(muxA)
	t.Cleanup(srvA.Close)
	proxyA, err := chaosproxy.New(srvA.Listener.Addr().String(), 4)
	if err != nil {
		t.Fatalf("chaosproxy.New: %v", err)
	}
	t.Cleanup(func() { proxyA.Close() })
	proxyA.SetPlan(chaosproxy.Plan{Pass: 1, Delay: 1, Latency: 10 * time.Millisecond})
	mustJoin(t, ms, proxyA.URL())

	// Worker B dies mid-shard: every shard request resets as if the
	// process were killed while executing (scale-down).
	muxB := http.NewServeMux()
	muxB.HandleFunc(ShardPath, func(rw http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})
	muxB.HandleFunc(HealthPath, func(rw http.ResponseWriter, r *http.Request) { rw.WriteHeader(http.StatusOK) })
	srvB := httptest.NewServer(muxB)
	t.Cleanup(srvB.Close)
	memberB := mustJoin(t, ms, srvB.URL)

	// Fresh connections per dispatch so every request draws its own
	// chaos verdict.
	c := fastCoordinator(ms, &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}})
	c.spec = speculationConfig{Factor: 1.0, MinWait: 50 * time.Millisecond, Interval: 5 * time.Millisecond}
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("elastic chaos run: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("scale-event result differs from standalone:\n got %s\nwant %s", got, want)
	}

	if hungA.Load() == 0 {
		t.Error("no shard ever straggled on worker A")
	}
	snap := c.Snapshot()
	if snap.SpeculationsLaunched == 0 || snap.SpeculativeWins == 0 {
		t.Errorf("straggler was not rescued by speculation: %+v", snap)
	}
	if snap.IntegrityFailures != 0 {
		t.Errorf("scale events caused integrity failures: %+v", snap)
	}
	if n := len(ms.List()); n != 3 {
		t.Errorf("members = %d, want 3 (two boot joins + one mid-campaign)", n)
	}
	for _, m := range ms.List() {
		if m.ID == memberB.ID && m.Alive {
			t.Error("worker killed mid-shard is still marked alive")
		}
	}
	if pc := proxyA.Snapshot(); pc.Delayed == 0 {
		t.Errorf("chaos proxy injected no faults (%+v); test proves nothing", pc)
	}
}

// recordingShardLog builds a ShardLog that captures plan and shard-done
// records, standing in for the journal.
type recordingShardLog struct {
	mu     sync.Mutex
	plan   []journal.ShardRange
	shards map[journal.ShardRange]json.RawMessage
	sl     *service.ShardLog
}

func newRecordingShardLog(resumePlan []journal.ShardRange, checkpoints map[journal.ShardRange]json.RawMessage) *recordingShardLog {
	r := &recordingShardLog{shards: make(map[journal.ShardRange]json.RawMessage)}
	r.sl = &service.ShardLog{
		Plan:        resumePlan,
		Checkpoints: checkpoints,
		RecordPlan: func(plan []journal.ShardRange) {
			r.mu.Lock()
			r.plan = append([]journal.ShardRange(nil), plan...)
			r.mu.Unlock()
		},
		RecordShard: func(rg journal.ShardRange, payload []byte) {
			r.mu.Lock()
			r.shards[rg] = append([]byte(nil), payload...)
			r.mu.Unlock()
		},
	}
	return r
}

// TestClusterFreshJobJournalsPlanAndShards checks the durability hooks on
// a clean run: the plan is recorded once, and every shard's wire payload
// is recorded under its range.
func TestClusterFreshJobJournalsPlanAndShards(t *testing.T) {
	spec := tinySpec(t, 8)
	ms := NewMembershipWith(MembershipConfig{PerWorkerInFlight: 2})
	_, srv := newWorkerServer(t, 4)
	mustJoin(t, ms, srv.URL)

	rec := newRecordingShardLog(nil, nil)
	ctx := service.WithShardLog(context.Background(), rec.sl)
	c := NewCoordinator(Config{Members: ms})
	if _, err := c.Run(ctx, spec); err != nil {
		t.Fatalf("run: %v", err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.plan) == 0 {
		t.Fatal("no shard plan recorded")
	}
	total := 0
	for _, rg := range rec.plan {
		total += rg.Count
		if _, ok := rec.shards[rg]; !ok {
			t.Errorf("no checkpoint recorded for shard %+v", rg)
		}
	}
	if total != spec.Replicas {
		t.Errorf("recorded plan covers %d replicas, want %d", total, spec.Replicas)
	}
}

// TestClusterResumeByteIdentity is the crash-recovery acceptance pin: a
// campaign resumed from a journaled plan plus one completed shard
// checkpoint merges to result JSON byte-identical to an uninterrupted
// standalone run — and the checkpointed range is not re-executed.
func TestClusterResumeByteIdentity(t *testing.T) {
	spec := tinySpec(t, 6)
	want := standaloneJSON(t, spec)

	// The "pre-crash" incarnation completed shard [0,3) for real.
	sys, mech, wl, err := spec.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	plan := []journal.ShardRange{{First: 0, Count: 3}, {First: 3, Count: 3}}
	sh, err := core.RunShardContext(context.Background(), sys, mech, wl, 0, 3)
	if err != nil {
		t.Fatalf("pre-crash shard: %v", err)
	}
	payload, err := json.Marshal(NewShardResponse(sh))
	if err != nil {
		t.Fatalf("marshal checkpoint: %v", err)
	}

	// The post-crash incarnation has no workers at all: the journaled
	// plan must still be honoured (checkpoint reused, remainder local).
	rec := newRecordingShardLog(plan, map[journal.ShardRange]json.RawMessage{plan[0]: payload})
	ctx := service.WithShardLog(context.Background(), rec.sl)
	c := NewCoordinator(Config{Members: NewMembershipWith(MembershipConfig{})})
	res, err := c.Run(ctx, spec)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("resumed result differs from uninterrupted run:\n got %s\nwant %s", got, want)
	}
	snap := c.Snapshot()
	if snap.JobsResumed != 1 {
		t.Errorf("JobsResumed = %d, want 1", snap.JobsResumed)
	}
	if snap.ShardsResumed != 1 {
		t.Errorf("ShardsResumed = %d, want 1 (the checkpointed range)", snap.ShardsResumed)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if _, reRecorded := rec.shards[plan[0]]; reRecorded {
		t.Error("checkpointed shard was re-recorded (and so re-executed)")
	}
	if _, ok := rec.shards[plan[1]]; !ok {
		t.Error("freshly executed shard was not checkpointed")
	}
}

// TestClusterResumeSurvivesCorruptCheckpoint feeds a resumed job one
// garbage checkpoint: the shard silently recomputes and the result stays
// exact.
func TestClusterResumeSurvivesCorruptCheckpoint(t *testing.T) {
	spec := tinySpec(t, 4)
	want := standaloneJSON(t, spec)

	plan := []journal.ShardRange{{First: 0, Count: 2}, {First: 2, Count: 2}}
	rec := newRecordingShardLog(plan, map[journal.ShardRange]json.RawMessage{
		plan[0]: json.RawMessage(`{"first":0,"count":99,"results":null}`), // range mismatch
		plan[1]: json.RawMessage(`not json at all`),
	})
	ctx := service.WithShardLog(context.Background(), rec.sl)
	c := NewCoordinator(Config{Members: NewMembershipWith(MembershipConfig{})})
	res, err := c.Run(ctx, spec)
	if err != nil {
		t.Fatalf("resumed run with corrupt checkpoints: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("result differs after corrupt-checkpoint recompute:\n got %s\nwant %s", got, want)
	}
	if c.Snapshot().ShardsResumed != 0 {
		t.Errorf("corrupt checkpoints were counted as resumed: %+v", c.Snapshot())
	}
}

// TestClusterServiceJournalEndToEnd wires journal → service → coordinator
// together: incarnation one journals a campaign mid-flight (plan plus one
// shard checkpoint, crafted as the daemon would have), incarnation two
// recovers through service.Recover and completes the job through a
// coordinator runner, and the served result matches the standalone run
// byte for byte.
func TestClusterServiceJournalEndToEnd(t *testing.T) {
	spec := tinySpec(t, 6)
	want := standaloneJSON(t, spec)
	dir := t.TempDir()

	sys, mech, wl, err := spec.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	plan := []journal.ShardRange{{First: 0, Count: 3}, {First: 3, Count: 3}}
	sh, err := core.RunShardContext(context.Background(), sys, mech, wl, 0, 3)
	if err != nil {
		t.Fatalf("pre-crash shard: %v", err)
	}
	payload, err := json.Marshal(NewShardResponse(sh))
	if err != nil {
		t.Fatalf("marshal checkpoint: %v", err)
	}
	jn, _, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	specJSON, _ := json.Marshal(spec)
	for _, r := range []journal.Record{
		{Type: journal.TypeSubmitted, Job: "job-000001", Fingerprint: spec.Fingerprint(), Spec: specJSON},
		{Type: journal.TypeStarted, Job: "job-000001"},
		{Type: journal.TypePlan, Job: "job-000001", Plan: plan},
		{Type: journal.TypeShardDone, Job: "job-000001", Shard: &plan[0], Payload: payload},
	} {
		if err := jn.Append(r); err != nil {
			t.Fatalf("append %s: %v", r.Type, err)
		}
	}
	jn.Close() // the crash

	jn2, recov, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer jn2.Close()
	c := NewCoordinator(Config{Members: NewMembershipWith(MembershipConfig{})})
	svc := service.New(service.Config{Workers: 1, Runner: c.Runner(), Journal: jn2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()
	if n, err := svc.Recover(recov); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v; want 1", n, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := svc.Get("job-000001")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if v.State == service.StateDone {
			var res service.Result
			if err := json.Unmarshal(v.Result, &res); err != nil {
				t.Fatalf("unmarshal recovered result: %v", err)
			}
			if got := string(v.Result); got != want {
				t.Errorf("recovered job result differs from uninterrupted run:\n got %s\nwant %s", got, want)
			}
			break
		}
		if v.State.Terminal() {
			t.Fatalf("recovered job ended %q: %s", v.State, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.Snapshot().ShardsResumed != 1 {
		t.Errorf("ShardsResumed = %d, want 1", c.Snapshot().ShardsResumed)
	}
}
