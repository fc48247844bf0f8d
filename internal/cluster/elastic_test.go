package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// --- Helpers for board/steal tests ---

// parkedCampaign starts a cluster run whose only worker is at capacity,
// so every primary dispatch parks in acquire and the whole plan
// is stealable. It returns the coordinator (speculation parked for an hour), its HTTP
// handler server, the parked member's ID, and a channel carrying Run's
// outcome. Callers must eventually complete the campaign (by stealing)
// or release the member's slot.
//
// Each URL in alsoParked joins and is parked the same way before the
// campaign starts, so its dispatcher can never pick that member either;
// the caller owns those slots.
type runOutcome struct {
	res *service.Result
	err error
}

func parkedCampaign(t *testing.T, spec service.Spec, alsoParked ...string) (*Coordinator, *httptest.Server, string, chan runOutcome) {
	t.Helper()
	ms := NewMembershipWith(MembershipConfig{PerWorkerInFlight: 1})
	var parked string
	for _, u := range append([]string{"http://127.0.0.1:1"}, alsoParked...) {
		m := mustJoin(t, ms, u) // never dialed: its one slot is held here
		id, _, err := ms.acquire(context.Background(), nil)
		if err != nil || id != m.ID {
			t.Fatalf("failed to park worker %s: %q, %v", u, id, err)
		}
		if parked == "" {
			parked = m.ID
		}
	}
	c := NewCoordinator(Config{Members: ms})
	c.spec.Interval, c.spec.MinWait = time.Hour, time.Hour
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	out := make(chan runOutcome, 1)
	go func() {
		res, err := c.Run(context.Background(), spec)
		out <- runOutcome{res, err}
	}()
	// Wait until the campaign's board is registered and stealable.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.boardMu.Lock()
		n := len(c.boards)
		c.boardMu.Unlock()
		if n > 0 {
			return c, srv, parked, out
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign board never registered")
		}
		time.Sleep(time.Millisecond)
	}
}

// memberByURL returns the membership's view of the member at url.
func memberByURL(t *testing.T, ms *Membership, url string) Member {
	t.Helper()
	for _, m := range ms.List() {
		if m.URL == url {
			return m
		}
	}
	t.Fatalf("no member at %s", url)
	return Member{}
}

// stealAll drains a coordinator's stealable shards through the real
// HTTP steal/claims endpoints, executing each on the given worker.
func stealAll(t *testing.T, srv *httptest.Server, w *Worker, selfURL string) int {
	t.Helper()
	ctx := context.Background()
	stolen := 0
	for misses := 0; misses < 20; {
		req, token, err := StealOnce(ctx, srv.Client(), srv.URL, selfURL)
		if err != nil {
			t.Fatalf("StealOnce: %v", err)
		}
		if req == nil {
			misses++
			time.Sleep(5 * time.Millisecond)
			continue
		}
		resp, err := w.execute(ctx, req)
		if err != nil {
			t.Fatalf("execute stolen shard: %v", err)
		}
		ack, err := DeliverClaim(ctx, srv.Client(), srv.URL, token, resp)
		if err != nil {
			t.Fatalf("DeliverClaim: %v", err)
		}
		if !ack.Accepted || !ack.Won {
			t.Fatalf("fresh steal not accepted as winner: %+v", ack)
		}
		stolen++
	}
	return stolen
}

// TestWorkStealingDrainsParkedCampaign parks every primary dispatch
// behind a saturated worker and lets a thief pull the whole plan
// through the HTTP steal/claims endpoints: the campaign completes
// byte-identical to a standalone run without a single primary dispatch
// finishing.
func TestWorkStealingDrainsParkedCampaign(t *testing.T) {
	spec := tinySpec(t, 8)
	want := standaloneJSON(t, spec)

	c, srv, parkedID, out := parkedCampaign(t, spec)
	thief := NewWorker(2)
	stolen := stealAll(t, srv, thief, "http://thief.example:1")
	if stolen == 0 {
		t.Fatal("nothing was stealable")
	}

	var got runOutcome
	select {
	case got = <-out:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not finish after its shards were stolen")
	}
	c.ms.release(parkedID)
	if got.err != nil {
		t.Fatalf("stolen campaign failed: %v", got.err)
	}
	if gotJSON := resultJSON(t, got.res); gotJSON != want {
		t.Errorf("stolen-campaign result differs from standalone:\n got %s\nwant %s", gotJSON, want)
	}
	snap := c.Snapshot()
	if snap.StealsServed != int64(stolen) || snap.StealsWon != int64(stolen) {
		t.Errorf("steal counters: %+v, want served=won=%d", snap, stolen)
	}
	if snap.IntegrityFailures != 0 {
		t.Errorf("unexpected integrity failures: %+v", snap)
	}
}

// TestStealSurvivesTTLEvictionMidClaim is the membership/board seam: a
// thief worker that is TTL-evicted between claiming a shard and
// delivering its result must neither lose the shard nor duplicate it —
// claim tokens are board-scoped, not membership-scoped.
func TestStealSurvivesTTLEvictionMidClaim(t *testing.T) {
	spec := tinySpec(t, 4)
	want := standaloneJSON(t, spec)

	// The thief is a registered member (it joined like any worker). It
	// joins parked, before the campaign starts: a free thief would be
	// picked by the campaign's waiting dispatcher, which then holds an
	// in-flight slot on it while dialing its unreachable URL, and the
	// eviction below would rightly spare it.
	const thiefURL = "http://10.8.8.8:1"
	c, srv, parkedID, out := parkedCampaign(t, spec, thiefURL)
	ms := c.ms
	thiefMember := memberByURL(t, ms, thiefURL)
	thief := NewWorker(2)

	// Claim every stealable shard, executing but NOT delivering yet.
	ctx := context.Background()
	type held struct {
		token string
		resp  *ShardResponse
	}
	var claims []held
	for {
		req, token, err := StealOnce(ctx, srv.Client(), srv.URL, thiefURL)
		if err != nil {
			t.Fatalf("StealOnce: %v", err)
		}
		if req == nil {
			break
		}
		resp, err := thief.execute(ctx, req)
		if err != nil {
			t.Fatalf("execute stolen shard: %v", err)
		}
		claims = append(claims, held{token, resp})
	}
	if len(claims) == 0 {
		t.Fatal("nothing was stealable")
	}

	// Evict the thief mid-claim: dead + past TTL. Marking it dead before
	// freeing its parking slot keeps the dispatcher off it, and steals
	// hold no membership in-flight slot, so the eviction is not deferred.
	ms.markDead(thiefMember.ID)
	ms.release(thiefMember.ID)
	if m := memberByURL(t, ms, thiefURL); m.Alive || m.InFlight != 0 {
		t.Fatalf("thief before eviction: %+v, want dead with nothing in flight", m)
	}
	base := time.Now()
	ms.mu.Lock()
	ms.cfg.WorkerTTL = time.Minute
	ms.now = func() time.Time { return base.Add(time.Hour) }
	ms.mu.Unlock()
	ms.evictExpired()
	found := false
	for _, m := range ms.List() {
		if m.ID == thiefMember.ID {
			found = true
		}
	}
	if found {
		t.Fatal("thief was not evicted; test proves nothing")
	}

	// Deliver after eviction: every claim must still be accepted and win.
	for _, cl := range claims {
		ack, err := DeliverClaim(ctx, srv.Client(), srv.URL, cl.token, cl.resp)
		if err != nil {
			t.Fatalf("DeliverClaim after eviction: %v", err)
		}
		if !ack.Accepted || !ack.Won {
			t.Fatalf("evicted thief's claim rejected: %+v", ack)
		}
	}
	var got runOutcome
	select {
	case got = <-out:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not finish after evicted thief delivered")
	}
	c.ms.release(parkedID)
	if got.err != nil {
		t.Fatalf("campaign failed: %v", got.err)
	}
	if gotJSON := resultJSON(t, got.res); gotJSON != want {
		t.Errorf("result differs from standalone:\n got %s\nwant %s", gotJSON, want)
	}
	if snap := c.Snapshot(); snap.DuplicateResults != 0 || snap.IntegrityFailures != 0 {
		t.Errorf("eviction race produced duplicates or integrity failures: %+v", snap)
	}
}

// TestStealAbandonedByDeadThief checks a thief that claims a shard and
// dies never wedges the campaign: the primary still owns the range, and
// the thief's eventual late delivery is refused cleanly.
func TestStealAbandonedByDeadThief(t *testing.T) {
	spec := tinySpec(t, 2)
	want := standaloneJSON(t, spec)

	c, srv, parkedID, out := parkedCampaign(t, spec)
	ctx := context.Background()

	// The thief claims one shard and vanishes (never delivers).
	req, token, err := StealOnce(ctx, srv.Client(), srv.URL, "http://dead-thief.example:1")
	if err != nil || req == nil {
		t.Fatalf("StealOnce = %v, %v; want a shard", req, err)
	}
	// Free the parked worker's slot — except the member was never a real
	// server, so swap in a live one at the same load point: release the
	// slot and let the primary fail over to a real worker.
	realWorker, realSrv := newWorkerServer(t, 2)
	mustJoin(t, c.ms, realSrv.URL)
	c.ms.markDead(parkedID) // the parked member never dials anyway
	c.ms.release(parkedID)

	var got runOutcome
	select {
	case got = <-out:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign wedged behind an abandoned steal claim")
	}
	if got.err != nil {
		t.Fatalf("campaign failed: %v", got.err)
	}
	if gotJSON := resultJSON(t, got.res); gotJSON != want {
		t.Errorf("result differs from standalone:\n got %s\nwant %s", gotJSON, want)
	}
	if realWorker.Snapshot().ShardsExecuted == 0 {
		t.Error("failover worker executed nothing; primary never recovered the range")
	}

	// The dead thief's delivery arrives after the campaign closed: it
	// must be refused (not merged, not crashed).
	thief := NewWorker(1)
	resp, err := thief.execute(ctx, req)
	if err != nil {
		t.Fatalf("late execute: %v", err)
	}
	ack, err := DeliverClaim(ctx, srv.Client(), srv.URL, token, resp)
	if err != nil {
		t.Fatalf("late DeliverClaim: %v", err)
	}
	if ack.Accepted {
		t.Errorf("late claim for a finished campaign was accepted: %+v", ack)
	}
}

// --- Board arbitration ---

func testBoard(t *testing.T, spec service.Spec, ranges []shardRange) (*Coordinator, *board, context.Context) {
	t.Helper()
	c := NewCoordinator(Config{Members: NewMembershipWith(MembershipConfig{PerWorkerInFlight: 1})})
	c.spec.Interval, c.spec.MinWait = time.Hour, time.Hour
	b, ctx := boardOn(t, c, spec, ranges)
	return c, b, ctx
}

// boardOn builds an unregistered campaign board on c whose tasks carry
// live contexts.
func boardOn(t *testing.T, c *Coordinator, spec service.Spec, ranges []shardRange) (*board, context.Context) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	b := newBoard(c, spec.Fingerprint(), spec, ranges, cancel)
	for _, tk := range b.tasks {
		tk.ctx, tk.cancel = context.WithCancel(ctx)
	}
	return b, ctx
}

// TestBoardStealability pins the invariant the steal check rests on: a
// task is stealable exactly when it is not done and holds no claim —
// whatever sequence of claims brought it there.
func TestBoardStealability(t *testing.T) {
	spec := tinySpec(t, 2)
	primary := func(b *board, task *shardTask) string { return b.register(task, claimPrimary, "worker-001") }
	cases := []struct {
		name string
		act  func(t *testing.T, c *Coordinator, b *board, task *shardTask)
		want bool
	}{
		{"fresh", func(*testing.T, *Coordinator, *board, *shardTask) {}, true},
		{"primary registered", func(_ *testing.T, _ *Coordinator, b *board, task *shardTask) { primary(b, task) }, false},
		{"primary released", func(_ *testing.T, _ *Coordinator, b *board, task *shardTask) {
			b.releaseClaim(task, primary(b, task))
		}, true},
		{"local registered", func(_ *testing.T, _ *Coordinator, b *board, task *shardTask) {
			b.register(task, claimLocal, "coordinator")
		}, false},
		{"speculation released, primary live", func(_ *testing.T, _ *Coordinator, b *board, task *shardTask) {
			primary(b, task)
			b.releaseClaim(task, b.register(task, claimSpeculative, "worker-002"))
		}, false},
		{"steal outstanding", func(t *testing.T, c *Coordinator, _ *board, _ *shardTask) {
			if _, ok := c.stealPending("http://thief"); !ok {
				t.Fatal("fresh task was not stealable")
			}
		}, false},
		{"done", func(t *testing.T, _ *Coordinator, b *board, task *shardTask) {
			if _, won, _ := b.complete(task, primary(b, task), &ShardResponse{First: 0, Count: 2}); !won {
				t.Fatal("sole claim did not win")
			}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, b, _ := testBoard(t, spec, []shardRange{{0, 2}})
			c.registerBoard(b)
			defer c.unregisterBoard(b)
			tc.act(t, c, b, b.tasks[0])
			if _, got := c.stealPending("http://probe"); got != tc.want {
				t.Errorf("stealable = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestBoardDuplicateResultDiscarded: when two claims race and return
// byte-identical results, the first wins and the second is counted as a
// discarded duplicate — never an error.
func TestBoardDuplicateResultDiscarded(t *testing.T) {
	spec := tinySpec(t, 2)
	c, b, _ := testBoard(t, spec, []shardRange{{0, 2}})
	task := b.tasks[0]

	w := NewWorker(1)
	resp, err := w.execute(context.Background(), &ShardRequest{Spec: spec, First: 0, Count: 2})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	stealTok := b.register(task, claimSteal, "thief")
	primaryTok := b.register(task, claimPrimary, "worker-001")

	known, won, err := b.complete(task, stealTok, resp)
	if !known || !won || err != nil {
		t.Fatalf("first complete = (%v,%v,%v), want winner", known, won, err)
	}
	known, won, err = b.complete(task, primaryTok, resp)
	if !known || won || err != nil {
		t.Fatalf("duplicate complete = (%v,%v,%v), want known loser", known, won, err)
	}
	if c.duplicateResults.Load() != 1 || c.stealsWon.Load() != 1 {
		t.Errorf("counters: dup=%d stealsWon=%d", c.duplicateResults.Load(), c.stealsWon.Load())
	}
	// Replaying a consumed token is a no-op.
	if known, _, _ := b.complete(task, primaryTok, resp); known {
		t.Error("consumed token accepted twice")
	}
}

// TestBoardIntegrityMismatchAborts: divergent results for the same
// range are a hard campaign failure, not a silent tiebreak.
func TestBoardIntegrityMismatchAborts(t *testing.T) {
	spec := tinySpec(t, 2)
	c, b, ctx := testBoard(t, spec, []shardRange{{0, 2}})
	task := b.tasks[0]

	w := NewWorker(1)
	good, err := w.execute(context.Background(), &ShardRequest{Spec: spec, First: 0, Count: 2})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	// A corrupted rival: same range, tampered payload.
	var bad ShardResponse
	raw, _ := json.Marshal(good)
	if err := json.Unmarshal(raw, &bad); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	bad.Retried++

	tok1 := b.register(task, claimPrimary, "worker-001")
	tok2 := b.register(task, claimSpeculative, "worker-002")
	if _, won, err := b.complete(task, tok1, good); !won || err != nil {
		t.Fatalf("winner rejected: %v", err)
	}
	_, won, err := b.complete(task, tok2, &bad)
	if won || err == nil {
		t.Fatal("divergent result did not fail the campaign")
	}
	if b.failed() == nil {
		t.Error("board does not remember the integrity failure")
	}
	if c.integrityFailures.Load() != 1 {
		t.Errorf("integrityFailures = %d, want 1", c.integrityFailures.Load())
	}
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Error("integrity failure did not abort the campaign context")
	}
}

// --- Speculative re-execution ---

// TestSpeculationRescuesStraggler hangs a worker on the first shard it
// receives; the speculation monitor re-dispatches that range and the
// campaign finishes byte-identical to standalone, with the win counted.
func TestSpeculationRescuesStraggler(t *testing.T) {
	spec := tinySpec(t, 8)
	want := standaloneJSON(t, spec)

	ms := NewMembershipWith(MembershipConfig{PerWorkerInFlight: 2})
	// Worker A: hangs its first shard until the coordinator cancels it;
	// serves normally afterwards.
	realA := NewWorker(2)
	var hung atomic.Int64
	muxA := http.NewServeMux()
	var first atomic.Bool
	muxA.HandleFunc(ShardPath, func(rw http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			// Drain the body: the server only watches for client
			// disconnect (cancelling r.Context) once the body is
			// consumed, and the coordinator's cancel is our release.
			io.Copy(io.Discard, r.Body)
			hung.Add(1)
			<-r.Context().Done()
			panic(http.ErrAbortHandler)
		}
		realA.ShardHandler().ServeHTTP(rw, r)
	})
	muxA.HandleFunc(HealthPath, func(rw http.ResponseWriter, r *http.Request) { rw.WriteHeader(http.StatusOK) })
	srvA := httptest.NewServer(muxA)
	t.Cleanup(srvA.Close)
	mustJoin(t, ms, srvA.URL)

	_, srvB := newWorkerServer(t, 2)
	mustJoin(t, ms, srvB.URL)

	c := NewCoordinator(Config{Members: ms})
	c.spec = speculationConfig{Factor: 1.0, MinWait: 50 * time.Millisecond, Interval: 10 * time.Millisecond}
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run with straggler: %v", err)
	}
	if hung.Load() == 0 {
		t.Skip("straggling worker never received a shard; placement sent everything elsewhere")
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("speculated result differs from standalone:\n got %s\nwant %s", got, want)
	}
	snap := c.Snapshot()
	if snap.SpeculationsLaunched == 0 {
		t.Errorf("no speculation launched despite a hung shard: %+v", snap)
	}
	if snap.IntegrityFailures != 0 {
		t.Errorf("speculation caused integrity failures: %+v", snap)
	}
}

// TestSpeculativeDuplicateStorm forces every shard to be speculated by
// a hair-trigger detector against healthy workers: the campaign must
// stay byte-identical with every duplicate discarded, never erroring.
func TestSpeculativeDuplicateStorm(t *testing.T) {
	spec := tinySpec(t, 8)
	want := standaloneJSON(t, spec)

	ms := NewMembershipWith(MembershipConfig{PerWorkerInFlight: 4})
	for i := 0; i < 3; i++ {
		_, srv := newWorkerServer(t, 4)
		mustJoin(t, ms, srv.URL)
	}
	c := NewCoordinator(Config{Members: ms})
	c.spec = speculationConfig{Factor: 0.0001, MinWait: time.Nanosecond, Interval: time.Millisecond}
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run under speculation storm: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("storm result differs from standalone:\n got %s\nwant %s", got, want)
	}
	snap := c.Snapshot()
	if snap.IntegrityFailures != 0 {
		t.Errorf("duplicate storm produced integrity failures: %+v", snap)
	}
	// Primary claims losing to a speculative winner also land in
	// DuplicateResults, so the duplicate count can exceed — but never
	// trail — the speculative losses.
	if snap.DuplicateResults < snap.SpeculativeLosses {
		t.Errorf("speculative losses not all counted as duplicates: %+v", snap)
	}
}

// TestSpeculationAvoidsClaimHolders: a speculative copy must not land on
// a worker that already holds a claim on the range. With both workers
// running one shard their loads tie, and least-loaded placement alone
// would send the copy to the lower-ID worker — the straggler.
func TestSpeculationAvoidsClaimHolders(t *testing.T) {
	spec := tinySpec(t, 2)
	ms := NewMembershipWith(MembershipConfig{PerWorkerInFlight: 2})
	var hits [2]atomic.Int64
	for i := range hits {
		w := NewWorker(2)
		mux := http.NewServeMux()
		mux.HandleFunc(ShardPath, func(rw http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			w.ShardHandler().ServeHTTP(rw, r)
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		mustJoin(t, ms, srv.URL)
	}
	c := NewCoordinator(Config{Members: ms})
	b, ctx := boardOn(t, c, spec, []shardRange{{0, 1}, {1, 1}})

	// worker-001 straggles on task 0 while worker-002 runs task 1.
	for i, want := range []string{"worker-001", "worker-002"} {
		id, _, err := ms.acquire(ctx, nil)
		if err != nil || id != want {
			t.Fatalf("acquire = %q, %v; want %s", id, err, want)
		}
		defer ms.release(id)
		b.register(b.tasks[i], claimPrimary, id)
	}
	c.speculateTask(ctx, b, b.tasks[0])
	if !b.taskDone(b.tasks[0]) {
		t.Fatal("speculative copy did not complete the range")
	}
	if hits[0].Load() != 0 || hits[1].Load() != 1 {
		t.Errorf("speculative copy went to the straggler: worker-001 got %d, worker-002 got %d",
			hits[0].Load(), hits[1].Load())
	}
}

// --- Cache gossip ---

// TestGossipAnswersWholeJob caches a result on a standalone node, lets
// the coordinator gossip its index, and checks the next campaign for
// the same fingerprint is answered from that cache byte-identically,
// with zero shards dispatched.
func TestGossipAnswersWholeJob(t *testing.T) {
	spec := tinySpec(t, 4)
	want := standaloneJSON(t, spec)

	// A node whose cache already holds the job.
	svc := service.New(service.Config{})
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })
	sub, err := svc.SubmitWith(spec, service.SubmitOptions{})
	if err != nil {
		t.Fatalf("seed submit: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := svc.Get(sub.ID)
		if err != nil {
			t.Fatalf("seed get: %v", err)
		}
		if v.State == service.StateDone {
			break
		}
		if v.State == service.StateFailed || time.Now().After(deadline) {
			t.Fatalf("seed job did not finish: %+v", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandlerWith(svc, service.HandlerConfig{}))
	mux.HandleFunc(HealthPath, func(rw http.ResponseWriter, r *http.Request) { rw.WriteHeader(http.StatusOK) })
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	ms := NewMembershipWith(MembershipConfig{PerWorkerInFlight: 1})
	mustJoin(t, ms, srv.URL)
	c := NewCoordinator(Config{Members: ms, Client: srv.Client()})
	c.GossipOnce(context.Background(), time.Second)
	if snap := c.Snapshot(); snap.GossipEntries == 0 || snap.GossipSweeps != 1 {
		t.Fatalf("gossip sweep learned nothing: %+v", snap)
	}

	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("gossip-answered run: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("gossip answer differs from standalone:\n got %s\nwant %s", got, want)
	}
	snap := c.Snapshot()
	if snap.GossipAnswers != 1 {
		t.Errorf("job not answered from gossip: %+v", snap)
	}
	if snap.ShardsDispatched != 0 || snap.JobsSharded != 0 {
		t.Errorf("gossip answer still dispatched shards: %+v", snap)
	}
}

// TestGossipRejectsMismatchedFingerprint: a holder serving wrong bytes
// for a fingerprint must be ignored, not trusted.
func TestGossipRejectsMismatchedFingerprint(t *testing.T) {
	spec := tinySpec(t, 2)
	res := &service.Result{Fingerprint: "not-the-requested-one", Spec: spec}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+service.CacheResultsPrefix+"{fp}", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(res)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	if _, err := fetchCachedResult(context.Background(), srv.Client(), srv.URL, spec.Fingerprint()); err == nil {
		t.Fatal("mislabeled cached result was accepted")
	}
}

// --- Deadline parity (satellite a) ---

// TestLocalFallbackHonorsSpecTimeout: with no workers and no caller
// deadline, a Spec.TimeoutSec budget must still bound the local run —
// exactly as DeadlineHeader bounds a remote one.
func TestLocalFallbackHonorsSpecTimeout(t *testing.T) {
	spec := tinySpec(t, 64)
	spec.TimeoutSec = 0.002 // far less than 64 replicas need

	c := NewCoordinator(Config{Members: NewMembershipWith(MembershipConfig{})})
	start := time.Now()
	_, err := c.Run(context.Background(), spec)
	if err == nil {
		t.Fatal("local fallback ignored the spec timeout")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want a deadline error", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("timeout enforced only after %s", elapsed)
	}
}

// --- Observability (satellite b) ---

func TestCoordinatorMetricsExposeElasticCounters(t *testing.T) {
	c := NewCoordinator(Config{Members: NewMembershipWith(MembershipConfig{})})
	var buf strings.Builder
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, name := range []string{
		"scrubd_cluster_steals_served_total",
		"scrubd_cluster_steals_won_total",
		"scrubd_cluster_steals_lost_total",
		"scrubd_cluster_speculations_launched_total",
		"scrubd_cluster_speculative_wins_total",
		"scrubd_cluster_speculative_losses_total",
		"scrubd_cluster_duplicate_results_total",
		"scrubd_cluster_integrity_failures_total",
		"scrubd_cluster_gossip_answers_total",
		"scrubd_cluster_gossip_age_seconds",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("metrics missing %s", name)
		}
	}
}

func TestHealthzCarriesClusterState(t *testing.T) {
	c := NewCoordinator(Config{Members: NewMembershipWith(MembershipConfig{})})
	svc := service.New(service.Config{})
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })
	h := service.NewHandlerWith(svc, service.HandlerConfig{
		Role:        "coordinator",
		LiveWorkers: c.ms.AliveCount,
		ClusterInfo: func() any { return c.Snapshot() },
	})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Role    string          `json:"role"`
		Cluster json.RawMessage `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if body.Role != "coordinator" || len(body.Cluster) == 0 {
		t.Fatalf("healthz lacks cluster state: %+v", body)
	}
	for _, key := range []string{"steals_won", "speculative_wins", "gossip_age_seconds"} {
		if !strings.Contains(string(body.Cluster), key) {
			t.Errorf("healthz cluster state missing %q: %s", key, body.Cluster)
		}
	}
}
