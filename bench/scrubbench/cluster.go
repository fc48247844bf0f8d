package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// cmd/scrubd's default cluster timings.
const (
	heartbeatInterval = 2 * time.Second
	gossipInterval    = 2 * time.Second
	stealInterval     = time.Second
)

// clusterSpec is the seq-th fresh job of cluster-shards: 8 combined
// replicas of 512 lines, which the coordinator splits into 4 shards (2 per
// live worker). A job takes ~50 ms, most of it shard dispatch, refusals
// and retries rather than simulation, so one client completes over 200 in
// a 12 s window.
func clusterSpec(seed uint64, seq int64) service.Spec {
	return service.Spec{
		Mechanism:  "combined",
		Workload:   "idle-archive",
		HorizonSec: 20000,
		Replicas:   8,
		Seed:       seed<<24 + uint64(seq) + 1,
		Geometry:   geometry(8, 2),
	}
}

// shardTimer is the coordinator's shard-dispatch transport on traced
// runs: it times each shard RPC to the end of its response body and links
// it to its job through the spec seed in the request body.
type shardTimer struct {
	base http.RoundTripper
	tr   *tracer
	mu   sync.Mutex
	jobs map[uint64]int64 // spec seed -> benchmark request ID
}

func (s *shardTimer) register(seed uint64, req int64) {
	s.mu.Lock()
	s.jobs[seed] = req
	s.mu.Unlock()
}

func (s *shardTimer) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != cluster.ShardPath || r.Body == nil {
		return s.base.RoundTrip(r)
	}
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return nil, err
	}
	var sr cluster.ShardRequest
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, fmt.Errorf("decode shard request: %w", err)
	}
	s.mu.Lock()
	req := s.jobs[sr.Spec.Seed]
	s.mu.Unlock()
	id := s.tr.newID()
	out := r.Clone(r.Context())
	out.Body = io.NopCloser(bytes.NewReader(body))
	out.Header.Set(spanHeader, fmt.Sprintf("%d/%d", req, id))
	start := time.Now()
	resp, err := s.base.RoundTrip(out)
	if err != nil {
		s.tr.add(id, req, req, "shard.rpc", start, time.Now())
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { s.tr.add(id, req, req, "shard.rpc", start, time.Now()) }}
	return resp, nil
}

// timedBody calls done once, when the body is exhausted or closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if errors.Is(err, io.EOF) {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// clusterFixture is a coordinator scrubd plus two in-process workers,
// wired as cmd/scrubd wires them.
type clusterFixture struct {
	coord   *cluster.Coordinator
	head    *node
	workers []*node
	timer   *shardTimer
}

func (f *clusterFixture) close() {
	// The coordinator stops first, so none of its heartbeats or
	// dispatches races a worker's shutdown.
	f.head.close()
	for _, w := range f.workers {
		w.close()
	}
}

func startCluster(e *env) (*clusterFixture, error) {
	f := &clusterFixture{}
	ms := cluster.NewMembershipWith(cluster.MembershipConfig{})
	cfg := cluster.Config{Members: ms}
	if e.tr != nil {
		f.timer = &shardTimer{base: http.DefaultTransport, tr: e.tr, jobs: map[uint64]int64{}}
		cfg.Client = &http.Client{Transport: f.timer}
	}
	f.coord = cluster.NewCoordinator(cfg)
	svcCfg := standaloneConfig()
	svcCfg.Runner = f.coord.Runner()
	head, err := startNode(e, svcCfg, false, func(mux *http.ServeMux, svc *service.Service) {
		mux.Handle("/v1/cluster/", f.coord.Handler())
		mux.Handle("/", traced(e.tr, service.NewHandlerWith(svc, service.HandlerConfig{
			Role:        "coordinator",
			LiveWorkers: ms.AliveCount,
			ClusterInfo: func() any { return f.coord.Snapshot() },
		})))
	})
	if err != nil {
		return nil, err
	}
	f.head = head
	head.loop(func(ctx context.Context) { ms.HeartbeatLoop(ctx, nil, heartbeatInterval) })
	head.loop(func(ctx context.Context) { f.coord.GossipLoop(ctx, gossipInterval) })
	for range 2 {
		w := cluster.NewWorker(1)
		wn, err := startNode(e, standaloneConfig(), false, func(mux *http.ServeMux, svc *service.Service) {
			mux.Handle(cluster.ShardPath, traced(e.tr, w.ShardHandler()))
			mux.Handle("/", service.NewHandlerWith(svc, service.HandlerConfig{Role: "worker"}))
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, wn)
		self := wn.url
		wn.loop(func(ctx context.Context) { cluster.JoinLoop(ctx, nil, head.url, self, heartbeatInterval, nil) })
		wn.loop(func(ctx context.Context) { w.StealLoop(ctx, nil, head.url, self, stealInterval, nil) })
	}
	deadline := time.Now().Add(10 * time.Second)
	for ms.AliveCount() < 2 {
		if time.Now().After(deadline) {
			f.close()
			return nil, errors.New("workers did not join the coordinator")
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

// clusterShards drives the coordinator with one closed-loop client
// submitting fresh 8-replica jobs and polling each to completion.
func clusterShards(e *env) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{}
	cl := newClient(e.tr)
	defer cl.close()
	warmSeq := int64(0)
	build := func() (*clusterFixture, error) {
		f, err := startCluster(e)
		if err != nil {
			return nil, err
		}
		warmSeq++
		if _, _, err := cl.submitAndWait(ctx, f.head.url, clusterSpec(^e.seed, warmSeq), 0, &recorder{}); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		return f, nil
	}
	f, setup, err := setupRepeated(e.setupReps(), build, (*clusterFixture).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	o.setup = setup

	var (
		recs      []*jobRecord
		submitLat recorder
	)
	snap0 := f.coord.Snapshot()
	win, err := e.begin()
	if err != nil {
		return nil, err
	}
	attempted, failed, firstErr := closedLoop(ctx, 1, win.deadline(), func(_ int, seq int64) error {
		spec := clusterSpec(e.seed, seq)
		req := e.tr.newID()
		if f.timer != nil {
			f.timer.register(spec.Seed, req)
		}
		rec, _, err := cl.submitAndWait(ctx, f.head.url, spec, req, &submitLat)
		if err != nil {
			return err
		}
		o.rec.op(rec.latency(), 1)
		recs = append(recs, rec)
		return nil
	})
	if err := win.finish(o); err != nil {
		return nil, err
	}
	snap1 := f.coord.Snapshot()
	o.attempted, o.failed = attempted, failed
	o.check("jobs_done", failed == 0, "%d of %d jobs done (first error: %v)", len(recs), attempted, firstErr)
	if err := sampleMatchesDefaultRunner(o, recs, 3); err != nil {
		return nil, err
	}
	if e.tr == nil {
		return o, nil
	}

	httpLayers(o, e.tr, "server.submit", "client.submit")
	o.layer("service.submit_ms_p50", quantile(submitLat.values(), 0.5))
	o.layer("service.submit_ms_p95", quantile(submitLat.values(), 0.95))
	o.layer("service.queue_wait_ms_p50", spanQuantile(e.tr, "job.queued", 0.5))
	o.layer("service.exec_ms_p50", spanQuantile(e.tr, "job.exec", 0.5))
	o.layer("cluster.shard_rtt_ms_p50", spanQuantile(e.tr, "shard.rpc", 0.5))
	o.layer("cluster.shard_rtt_ms_p95", spanQuantile(e.tr, "shard.rpc", 0.95))
	o.layer("cluster.worker_handler_ms_p50", spanQuantile(e.tr, "worker.shard", 0.5))
	o.layer("cluster.transport_ms_p50", selfQuantile(e.tr, "shard.rpc", 0.5))
	o.layer("cluster.merge_ms_p50", quantile(mergeTimes(e.tr, recs), 0.5))
	o.layer("cluster.shards_dispatched", float64(snap1.ShardsDispatched-snap0.ShardsDispatched))
	o.layer("cluster.shards_local", float64(snap1.ShardsLocal-snap0.ShardsLocal))
	o.layer("cluster.speculations", float64(snap1.SpeculationsLaunched-snap0.SpeculationsLaunched))
	o.layer("cluster.steals_won", float64(snap1.StealsWon-snap0.StealsWon))
	o.layer("cluster.duplicate_results", float64(snap1.DuplicateResults-snap0.DuplicateResults))
	// Useful shard executions over all started: every planned shard needs
	// one; speculative copies and stolen duplicates are the waste.
	planned := 0
	for _, rec := range recs {
		planned += rec.view.ShardsTotal
	}
	started := (snap1.ShardsDispatched - snap0.ShardsDispatched) + (snap1.ShardsLocal - snap0.ShardsLocal) +
		(snap1.SpeculationsLaunched - snap0.SpeculationsLaunched) + (snap1.StealsServed - snap0.StealsServed)
	if started > 0 {
		o.layer("cluster.useful_ratio", float64(planned)/float64(started))
	}
	w := work{}
	for _, rec := range recs {
		if err := addJobWork(w, rec); err != nil {
			return nil, err
		}
	}
	specs := []service.Spec{recs[0].spec}
	o.layer("service.fingerprint_us", fingerprintUS(specs))
	return o, engineLayers(o, w, spanTotal(e.tr, "worker.shard"))
}

// mergeTimes returns, per job, the time from its last shard response to
// the server's finished_at: merge, encode and bookkeeping on the
// coordinator.
func mergeTimes(tr *tracer, recs []*jobRecord) []float64 {
	lastShard := map[int64]int64{}
	for _, s := range tr.all() {
		if s.Name == "shard.rpc" && s.End > lastShard[s.Req] {
			lastShard[s.Req] = s.End
		}
	}
	var out []float64
	for _, rec := range recs {
		end, ok := lastShard[rec.req]
		if !ok {
			continue
		}
		finished := int64(rec.view.FinishedAt.Sub(tr.t0))
		out = append(out, float64(finished-end)/1e6)
	}
	return out
}
