package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// suiteMechanisms are the five suite mechanisms scrubd-fresh cycles through.
var suiteMechanisms = []string{"basic", "strong-ecc", "light-detect", "threshold", "combined"}

// scrubd-fresh's specs: 8192 lines for 10000 simulated seconds. A job is
// dominated by engine init (endurance draws and the initial fill) plus a
// few sweeps, the interactive what-if query, and takes ~60 ms, so a 12 s
// window completes a few hundred.
const (
	freshRowsPerBank = 32
	freshHorizon     = 10000
)

// standaloneConfig is cmd/scrubd's standalone service configuration with
// the worker pool sized to the two cores the benchmark assumes.
func standaloneConfig() service.Config {
	shed := service.DefaultShedConfig()
	return service.Config{QueueCapacity: 64, Workers: 2, CacheCapacity: 256, Shed: &shed, Aging: 30 * time.Second}
}

// geometry is the study's default geometry (32 lines per row, 64-byte
// lines) with the given banks and rows per bank.
func geometry(banks, rows int) *service.GeometrySpec {
	return &service.GeometrySpec{Channels: 1, RanksPerChan: 1, BanksPerRank: banks, RowsPerBank: rows, LinesPerRow: 32, LineBytes: 64}
}

func startStandalone(e *env, cfg service.Config) (*node, error) {
	return startNode(e, cfg, true, func(mux *http.ServeMux, svc *service.Service) {
		mux.Handle("/", traced(e.tr, service.NewHandlerWith(svc, service.HandlerConfig{Role: "standalone"})))
	})
}

// freshSpec is the seq-th never-seen spec of a run: the seed space is
// split per benchmark seed so runs under different seeds never share a
// fingerprint.
func freshSpec(seed uint64, seq int64) service.Spec {
	return service.Spec{
		Mechanism:  suiteMechanisms[int(seq)%len(suiteMechanisms)],
		Workload:   "idle-archive",
		HorizonSec: freshHorizon,
		Seed:       seed<<24 + uint64(seq) + 1,
		Geometry:   geometry(8, freshRowsPerBank),
	}
}

// scrubdFresh drives a journaled standalone scrubd with two closed-loop
// clients, each submitting a fresh spec and polling it to completion.
func scrubdFresh(e *env) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{}
	cl := newClient(e.tr)
	defer cl.close()
	// Warm-up specs come from the complement seed's range, which the
	// measured jobs never reach.
	warmSeq := int64(0)
	build := func() (*node, error) {
		n, err := startStandalone(e, standaloneConfig())
		if err != nil {
			return nil, err
		}
		for range suiteMechanisms {
			warmSeq++
			if _, _, err := cl.submitAndWait(ctx, n.url, freshSpec(^e.seed, warmSeq), 0, &recorder{}); err != nil {
				n.close()
				return nil, fmt.Errorf("warm-up job: %w", err)
			}
		}
		return n, nil
	}
	n, setup, err := setupRepeated(e.setupReps(), build, (*node).close)
	if err != nil {
		return nil, err
	}
	defer n.close()
	o.setup = setup

	var (
		mu        sync.Mutex
		recs      = map[int64]*jobRecord{}
		submitLat recorder
		polls     atomic.Int64
	)
	snap0, jc0 := n.svc.Snapshot(), countJournal(n.jn)
	win, err := e.begin()
	if err != nil {
		return nil, err
	}
	attempted, failed, firstErr := closedLoop(ctx, 2, win.deadline(), func(_ int, seq int64) error {
		rec, np, err := cl.submitAndWait(ctx, n.url, freshSpec(e.seed, seq), e.tr.newID(), &submitLat)
		polls.Add(int64(np))
		if err != nil {
			return err
		}
		o.rec.op(rec.latency(), 1)
		mu.Lock()
		recs[seq] = rec
		mu.Unlock()
		return nil
	})
	if err := win.finish(o); err != nil {
		return nil, err
	}
	snap1, jc1 := n.svc.Snapshot(), countJournal(n.jn)
	o.attempted, o.failed = attempted, failed
	ordered := make([]*jobRecord, 0, len(recs))
	for seq := range attempted {
		if rec := recs[seq]; rec != nil {
			ordered = append(ordered, rec)
		}
	}
	o.check("jobs_done", failed == 0, "%d of %d jobs done (first error: %v)", len(ordered), attempted, firstErr)
	// One result per suite mechanism against a direct library run.
	if err := sampleMatchesDefaultRunner(o, ordered, len(suiteMechanisms)); err != nil {
		return nil, err
	}
	if e.tr == nil {
		return o, nil
	}

	jobs := int64(len(ordered))
	serviceLayers(o, e.tr, snap0, snap1)
	httpLayers(o, e.tr, "server.submit", "client.submit")
	journalLayers(o, jc0, jc1, jobs)
	o.layer("service.submit_ms_p50", quantile(submitLat.values(), 0.5))
	o.layer("service.submit_ms_p95", quantile(submitLat.values(), 0.95))
	o.layer("service.jobs_completed", float64(snap1.JobsCompleted-snap0.JobsCompleted))
	if jobs > 0 {
		o.layer("http.polls_per_job", float64(polls.Load())/float64(jobs))
	}
	specs := make([]service.Spec, 0, len(ordered))
	w := work{}
	for _, rec := range ordered {
		specs = append(specs, rec.spec)
		if err := addJobWork(w, rec); err != nil {
			return nil, err
		}
	}
	o.layer("service.fingerprint_us", fingerprintUS(specs))
	body, err := json.Marshal(specs[0])
	if err != nil {
		return nil, err
	}
	o.layer("http.decode_us_per_spec", decodeUSPerSpec(body, 1, func() any { return new(service.Spec) }))
	appendMS, err := journalAppendMS(e.dir, specs[0])
	if err != nil {
		return nil, err
	}
	o.layer("journal.append_ms_p50", appendMS)
	return o, engineLayers(o, w, spanTotal(e.tr, "job.exec"))
}

// addJobWork counts a finished job's runs in the work groups of its spec.
func addJobWork(w work, rec *jobRecord) error {
	sys, mech, wl, err := rec.spec.Build()
	if err != nil {
		return err
	}
	res, err := rec.result()
	if err != nil {
		return err
	}
	g := w.group(sys, mech, wl)
	for _, run := range res.Runs {
		g.addRunMetrics(run)
	}
	return nil
}

// spanTotal sums the durations of every span with the name.
func spanTotal(tr *tracer, name string) time.Duration {
	total := 0.0
	for _, d := range tr.durations(name) {
		total += d
	}
	return time.Duration(total * float64(time.Millisecond))
}

// serviceLayers records admission outcomes and job phases in the window.
func serviceLayers(o *outcome, tr *tracer, a, b service.Snapshot) {
	if accepted := b.JobsAccepted - a.JobsAccepted; accepted > 0 {
		o.layer("service.cache_hit_ratio", float64(b.CacheHits-a.CacheHits)/float64(accepted))
		o.layer("service.dedup_ratio", float64(b.Deduped-a.Deduped)/float64(accepted))
	}
	o.layer("service.queue_wait_ms_p50", spanQuantile(tr, "job.queued", 0.5))
	o.layer("service.exec_ms_p50", spanQuantile(tr, "job.exec", 0.5))
}

// floodParams sizes scrubd-flood.
type floodParams struct {
	pool      int     // distinct specs pre-warmed into the cache
	batch     int     // specs per POST /v1/jobs/batch
	freshFrac float64 // share of specs never seen before
}

// floodSpec is a 128-line web-serve spec: cheap enough that pre-warming
// the pool and running the fresh 3% keep the engine nearly idle.
func floodSpec(seed uint64) service.Spec {
	return service.Spec{
		Mechanism:  "combined",
		Workload:   "web-serve",
		HorizonSec: 3600,
		Seed:       seed,
		Geometry:   geometry(4, 1),
	}
}

// hitSamples is how many pool specs keep their first computation's bytes
// for the cache-hit identity check.
const hitSamples = 16

// scrubdFlood drives the same daemon with two closed-loop clients POSTing
// 64-spec batches: 97% are duplicates of a pre-warmed pool, so the work
// is admission (decode, normalise, fingerprint, cache and dedup, group
// commit) rather than simulation.
func scrubdFlood(e *env) (*outcome, error) {
	ctx := context.Background()
	p := floodParams{pool: 500, batch: 64, freshFrac: 0.03}
	if e.small {
		p.pool = 64
	}
	o := &outcome{}
	cl := newClient(e.tr)
	defer cl.close()
	poolSeed := func(i int) uint64 { return e.seed<<24 + uint64(i) + 1 }
	// The queue holds every fresh spec a window can produce, so nothing is
	// shed; the cache holds the pool plus every fresh result.
	cfg := standaloneConfig()
	cfg.QueueCapacity = 4096
	cfg.CacheCapacity = 1 << 16
	type fixture struct {
		n     *node
		first map[string][]byte // fingerprint -> first computation's bytes
	}
	build := func() (fixture, error) {
		n, err := startStandalone(e, cfg)
		if err != nil {
			return fixture{}, err
		}
		fx := fixture{n: n, first: map[string][]byte{}}
		ids := make([]string, 0, p.pool)
		for lo := 0; lo < p.pool; lo += p.batch {
			req := service.BatchSubmitRequest{}
			for i := lo; i < min(lo+p.batch, p.pool); i++ {
				req.Specs = append(req.Specs, floodSpec(poolSeed(i)))
			}
			var resp service.BatchSubmitResponse
			if _, err := cl.do(ctx, http.MethodPost, n.url+"/v1/jobs/batch", req, &resp, http.StatusOK, 0, "client.batch"); err != nil {
				n.close()
				return fixture{}, fmt.Errorf("pre-warm batch: %w", err)
			}
			for _, it := range resp.Results {
				if it.Status != http.StatusAccepted {
					n.close()
					return fixture{}, fmt.Errorf("pre-warm spec refused with %d: %s", it.Status, it.Error)
				}
				ids = append(ids, it.ID)
			}
		}
		for i, id := range ids {
			v, _, err := cl.awaitJob(ctx, n.url, id, 0)
			if err != nil {
				n.close()
				return fixture{}, fmt.Errorf("pre-warm job: %w", err)
			}
			if i < hitSamples {
				fx.first[v.Fingerprint] = v.Result
			}
		}
		return fx, nil
	}
	fx, setup, err := setupRepeated(e.setupReps(), build, func(f fixture) { f.n.close() })
	if err != nil {
		return nil, err
	}
	defer fx.n.close()
	o.setup = setup
	n := fx.n

	var (
		freshSeq   atomic.Int64
		attempted  atomic.Int64
		rejected   atomic.Int64
		mu         sync.Mutex
		hits       = map[string]string{} // sampled pool fingerprint -> a cache-hit job ID
		sampleBody []byte
	)
	rngs := []*rand.Rand{
		rand.New(rand.NewPCG(e.seed, 1)),
		rand.New(rand.NewPCG(e.seed, 2)),
	}
	snap0, jc0 := n.svc.Snapshot(), countJournal(n.jn)
	win, err := e.begin()
	if err != nil {
		return nil, err
	}
	_, _, firstErr := closedLoop(ctx, 2, win.deadline(), func(c int, _ int64) error {
		rng := rngs[c]
		req := service.BatchSubmitRequest{Specs: make([]service.Spec, p.batch)}
		pooled := make([]int, p.batch)
		for i := range req.Specs {
			pooled[i] = -1
			if rng.Float64() < p.freshFrac {
				req.Specs[i] = floodSpec(poolSeed(p.pool) + uint64(freshSeq.Add(1)))
				continue
			}
			pooled[i] = rng.IntN(p.pool)
			req.Specs[i] = floodSpec(poolSeed(pooled[i]))
		}
		attempted.Add(int64(p.batch))
		id := e.tr.newID()
		var resp service.BatchSubmitResponse
		rtt, err := cl.do(ctx, http.MethodPost, n.url+"/v1/jobs/batch", req, &resp, http.StatusOK, id, "client.batch")
		if err != nil {
			rejected.Add(int64(p.batch))
			return err
		}
		if len(resp.Results) != p.batch {
			rejected.Add(int64(p.batch))
			return fmt.Errorf("batch of %d got %d verdicts", p.batch, len(resp.Results))
		}
		var (
			bad      error
			accepted int
		)
		for i, it := range resp.Results {
			if it.Status != http.StatusOK && it.Status != http.StatusAccepted {
				rejected.Add(1)
				bad = fmt.Errorf("spec refused with %d: %s", it.Status, it.Error)
				continue
			}
			accepted++
			if pooled[i] >= 0 && pooled[i] < hitSamples && it.CacheHit {
				mu.Lock()
				hits[it.Fingerprint] = it.ID
				mu.Unlock()
			}
		}
		o.rec.op(rtt, float64(accepted))
		if e.tr != nil && sampleBody == nil && c == 0 {
			sampleBody, _ = json.Marshal(req) // replayed below; same encoding the client sent
		}
		return bad
	})
	if err := win.finish(o); err != nil {
		return nil, err
	}
	snap1, jc1 := n.svc.Snapshot(), countJournal(n.jn)
	o.attempted, o.failed = attempted.Load(), rejected.Load()
	o.check("verdicts_200_or_202", o.failed == 0, "%.0f of %d specs accepted (first error: %v)", o.rec.items(), o.attempted, firstErr)

	same := 0
	for fp, id := range hits {
		var v service.JobView
		if _, err := cl.do(ctx, http.MethodGet, n.url+"/v1/jobs/"+id, nil, &v, http.StatusOK, 0, "client.poll"); err != nil {
			return nil, err
		}
		if string(v.Result) == string(fx.first[fp]) {
			same++
		}
	}
	o.check("cache_hit_identical", len(hits) > 0 && same == len(hits),
		"%d of %d sampled cache hits byte-identical to the first computation", same, len(hits))
	if e.tr == nil {
		return o, nil
	}
	// Let the fresh jobs still queued finish, so the replays below time
	// their calls on idle cores.
	for idleBy := time.Now().Add(10 * time.Second); time.Now().Before(idleBy); time.Sleep(time.Millisecond) {
		if s := n.svc.Snapshot(); s.QueueDepth == 0 && s.BusyWorkers == 0 {
			break
		}
	}

	serviceLayers(o, e.tr, snap0, snap1)
	httpLayers(o, e.tr, "server.batch", "client.batch")
	journalLayers(o, jc0, jc1, snap1.CacheMisses-snap0.CacheMisses)
	o.layer("service.submit_ms_p50", quantile(o.rec.values(), 0.5))
	o.layer("service.submit_ms_p95", quantile(o.rec.values(), 0.95))
	o.layer("service.specs_per_s", o.rec.items()/o.window.Seconds())
	o.layer("service.jobs_completed", float64(snap1.JobsCompleted-snap0.JobsCompleted))
	var batch service.BatchSubmitRequest
	if err := json.Unmarshal(sampleBody, &batch); err != nil {
		return nil, err
	}
	o.layer("service.fingerprint_us", fingerprintUS(batch.Specs))
	o.layer("http.decode_us_per_spec", decodeUSPerSpec(sampleBody, p.batch, func() any { return new(service.BatchSubmitRequest) }))
	appendMS, err := journalAppendMS(e.dir, batch.Specs[0])
	if err != nil {
		return nil, err
	}
	o.layer("journal.append_ms_p50", appendMS)
	spec := floodSpec(1)
	sys, mech, wl, err := spec.Build()
	if err != nil {
		return nil, err
	}
	w := work{}
	w.group(sys, mech, wl).addTotals(totalsDelta(snap0.Engine, snap1.Engine))
	return o, engineLayers(o, w, o.cpu)
}
