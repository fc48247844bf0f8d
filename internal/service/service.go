package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/journal"
)

// State is a job's lifecycle position. Transitions:
//
//	queued → running → done | failed | cancelled
//	queued → cancelled
//
// Cache hits are born done.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Submission is what a submit returns: where the job landed and whether
// existing work was reused.
type Submission struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	State       State  `json:"state"`
	// CacheHit marks a job answered from the result cache (born done).
	CacheHit bool `json:"cache_hit"`
	// Deduped marks a submission attached to an identical queued or
	// running job; the returned ID is that job's.
	Deduped bool `json:"deduped"`
}

// JobView is the externally visible state of a job.
type JobView struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	State       State  `json:"state"`
	CacheHit    bool   `json:"cache_hit,omitempty"`
	// Recovered marks a job replayed from the journal after a restart.
	Recovered bool `json:"recovered,omitempty"`
	// Tenant is the submitting tenant (X-Scrubd-Tenant), for attribution.
	Tenant      string     `json:"tenant,omitempty"`
	Attached    int        `json:"attached,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	WallSeconds float64    `json:"wall_seconds,omitempty"`
	// ShardsDone/ShardsTotal expose a running job's cluster shard
	// progress (both zero for unsharded execution).
	ShardsDone  int    `json:"shards_done,omitempty"`
	ShardsTotal int    `json:"shards_total,omitempty"`
	Error       string `json:"error,omitempty"`
	Spec        *Spec  `json:"spec,omitempty"`
	// Result is the encoded Result, present once the job is done.
	Result json.RawMessage `json:"result,omitempty"`
}

// job is the internal record; all fields are guarded by Service.mu.
type job struct {
	id          string
	fingerprint string
	spec        Spec
	state       State
	err         string
	cacheHit    bool
	recovered   bool
	attached    int // extra submissions deduped onto this job
	escalations int // attached submissions that raised the job's class
	submitted   time.Time
	started     time.Time
	finished    time.Time
	result      []byte
	cancel      context.CancelFunc
	ctx         context.Context
	// Scheduling position: class and deadline order the priority queue,
	// arrival breaks ties. tenant is the submitting tenant, for
	// observability only.
	class    Class
	deadline time.Time
	arrival  uint64
	tenant   string
	// shardsDone/shardsTotal track cluster shard progress, reported by
	// the runner through ReportShardProgress.
	shardsDone, shardsTotal int
	// resume carries a recovered job's journaled shard plan and
	// checkpoints into its next execution.
	resume *shardResume
}

// shardResume is the durable shard state a recovered job resumes from.
type shardResume struct {
	plan        []journal.ShardRange
	checkpoints map[journal.ShardRange]json.RawMessage
}

// Runner executes one normalised spec. It is injectable so tests can
// substitute deterministic or blocking executions.
type Runner func(ctx context.Context, spec Spec) (*Result, error)

// DefaultRunner executes the spec via the resilient replication runner.
func DefaultRunner(ctx context.Context, spec Spec) (*Result, error) {
	sys, mech, w, err := spec.Build()
	if err != nil {
		return nil, err
	}
	rep, err := core.RunReplicatedContext(ctx, sys, mech, w, spec.Replicas)
	if err != nil {
		return nil, err
	}
	return NewResult(spec, rep), nil
}

// Config sizes a Service.
type Config struct {
	// QueueCapacity bounds the queued backlog (0 = 64). Submissions beyond
	// it are rejected with ErrQueueFull rather than queued unboundedly.
	QueueCapacity int
	// Workers sizes the pool (0 = GOMAXPROCS).
	Workers int
	// CacheCapacity bounds the LRU result cache (0 = 256 entries;
	// negative disables caching).
	CacheCapacity int
	// Runner overrides job execution (nil = DefaultRunner).
	Runner Runner
	// Journal, when non-nil, makes every accepted job durable: the
	// lifecycle is written ahead to it, and Recover replays a previous
	// incarnation's journal back into the queue.
	Journal *journal.Journal

	// Shed, when non-nil, enables watermark-driven load shedding (see
	// ShedConfig). nil keeps the legacy behaviour: admit every class
	// until the queue is full.
	Shed *ShedConfig
	// TenantRate/TenantBurst enable per-tenant token-bucket admission
	// (TenantRate tokens/sec refill, TenantBurst bucket size). Either
	// being zero disables rate limiting.
	TenantRate  float64
	TenantBurst int
	// Aging is the starvation-avoidance knob: once the longest-waiting
	// queued job has waited at least this long it is served next, ahead
	// of higher classes and earlier deadlines (0 = strict precedence,
	// fully deterministic order).
	Aging time.Duration
}

// Errors the submission and control paths return; the HTTP layer maps
// them to status codes.
var (
	ErrQueueFull  = errors.New("service: queue full")
	ErrClosed     = errors.New("service: shutting down")
	ErrNotFound   = errors.New("service: no such job")
	ErrNotRunning = errors.New("service: job already finished")
)

// Service is the long-running scrub-simulation daemon core: a bounded
// priority queue (strict class precedence, earliest-deadline-first
// within a class) feeding a worker pool, guarded by admission control
// (per-tenant token buckets, watermark-driven load shedding) and fronted
// by a content-addressed result cache with single-flight deduplication.
type Service struct {
	queueCap int
	workers  int
	runner   Runner
	journal  *journal.Journal
	shed     *ShedConfig
	aging    time.Duration

	mu        sync.Mutex
	queueCond *sync.Cond // signalled on push; workers park here
	jobs      map[string]*job
	inflight  map[string]*job // fingerprint → queued/running job
	cache     *resultCache
	pq        priorityQueue
	tenants   *tokenBuckets
	arrival   uint64
	nextID    int
	closed    bool

	// stats holds the operational counters, kept under mu; Snapshot
	// copies it and fills in the gauges. wall sums finished executions'
	// wall time.
	stats Snapshot
	wall  time.Duration

	wg       sync.WaitGroup
	baseCtx  context.Context
	baseStop context.CancelFunc

	// started anchors the /healthz uptime report.
	started time.Time

	// now is the clock, a hook for deterministic tests.
	now func() time.Time
}

// New starts a Service and its worker pool.
func New(cfg Config) *Service {
	if cfg.QueueCapacity == 0 {
		cfg.QueueCapacity = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = 256
	}
	if cfg.Runner == nil {
		cfg.Runner = DefaultRunner
	}
	if cfg.Shed != nil {
		if err := cfg.Shed.Validate(); err != nil {
			panic(err) // a programming error: callers pass fixed ladders
		}
		shed := *cfg.Shed
		cfg.Shed = &shed
	}
	s := &Service{
		queueCap: cfg.QueueCapacity,
		workers:  cfg.Workers,
		runner:   cfg.Runner,
		journal:  cfg.Journal,
		shed:     cfg.Shed,
		aging:    cfg.Aging,
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		cache:    newResultCache(cfg.CacheCapacity),
		tenants:  newTokenBuckets(cfg.TenantRate, cfg.TenantBurst),
		now:      time.Now,
	}
	s.queueCond = sync.NewCond(&s.mu)
	s.started = s.now()
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// SubmitOptions carries per-request admission context that is not part
// of the spec's identity: the submitting tenant (the X-Scrubd-Tenant
// header on the HTTP surface; "" is the anonymous tenant).
type SubmitOptions struct {
	Tenant string
}

// SubmitWith runs the full admission pipeline for one spec: normalise
// and fingerprint, reject already-dead deadlines, then answer from the
// cache, attach to an identical in-flight job, or — shed state and
// queue capacity permitting — enqueue a fresh one, in that order. The
// tenant's token bucket is charged only once the request is otherwise
// admissible, so a submitter retrying against a full or shedding queue
// does not burn its rate budget on refusals. Rejections map to typed
// errors (ErrRateLimited, ErrDeadlineExpired, ErrShedding,
// ErrQueueFull, ErrClosed) that the HTTP layer turns into statuses.
// It is a batch of one, admitted by the same path as SubmitBatch.
func (s *Service) SubmitWith(spec Spec, opts SubmitOptions) (Submission, error) {
	res := s.submit([]Spec{spec}, opts)[0]
	return res.Submission, res.Err
}

// BatchResult is one spec's outcome within a batch submission: either a
// Submission or the admission error that refused it.
type BatchResult struct {
	Submission Submission
	Err        error
}

// SubmitBatch admits many specs in one pass under one lock hold and —
// the point — one journal group commit: every spec that needs fresh work
// is written ahead in a single AppendBatch (one fsync for the whole
// batch, not one per job) before any of them is enqueued. Each spec
// passes through exactly the admission SubmitWith runs, in order, so
// each gets the verdict it would have received sent alone right after
// its predecessors: a duplicate of an earlier spec in the same batch
// attaches to that spec's job, and is still subject to the deadline,
// shed and token-bucket checks. A journal failure refuses every job
// riding on that commit — the fresh jobs and every spec deduped onto
// one — while cache hits and dedups against already-journaled in-flight
// jobs stand.
func (s *Service) SubmitBatch(specs []Spec, opts SubmitOptions) []BatchResult {
	s.mu.Lock()
	s.stats.BatchRequests++
	s.stats.BatchSpecs += int64(len(specs))
	s.mu.Unlock()
	return s.submit(specs, opts)
}

// submit is the one admission path from spec to queue. Specs are
// normalised outside the lock, then admitted in order under s.mu. A
// fresh job is in s.inflight from the moment it is minted, so a later
// duplicate attaches to it like to any in-flight job; no one else sees
// it before the group commit, because s.mu is held through it.
// Write-ahead: the fresh jobs must be durable before any of them is
// acknowledged, or a crash after the 202 would silently drop them.
func (s *Service) submit(specs []Spec, opts SubmitOptions) []BatchResult {
	results := make([]BatchResult, len(specs))
	norms := make([]Spec, len(specs))
	fps := make([]string, len(specs))
	for i, sp := range specs {
		if norms[i], results[i].Err = sp.Normalized(); results[i].Err == nil {
			fps[i] = norms[i].Fingerprint()
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	var fresh []*job
	for i, norm := range norms {
		if results[i].Err != nil {
			continue
		}
		sub, j, err := s.admitLocked(norm, fps[i], opts, len(fresh))
		if j != nil {
			fresh = append(fresh, j)
		}
		results[i] = BatchResult{Submission: sub, Err: err}
	}
	if err := s.journalSubmitted(fresh); err != nil {
		// The barrier failed: no result riding on a fresh job may stand.
		// Those are exactly the accepted results whose job never reached
		// s.jobs; the dedup and escalation counts their attaches added
		// are taken back.
		for _, j := range fresh {
			delete(s.inflight, j.fingerprint)
			s.stats.JobsAccepted -= int64(j.attached)
			s.stats.Deduped -= int64(j.attached)
			s.stats.Escalated -= int64(j.escalations)
		}
		for i, res := range results {
			if res.Err == nil && s.jobs[res.Submission.ID] == nil {
				results[i] = BatchResult{Err: err}
			}
		}
		return results
	}
	for _, j := range fresh {
		s.enqueueLocked(j)
	}
	return results
}

// admitLocked decides one spec's fate. It returns either a terminal
// Submission (cache hit or dedup attach; job == nil), or a freshly
// minted job, already registered in s.inflight, that the caller must
// journal and enqueue, or an admission error.
// pending is how many jobs the caller has admitted but not yet enqueued,
// counted against watermarks and capacity. Caller holds s.mu.
func (s *Service) admitLocked(norm Spec, fp string, opts SubmitOptions, pending int) (Submission, *job, error) {
	if s.closed {
		return Submission{}, nil, ErrClosed
	}
	class := norm.Class()
	deadline, hasDeadline, err := norm.DeadlineTime()
	if err != nil {
		return Submission{}, nil, err
	}
	if hasDeadline && !deadline.After(s.now()) {
		s.stats.DeadlineRejected++
		return Submission{}, nil, fmt.Errorf("%w (deadline_at %s)", ErrDeadlineExpired, norm.DeadlineAt)
	}
	state := s.shedStateFor(pending)
	if !state.AdmitsCheap(class) {
		s.countShed(class)
		return Submission{}, nil, &ShedError{State: state, Class: class}
	}
	// takeToken charges the tenant's bucket; it runs at the mouth of each
	// admitted path, after every other refusal check, so a request the
	// service would refuse anyway (shed, queue full, dead deadline) never
	// burns rate budget — a tenant retrying against a saturated queue can
	// still get work in the moment capacity returns.
	takeToken := func() error {
		if s.tenants == nil {
			return nil
		}
		if ok, wait := s.tenants.take(opts.Tenant, s.now()); !ok {
			s.stats.RateLimited++
			return &RateLimitError{Tenant: opts.Tenant, Wait: wait}
		}
		return nil
	}
	if data, ok := s.cache.get(fp); ok {
		if err := takeToken(); err != nil {
			return Submission{}, nil, err
		}
		j := &job{
			id: s.newID(), fingerprint: fp, spec: norm,
			state: StateDone, cacheHit: true,
			class: class, tenant: opts.Tenant,
			submitted: s.now(), finished: s.now(), result: data,
		}
		s.jobs[j.id] = j
		s.stats.JobsAccepted++
		s.stats.CacheHits++
		return Submission{ID: j.id, Fingerprint: fp, State: StateDone, CacheHit: true}, nil, nil
	}
	if cur, ok := s.inflight[fp]; ok {
		if err := takeToken(); err != nil {
			return Submission{}, nil, err
		}
		s.attachLocked(cur, class, deadline, hasDeadline)
		return Submission{ID: cur.id, Fingerprint: fp, State: cur.state, Deduped: true}, nil, nil
	}
	if !state.AdmitsFresh(class) {
		s.countShed(class)
		return Submission{}, nil, &ShedError{State: state, Class: class}
	}
	// Submissions and Recover all enqueue under s.mu, so this occupancy
	// check cannot race another producer.
	if len(s.pq)+pending >= s.queueCap {
		s.stats.JobsRejected++
		return Submission{}, nil, fmt.Errorf("%w (capacity %d)", ErrQueueFull, s.queueCap)
	}
	if err := takeToken(); err != nil {
		return Submission{}, nil, err
	}
	s.arrival++
	j := &job{
		id: s.newID(), fingerprint: fp, spec: norm,
		state: StateQueued, submitted: s.now(),
		class: class, tenant: opts.Tenant, arrival: s.arrival,
	}
	if hasDeadline {
		j.deadline = deadline
	}
	s.inflight[fp] = j
	return Submission{ID: j.id, Fingerprint: fp, State: StateQueued}, j, nil
}

// attachLocked dedups a submission onto an identical queued or running
// job, escalating the queued job's scheduling position when the new
// submission outranks it: the class rises to the higher of the two and
// the deadline tightens to the earlier — whoever is waiting hardest sets
// the pace for the shared run. Both are in-place updates: the job keeps
// its arrival position, and with it its age. Caller holds s.mu.
func (s *Service) attachLocked(cur *job, class Class, deadline time.Time, hasDeadline bool) {
	cur.attached++
	s.stats.JobsAccepted++
	s.stats.Deduped++
	if cur.state != StateQueued {
		return
	}
	if class > cur.class {
		cur.class = class
		cur.escalations++
		s.stats.Escalated++
	}
	if hasDeadline && (cur.deadline.IsZero() || deadline.Before(cur.deadline)) {
		cur.deadline = deadline
	}
}

// shedStateFor computes the shed state as if pending extra jobs were
// already enqueued. Caller holds s.mu.
func (s *Service) shedStateFor(pending int) ShedState {
	if s.shed == nil {
		return ShedHealthy
	}
	return s.shed.state(len(s.pq)+pending, s.queueCap)
}

// countShed attributes a shed rejection to its class.
func (s *Service) countShed(class Class) {
	switch class {
	case ClassInteractive:
		s.stats.ShedInteractive++
	case ClassNormal:
		s.stats.ShedNormal++
	default:
		s.stats.ShedBatch++
	}
}

// enqueueLocked publishes an admitted, journaled job to the queue and
// wakes a worker. Caller holds s.mu.
func (s *Service) enqueueLocked(j *job) {
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	s.jobs[j.id] = j
	s.pq.push(j)
	s.stats.JobsAccepted++
	s.stats.CacheMisses++
	s.queueCond.Signal()
}

// journalSubmitted write-aheads fresh jobs' acceptance as one group
// commit: N records, one fsync. No journal or no jobs is a no-op; an
// append failure rejects the submissions (the daemon must not
// acknowledge work it cannot make durable).
func (s *Service) journalSubmitted(jobs []*job) error {
	if s.journal == nil || len(jobs) == 0 {
		return nil
	}
	recs := make([]journal.Record, 0, len(jobs))
	for _, j := range jobs {
		specJSON, err := json.Marshal(j.spec)
		if err != nil {
			return fmt.Errorf("service: encode spec for journal: %w", err)
		}
		recs = append(recs, journal.Record{
			Type: journal.TypeSubmitted, Job: j.id,
			Fingerprint: j.fingerprint, Spec: specJSON,
		})
	}
	return s.journal.AppendBatch(recs)
}

// journalEvent appends a lifecycle record best-effort: past the
// submission barrier, a failed append must not fail the job — replay is
// idempotent, so the worst case is re-executing a deterministic job.
func (s *Service) journalEvent(rec journal.Record) {
	if s.journal == nil {
		return
	}
	_ = s.journal.Append(rec)
}

// newID mints a monotonically increasing job ID. Caller holds s.mu.
func (s *Service) newID() string {
	s.nextID++
	return fmt.Sprintf("job-%06d", s.nextID)
}

// dequeue blocks until the priority queue yields a runnable job or the
// service shuts down (then it drains the backlog before reporting done).
// Jobs whose deadline passed while they waited are reaped here — failed
// without ever running, with a terminal journal record — rather than
// executed uselessly past their useful-by time.
func (s *Service) dequeue() (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		j, aged := s.pq.pick(s.now(), s.aging)
		if j == nil {
			if s.closed {
				return nil, false
			}
			s.queueCond.Wait()
			continue
		}
		if j.state != StateQueued { // belt: cancellation removes eagerly
			continue
		}
		if !j.deadline.IsZero() && !j.deadline.After(s.now()) {
			j.state = StateFailed
			j.finished = s.now()
			j.err = fmt.Sprintf("%v (reaped from queue)", ErrDeadlineExpired)
			if j.cancel != nil {
				// Release the job context's registration under baseCtx; a
				// reaped job never runs, so nothing else will.
				j.cancel()
			}
			if s.inflight[j.fingerprint] == j {
				delete(s.inflight, j.fingerprint)
			}
			s.stats.DeadlineReaped++
			s.stats.JobsFailed++
			s.journalEvent(journal.Record{Type: journal.TypeFailed, Job: j.id, Error: j.err})
			continue
		}
		if aged {
			s.stats.AgedServed++
		}
		return j, true
	}
}

// worker drains the queue until it is closed.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.dequeue()
		if !ok {
			return
		}
		s.mu.Lock()
		if j.state != StateQueued { // cancelled between dequeue and here
			s.mu.Unlock()
			continue
		}
		j.state = StateRunning
		j.started = s.now()
		s.stats.BusyWorkers++
		spec := j.spec
		// A sharding runner (the cluster coordinator) reports shard
		// progress through the context; it lands in the job view.
		ctx := WithShardProgress(j.ctx, func(done, total int) {
			s.mu.Lock()
			j.shardsDone, j.shardsTotal = done, total
			s.mu.Unlock()
		})
		if s.journal != nil {
			ctx = WithShardLog(ctx, s.shardLogFor(j))
		}
		s.mu.Unlock()
		s.journalEvent(journal.Record{Type: journal.TypeStarted, Job: j.id})

		// Deadline propagation starts here: the spec's budget bounds the
		// whole execution, and (via the context) every shard RPC a
		// sharding runner issues downstream.
		cancelBudget := func() {}
		if spec.TimeoutSec > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(spec.TimeoutSec*float64(time.Second)))
			cancelBudget = cancel
		}

		res, err := s.runContained(ctx, spec)
		cancelBudget()
		s.finish(j, res, err)
	}
}

// shardLogFor builds a job's durability hooks: plan and shard-done
// records append to the journal under the job's ID, and a recovered
// job's resume state rides along. Caller holds s.mu.
func (s *Service) shardLogFor(j *job) *ShardLog {
	id := j.id
	sl := &ShardLog{
		RecordPlan: func(plan []journal.ShardRange) {
			s.journalEvent(journal.Record{Type: journal.TypePlan, Job: id, Plan: plan})
		},
		RecordShard: func(rg journal.ShardRange, payload []byte) {
			s.journalEvent(journal.Record{Type: journal.TypeShardDone, Job: id, Shard: &rg, Payload: payload})
		},
	}
	if j.resume != nil {
		sl.Plan = j.resume.plan
		sl.Checkpoints = j.resume.checkpoints
	}
	return sl
}

// runContained invokes the runner with panic containment: a defective
// job fails; it does not take the daemon down.
func (s *Service) runContained(ctx context.Context, spec Spec) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("service: job panicked: %v", p)
		}
	}()
	return s.runner(ctx, spec)
}

// finish records a run's outcome and publishes it to the cache.
func (s *Service) finish(j *job, res *Result, err error) {
	var data []byte
	if err == nil {
		if res == nil {
			err = errors.New("service: runner returned no result")
		} else if data, err = json.Marshal(res); err != nil {
			err = fmt.Errorf("service: encode result: %w", err)
		}
	}

	s.mu.Lock()
	s.stats.BusyWorkers--
	j.finished = s.now()
	if !j.started.IsZero() {
		s.wall += j.finished.Sub(j.started)
	}
	if s.inflight[j.fingerprint] == j {
		delete(s.inflight, j.fingerprint)
	}
	if j.state == StateCancelled {
		// Cancelled via Cancel while running; the outcome, even a
		// success that raced the cancellation, is discarded. Cancel
		// already journaled the terminal record.
		s.mu.Unlock()
		return
	}
	var rec journal.Record
	switch {
	case err == nil:
		j.state = StateDone
		j.result = data
		s.cache.add(j.fingerprint, data)
		s.stats.JobsCompleted++
		rec = journal.Record{Type: journal.TypeDone, Job: j.id, Payload: data}
	case j.ctx.Err() != nil:
		j.state = StateCancelled
		j.err = err.Error()
		s.stats.JobsCancelled++
		rec = journal.Record{Type: journal.TypeCancelled, Job: j.id, Error: j.err}
	default:
		j.state = StateFailed
		j.err = err.Error()
		s.stats.JobsFailed++
		rec = journal.Record{Type: journal.TypeFailed, Job: j.id, Error: j.err}
	}
	// Release the job context's registration under baseCtx now that the
	// job is terminal; the state switch above has read ctx.Err().
	j.cancel()
	s.mu.Unlock()
	// The terminal record is appended outside the lock: an fsync must
	// not stall Get/List/SubmitWith. Replay tolerates its absence (the job
	// would simply re-run), so best-effort is sound here.
	s.journalEvent(rec)
}

// Cancel moves a queued or running job to cancelled. A queued job never
// runs; a running job's context is cancelled and the simulator returns
// within a substep. Cancelling a terminal job returns ErrNotRunning with
// the job's current view.
func (s *Service) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	if j.state.Terminal() {
		return s.viewLocked(j, false), ErrNotRunning
	}
	if j.state == StateQueued {
		j.finished = s.now()
		s.pq.remove(j)
	}
	j.state = StateCancelled
	j.err = "cancelled by request"
	if s.inflight[j.fingerprint] == j {
		delete(s.inflight, j.fingerprint)
	}
	if j.cancel != nil {
		j.cancel()
	}
	s.stats.JobsCancelled++
	// Journaled under s.mu deliberately: the cancelled record must beat
	// any later lifecycle append for this job, so a recovery that saw
	// this DELETE can never re-execute the job.
	s.journalEvent(journal.Record{Type: journal.TypeCancelled, Job: j.id, Error: j.err})
	return s.viewLocked(j, false), nil
}

// Recover replays a previous incarnation's journal into the service:
// terminal jobs are restored verbatim (done results re-seed the cache),
// incomplete jobs are re-enqueued under their original IDs with their
// shard plan and completed-shard checkpoints attached, and the ID
// counter resumes past every recovered ID. Because replica seeds derive
// from absolute indices, a recovered campaign's final result is
// byte-identical to an uninterrupted run.
//
// Call Recover after New and before serving traffic; it returns the
// number of jobs re-enqueued for execution.
func (s *Service) Recover(rec *journal.Recovery) (int, error) {
	if rec == nil {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	requeued := 0
	for _, js := range rec.Jobs {
		if n, ok := jobNum(js.ID); ok && n > s.nextID {
			s.nextID = n
		}
		if _, exists := s.jobs[js.ID]; exists {
			continue
		}
		j := &job{
			id:          js.ID,
			fingerprint: js.Fingerprint,
			recovered:   true,
			submitted:   s.now(),
		}
		if len(js.Spec) > 0 {
			// Best-effort: a terminal job's view survives without a spec.
			_ = json.Unmarshal(js.Spec, &j.spec)
		}
		switch js.State {
		case journal.TypeDone:
			j.state = StateDone
			j.finished = s.now()
			j.result = js.Result
			s.cache.add(j.fingerprint, j.result)
			s.stats.JobsRestored++
		case journal.TypeFailed:
			j.state = StateFailed
			j.finished = s.now()
			j.err = js.Error
			s.stats.JobsRestored++
		case journal.TypeCancelled:
			// A job cancelled before the crash recovers directly into
			// cancelled; it must never re-execute.
			j.state = StateCancelled
			j.finished = s.now()
			j.err = js.Error
			s.stats.JobsRestored++
		default: // submitted or started: accepted work, owed a result
			var spec Spec
			if err := json.Unmarshal(js.Spec, &spec); err != nil {
				j.state = StateFailed
				j.finished = s.now()
				j.err = fmt.Sprintf("service: recovered spec unreadable: %v", err)
				break
			}
			norm, err := spec.Normalized()
			if err != nil {
				j.state = StateFailed
				j.finished = s.now()
				j.err = fmt.Sprintf("service: recovered spec no longer valid: %v", err)
				break
			}
			if len(s.pq) >= s.queueCap {
				j.state = StateFailed
				j.finished = s.now()
				j.err = "service: recovered job overflowed the queue"
				break
			}
			j.spec = norm
			j.state = StateQueued
			j.class = norm.Class()
			if dl, ok, _ := norm.DeadlineTime(); ok {
				j.deadline = dl
			}
			s.arrival++
			j.arrival = s.arrival
			if len(js.Plan) > 0 || len(js.Shards) > 0 {
				j.resume = &shardResume{plan: js.Plan, checkpoints: js.Shards}
			}
			j.ctx, j.cancel = context.WithCancel(s.baseCtx)
			s.pq.push(j)
			s.queueCond.Signal()
			if _, dup := s.inflight[j.fingerprint]; !dup {
				s.inflight[j.fingerprint] = j
			}
			s.stats.JobsRecovered++
			requeued++
		}
		s.jobs[j.id] = j
	}
	return requeued, nil
}

// jobNum extracts the numeric suffix of a service-minted job ID.
func jobNum(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Get returns a job's view, including its result when done.
func (s *Service) Get(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	return s.viewLocked(j, true), nil
}

// List returns all jobs in submission order, without result payloads.
func (s *Service) List() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	views := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, s.viewLocked(j, false))
	}
	sort.Slice(views, func(a, b int) bool { return views[a].ID < views[b].ID })
	return views
}

// viewLocked renders a job. Caller holds s.mu.
func (s *Service) viewLocked(j *job, includeResult bool) JobView {
	v := JobView{
		ID:          j.id,
		Fingerprint: j.fingerprint,
		State:       j.state,
		CacheHit:    j.cacheHit,
		Recovered:   j.recovered,
		Tenant:      j.tenant,
		Attached:    j.attached,
		SubmittedAt: j.submitted,
		ShardsDone:  j.shardsDone,
		ShardsTotal: j.shardsTotal,
		Error:       j.err,
	}
	spec := j.spec
	v.Spec = &spec
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
		if !j.started.IsZero() {
			v.WallSeconds = j.finished.Sub(j.started).Seconds()
		}
	}
	if includeResult && j.state == StateDone {
		v.Result = json.RawMessage(j.result)
	}
	return v
}

// QueueOccupancy reports the job queue's current depth and capacity —
// the inputs of the Retry-After back-pressure hint.
func (s *Service) QueueOccupancy() (occupied, capacity int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pq), s.queueCap
}

// Uptime reports how long the service has been running.
func (s *Service) Uptime() time.Duration {
	return s.now().Sub(s.started)
}

// CacheIndex returns the fingerprints currently in the result cache,
// sorted. It is the node's contribution to cluster cache gossip: cheap
// to serve, and enough for a coordinator to know where a result lives.
func (s *Service) CacheIndex() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := s.cache.keys()
	sort.Strings(keys)
	return keys
}

// CachedResult returns the encoded result bytes for a fingerprint, if
// cached. The lookup promotes the entry, exactly like a local hit —
// a result other nodes keep asking for is a result worth keeping.
func (s *Service) CachedResult(fingerprint string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.get(fingerprint)
}

// shardProgressKey carries a ShardProgressFunc through a job's context.
type shardProgressKey struct{}

// ShardProgressFunc receives shard completion updates for a running job.
type ShardProgressFunc func(done, total int)

// WithShardProgress attaches a shard progress sink to ctx. The service
// installs one on every job context; a sharding runner reports through
// ReportShardProgress.
func WithShardProgress(ctx context.Context, fn ShardProgressFunc) context.Context {
	return context.WithValue(ctx, shardProgressKey{}, fn)
}

// ReportShardProgress publishes a job's shard progress to whatever sink
// the context carries. A no-op when the runner executes outside the
// service (tests, CLI).
func ReportShardProgress(ctx context.Context, done, total int) {
	if fn, ok := ctx.Value(shardProgressKey{}).(ShardProgressFunc); ok {
		fn(done, total)
	}
}

// Snapshot returns the operational counters plus queue/cache gauges.
func (s *Service) Snapshot() Snapshot {
	s.mu.Lock()
	snap := s.stats
	snap.CacheSize = s.cache.len()
	snap.QueueDepth = len(s.pq)
	snap.QueueInteractive = s.pq.classDepth(ClassInteractive)
	snap.QueueNormal = s.pq.classDepth(ClassNormal)
	snap.QueueBatch = s.pq.classDepth(ClassBatch)
	snap.AdmissionState = s.shedStateFor(0).String()
	snap.JobWallSeconds = s.wall.Seconds()
	s.mu.Unlock()
	snap.QueueCapacity = s.queueCap
	snap.Workers = s.workers
	if s.workers > 0 {
		snap.WorkerUtilization = float64(snap.BusyWorkers) / float64(s.workers)
	}
	snap.Engine = engine.Stats()
	return snap
}

// Shutdown drains the service: no new submissions are accepted, queued
// and running jobs are given until ctx expires to finish, then remaining
// work is force-cancelled. It returns ctx's error when the drain was cut
// short, nil on a clean drain. Shutdown is idempotent only in its
// refusal of new work; call it once.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("service: already shut down")
	}
	s.closed = true
	// Wake every parked worker: they drain the remaining backlog and then
	// observe closed and exit.
	s.queueCond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.baseStop() // force-cancel every remaining job context
		<-done
		err = ctx.Err()
	}
	s.baseStop()
	return err
}
