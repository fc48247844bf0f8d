package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNoWorkers reports that no live, non-excluded worker exists — the
// signal for the coordinator to fall back to local execution.
var ErrNoWorkers = errors.New("cluster: no live workers")

// DefaultPerWorkerInFlight bounds concurrent shard dispatches per worker
// when the membership is configured with 0.
const DefaultPerWorkerInFlight = 2

// Member is the externally visible state of one registered worker.
type Member struct {
	ID       string    `json:"id"`
	URL      string    `json:"url"`
	Alive    bool      `json:"alive"`
	InFlight int       `json:"in_flight"`
	JoinedAt time.Time `json:"joined_at"`
	LastSeen time.Time `json:"last_seen"`
	// Breaker is the worker's circuit-breaker state
	// (closed/half-open/open); Retries counts shard dispatches to this
	// worker that failed at the transport level.
	Breaker string `json:"breaker"`
	Retries int64  `json:"retries"`
}

// member is the internal record; guarded by Membership.mu.
type member struct {
	id       string
	url      string
	alive    bool
	inFlight int
	joinedAt time.Time
	lastSeen time.Time
	brk      *breaker
	retries  int64
}

// Membership tracks registered workers, their health, and their
// in-flight shard load. Dispatch admission (acquire/release) and the
// heartbeat prober both live here so that "who can take a shard right
// now" has a single source of truth.
type Membership struct {
	mu      sync.Mutex
	cond    *sync.Cond
	members map[string]*member
	byURL   map[string]string // URL → member id
	cfg     MembershipConfig
	nextID  int

	heartbeatFailures atomic.Int64
	workersEvicted    atomic.Int64

	// now is the clock, a hook for deterministic tests.
	now func() time.Time
	// breakerThreshold and breakerCooldown set the circuit breaker of
	// members joining from now on (0 = the breaker defaults); tests
	// tighten them.
	breakerThreshold int
	breakerCooldown  time.Duration
}

// MembershipConfig sizes a Membership's admission and eviction policies.
type MembershipConfig struct {
	// PerWorkerInFlight bounds concurrent shard dispatches per worker
	// (0 = DefaultPerWorkerInFlight).
	PerWorkerInFlight int
	// WorkerTTL evicts a dead worker once it has not been seen (joined
	// or passed a heartbeat) for this long. 0 keeps dead workers
	// registered forever, the pre-TTL behaviour.
	WorkerTTL time.Duration
}

// NewMembershipWith creates an empty membership under cfg.
func NewMembershipWith(cfg MembershipConfig) *Membership {
	if cfg.PerWorkerInFlight <= 0 {
		cfg.PerWorkerInFlight = DefaultPerWorkerInFlight
	}
	ms := &Membership{
		members: make(map[string]*member),
		byURL:   make(map[string]string),
		cfg:     cfg,
		now:     time.Now,
	}
	ms.cond = sync.NewCond(&ms.mu)
	return ms
}

// Join registers (or re-registers) a worker by base URL. Joining is
// idempotent: a known URL refreshes the existing member and revives it
// if it was marked dead. Returns the member's view.
func (ms *Membership) Join(rawURL string) (Member, error) {
	u, err := url.Parse(strings.TrimSuffix(rawURL, "/"))
	if err != nil || u.Scheme == "" || u.Host == "" {
		return Member{}, fmt.Errorf("cluster: join needs an absolute worker URL, got %q", rawURL)
	}
	base := u.Scheme + "://" + u.Host + u.Path

	ms.mu.Lock()
	defer ms.mu.Unlock()
	if id, ok := ms.byURL[base]; ok {
		m := ms.members[id]
		m.alive = true
		m.lastSeen = ms.now()
		ms.cond.Broadcast()
		return m.view(), nil
	}
	ms.nextID++
	m := &member{
		id:       fmt.Sprintf("worker-%03d", ms.nextID),
		url:      base,
		alive:    true,
		joinedAt: ms.now(),
		lastSeen: ms.now(),
		brk:      newBreaker(ms.breakerThreshold, ms.breakerCooldown),
	}
	ms.members[m.id] = m
	ms.byURL[base] = m.id
	ms.cond.Broadcast()
	return m.view(), nil
}

func (m *member) view() Member {
	return Member{
		ID: m.id, URL: m.url, Alive: m.alive, InFlight: m.inFlight,
		JoinedAt: m.joinedAt, LastSeen: m.lastSeen,
		Breaker: m.brk.state.String(), Retries: m.retries,
	}
}

// List returns all members ordered by ID.
func (ms *Membership) List() []Member {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]Member, 0, len(ms.members))
	for _, m := range ms.members {
		out = append(out, m.view())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// AliveCount returns the number of live workers.
func (ms *Membership) AliveCount() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	n := 0
	for _, m := range ms.members {
		if m.alive {
			n++
		}
	}
	return n
}

// Size returns the number of registered workers, dead or alive.
func (ms *Membership) Size() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return len(ms.members)
}

// acquire reserves an in-flight slot on the least-loaded eligible
// worker, ties broken by ID. Every dispatch — primary, failover and
// speculative copy — places this way: a shard's cost is the samples it
// runs, and no worker keeps state that would make one node cheaper for
// it than another.
//
// A worker is eligible when it is alive, its breaker admits an attempt,
// and neither its ID nor its URL is in exclude. When every eligible
// worker is at its in-flight bound the call blocks until a slot frees, a
// member joins, or ctx ends; with no eligible worker at all it returns
// ErrNoWorkers immediately (the local-fallback signal).
func (ms *Membership) acquire(ctx context.Context, exclude map[string]bool) (id, baseURL string, err error) {
	// Wake the wait loop when the context ends.
	stop := context.AfterFunc(ctx, func() {
		ms.mu.Lock()
		defer ms.mu.Unlock()
		ms.cond.Broadcast()
	})
	defer stop()

	ms.mu.Lock()
	defer ms.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return "", "", err
		}
		now := ms.now()
		var best *member
		candidates := false
		for _, m := range ms.members {
			// A breaker-open worker is not a candidate at all: with
			// every worker open we fall back locally rather than
			// blocking for a cooldown.
			if !m.alive || exclude[m.id] || exclude[m.url] || !m.brk.canAttempt(now) {
				continue
			}
			candidates = true
			if m.inFlight >= ms.cfg.PerWorkerInFlight {
				continue
			}
			if best == nil || m.inFlight < best.inFlight ||
				(m.inFlight == best.inFlight && m.id < best.id) {
				best = m
			}
		}
		if best != nil {
			best.inFlight++
			best.brk.claim(now)
			return best.id, best.url, nil
		}
		if !candidates {
			return "", "", ErrNoWorkers
		}
		ms.cond.Wait() // all candidates at capacity; wait for release/join/death
	}
}

// release returns an in-flight slot reserved by acquire.
func (ms *Membership) release(id string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if m, ok := ms.members[id]; ok && m.inFlight > 0 {
		m.inFlight--
	}
	ms.cond.Broadcast()
}

// markDead declares a worker unhealthy. It stays registered and keeps
// being heartbeated, so a recovered worker revives without re-joining.
func (ms *Membership) markDead(id string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if m, ok := ms.members[id]; ok && m.alive {
		m.alive = false
	}
	// Waiters may now face an empty candidate set; let them re-evaluate
	// and fall back locally instead of blocking forever.
	ms.cond.Broadcast()
}

// markAlive revives a worker after a successful heartbeat.
func (ms *Membership) markAlive(id string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if m, ok := ms.members[id]; ok {
		m.alive = true
		m.lastSeen = ms.now()
	}
	ms.cond.Broadcast()
}

// ReportSuccess records a shard dispatch whose transport worked (any
// HTTP status): the worker's breaker closes.
func (ms *Membership) ReportSuccess(id string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if m, ok := ms.members[id]; ok {
		m.brk.success()
	}
	// A closing breaker re-admits the worker; wake acquire waiters.
	ms.cond.Broadcast()
}

// ReportFailure records a transport-level dispatch failure against the
// worker's breaker and retry counter.
func (ms *Membership) ReportFailure(id string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if m, ok := ms.members[id]; ok {
		m.retries++
		m.brk.failure(ms.now())
	}
	ms.cond.Broadcast()
}

// BreakerStates returns each worker's current breaker state keyed by id.
func (ms *Membership) BreakerStates() map[string]BreakerState {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make(map[string]BreakerState, len(ms.members))
	for id, m := range ms.members {
		out[id] = m.brk.state
	}
	return out
}

// HeartbeatFailures returns the cumulative count of failed probes.
func (ms *Membership) HeartbeatFailures() int64 { return ms.heartbeatFailures.Load() }

// WorkersEvicted returns the cumulative count of TTL evictions.
func (ms *Membership) WorkersEvicted() int64 { return ms.workersEvicted.Load() }

// evictExpired unregisters dead workers not seen within the TTL. A
// worker with shards still in flight is spared — release would otherwise
// dangle — and caught on a later sweep. No-op when no TTL is configured.
func (ms *Membership) evictExpired() {
	if ms.cfg.WorkerTTL <= 0 {
		return
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	now := ms.now()
	for id, m := range ms.members {
		if m.alive || m.inFlight > 0 {
			continue
		}
		if now.Sub(m.lastSeen) >= ms.cfg.WorkerTTL {
			delete(ms.members, id)
			delete(ms.byURL, m.url)
			ms.workersEvicted.Add(1)
		}
	}
}

// CheckOnce probes every registered worker's /healthz concurrently. A
// responding worker (HTTP 200) is alive — including one previously
// declared dead; anything else marks it dead. Each probe is bounded by
// timeout.
func (ms *Membership) CheckOnce(ctx context.Context, client *http.Client, timeout time.Duration) {
	if client == nil {
		client = http.DefaultClient
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	type target struct{ id, url string }
	ms.mu.Lock()
	targets := make([]target, 0, len(ms.members))
	for _, m := range ms.members {
		targets = append(targets, target{m.id, m.url})
	}
	ms.mu.Unlock()

	var wg sync.WaitGroup
	for _, tg := range targets {
		wg.Add(1)
		go func(tg target) {
			defer wg.Done()
			probeCtx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(probeCtx, http.MethodGet, tg.url+HealthPath, nil)
			if err != nil {
				ms.heartbeatFailures.Add(1)
				ms.markDead(tg.id)
				return
			}
			resp, err := client.Do(req)
			if err != nil || resp.StatusCode != http.StatusOK {
				if err == nil {
					resp.Body.Close()
				}
				ms.heartbeatFailures.Add(1)
				ms.markDead(tg.id)
				return
			}
			resp.Body.Close()
			ms.markAlive(tg.id)
		}(tg)
	}
	wg.Wait()
	ms.evictExpired()
}

// HeartbeatLoop probes all workers every interval until ctx ends.
func (ms *Membership) HeartbeatLoop(ctx context.Context, client *http.Client, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			ms.CheckOnce(ctx, client, interval)
		}
	}
}
