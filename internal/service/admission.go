package service

import (
	"errors"
	"fmt"
	"time"
)

// ShedState is the service's load-shedding position, a pure function of
// queue occupancy against the configured watermarks. The service walks
// the ladder healthy → shed-batch → shed-normal → interactive-only as
// the queue fills and back down as it drains — no latched state, so
// recovery is automatic.
type ShedState int

const (
	// ShedHealthy admits every class.
	ShedHealthy ShedState = iota
	// ShedBatch refuses fresh batch work; batch cache hits and dedups
	// still ride the cheap path.
	ShedBatch
	// ShedNormal refuses fresh batch and normal work.
	ShedNormal
	// ShedInteractiveOnly serves interactive traffic exclusively: even
	// the cache-hit and dedup fast paths of lower classes are refused,
	// shedding their request-processing cost, not just their queue slots.
	ShedInteractiveOnly
)

// String returns the state's wire name, reported by /healthz and the
// scrubd_admission_state metric.
func (s ShedState) String() string {
	switch s {
	case ShedBatch:
		return "shed-batch"
	case ShedNormal:
		return "shed-normal"
	case ShedInteractiveOnly:
		return "interactive-only"
	default:
		return "healthy"
	}
}

// AdmitsFresh reports whether the state still enqueues fresh work of a
// class.
func (s ShedState) AdmitsFresh(c Class) bool {
	switch s {
	case ShedHealthy:
		return true
	case ShedBatch:
		return c >= ClassNormal
	default: // ShedNormal, ShedInteractiveOnly
		return c == ClassInteractive
	}
}

// AdmitsCheap reports whether the state still serves a class's cache-hit
// and dedup fast paths.
func (s ShedState) AdmitsCheap(c Class) bool {
	return s != ShedInteractiveOnly || c == ClassInteractive
}

// ShedConfig sets the occupancy watermarks (fractions of queue capacity)
// at which each shedding stage engages. Watermarks must be monotone:
// 0 < BatchPct <= NormalPct <= InteractivePct <= 1.
type ShedConfig struct {
	// BatchPct is the occupancy at or above which fresh batch work is
	// refused.
	BatchPct float64 `json:"batch_pct"`
	// NormalPct is the occupancy at or above which fresh normal work is
	// also refused.
	NormalPct float64 `json:"normal_pct"`
	// InteractivePct is the occupancy at or above which only interactive
	// traffic is processed at all.
	InteractivePct float64 `json:"interactive_pct"`
}

// DefaultShedConfig is the watermark ladder scrubd runs with: shed batch
// at half full, normal at three quarters, everything but interactive at
// ninety percent.
func DefaultShedConfig() ShedConfig {
	return ShedConfig{BatchPct: 0.50, NormalPct: 0.75, InteractivePct: 0.90}
}

// Validate rejects non-monotone or out-of-range watermarks.
func (c ShedConfig) Validate() error {
	if c.BatchPct <= 0 || c.InteractivePct > 1 ||
		c.BatchPct > c.NormalPct || c.NormalPct > c.InteractivePct {
		return fmt.Errorf("service: shed watermarks must satisfy 0 < batch (%g) <= normal (%g) <= interactive (%g) <= 1",
			c.BatchPct, c.NormalPct, c.InteractivePct)
	}
	return nil
}

// state maps a queue occupancy onto the shedding ladder.
func (c ShedConfig) state(occupied, capacity int) ShedState {
	if capacity <= 0 {
		return ShedHealthy
	}
	frac := float64(occupied) / float64(capacity)
	switch {
	case frac >= c.InteractivePct:
		return ShedInteractiveOnly
	case frac >= c.NormalPct:
		return ShedNormal
	case frac >= c.BatchPct:
		return ShedBatch
	default:
		return ShedHealthy
	}
}

// Admission-path sentinel errors; the HTTP layer maps them to statuses
// (429 for rate limiting and queue-full, 503 for shedding, 422 for an
// already-dead deadline).
var (
	ErrRateLimited     = errors.New("service: tenant rate limit exceeded")
	ErrShedding        = errors.New("service: shedding load")
	ErrDeadlineExpired = errors.New("service: deadline already expired")
)

// RateLimitError reports a tenant bucket refusal and how long until the
// next token, the Retry-After the HTTP layer returns.
type RateLimitError struct {
	Tenant string
	Wait   time.Duration
}

func (e *RateLimitError) Error() string {
	return fmt.Sprintf("service: tenant %q over its submission rate (retry in %s)", e.Tenant, e.Wait.Round(time.Millisecond))
}

func (e *RateLimitError) Is(target error) bool { return target == ErrRateLimited }

// ShedError reports a class refused by the current shed state.
type ShedError struct {
	State ShedState
	Class Class
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("service: %s work shed (state %s)", e.Class, e.State)
}

func (e *ShedError) Is(target error) bool { return target == ErrShedding }

// maxTenantBuckets bounds the bucket map: past this, full (idle) buckets
// are swept so a fleet of one-shot tenants cannot grow memory unboundedly.
const maxTenantBuckets = 16384

// tokenBuckets is the per-tenant admission rate limiter: a classic token
// bucket per tenant key, refilled lazily on access from the service
// clock, so there is no background goroutine and tests can drive it with
// a fake clock.
type tokenBuckets struct {
	rate    float64 // tokens per second
	burst   float64 // bucket capacity
	buckets map[string]*tokenBucket
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// newTokenBuckets returns nil when rate limiting is disabled.
func newTokenBuckets(rate float64, burst int) *tokenBuckets {
	if rate <= 0 || burst <= 0 {
		return nil
	}
	return &tokenBuckets{rate: rate, burst: float64(burst), buckets: make(map[string]*tokenBucket)}
}

// take spends one token from tenant's bucket, refilling it first. When
// the bucket is dry it reports the wait until the next token. Caller
// holds the service mutex.
func (tb *tokenBuckets) take(tenant string, now time.Time) (ok bool, wait time.Duration) {
	b := tb.buckets[tenant]
	if b == nil {
		if len(tb.buckets) >= maxTenantBuckets {
			tb.sweep(now)
		}
		b = &tokenBucket{tokens: tb.burst, last: now}
		tb.buckets[tenant] = b
	} else {
		b.refill(tb, now)
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / tb.rate * float64(time.Second))
}

// refill credits tokens for the time since the last access.
func (b *tokenBucket) refill(tb *tokenBuckets, now time.Time) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * tb.rate
		if b.tokens > tb.burst {
			b.tokens = tb.burst
		}
	}
	b.last = now
}

// sweep drops buckets that have refilled to full — idle tenants whose
// state carries no information beyond the default.
func (tb *tokenBuckets) sweep(now time.Time) {
	for k, b := range tb.buckets {
		b.refill(tb, now)
		if b.tokens >= tb.burst {
			delete(tb.buckets, k)
		}
	}
}

// AdmissionView is the admission-control block /healthz reports: the
// current shed state, queue occupancy overall and per class, and the
// watermark ladder in force.
type AdmissionView struct {
	State         string `json:"state"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Interactive   int    `json:"queue_interactive"`
	Normal        int    `json:"queue_normal"`
	Batch         int    `json:"queue_batch"`
	// Watermarks is nil when shedding is disabled.
	Watermarks *ShedConfig `json:"watermarks,omitempty"`
	// RateLimited reports whether per-tenant token buckets are engaged.
	RateLimited bool `json:"rate_limited,omitempty"`
}

// Admission returns the current admission-control view.
func (s *Service) Admission() AdmissionView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := AdmissionView{
		State:         s.shedStateFor(0).String(),
		QueueDepth:    len(s.pq),
		QueueCapacity: s.queueCap,
		Interactive:   s.pq.classDepth(ClassInteractive),
		Normal:        s.pq.classDepth(ClassNormal),
		Batch:         s.pq.classDepth(ClassBatch),
		RateLimited:   s.tenants != nil,
	}
	if s.shed != nil {
		wm := *s.shed
		v.Watermarks = &wm
	}
	return v
}
