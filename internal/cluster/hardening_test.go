package cluster

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestBackoffDelayBounds(t *testing.T) {
	b := NewBackoff(10*time.Millisecond, 80*time.Millisecond, 42)
	for attempt := 0; attempt < 10; attempt++ {
		ceil := 10 * time.Millisecond << uint(attempt)
		if ceil > 80*time.Millisecond {
			ceil = 80 * time.Millisecond
		}
		for i := 0; i < 50; i++ {
			d := b.Delay(attempt)
			if d < 0 || d > ceil {
				t.Fatalf("attempt %d: delay %v outside [0,%v]", attempt, d, ceil)
			}
		}
	}
}

func TestBackoffDeterministicWithSeed(t *testing.T) {
	a := NewBackoff(0, 0, 7)
	b := NewBackoff(0, 0, 7)
	for i := 0; i < 20; i++ {
		if da, db := a.Delay(i), b.Delay(i); da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
	}
}

func TestBackoffSleepHonorsContext(t *testing.T) {
	b := NewBackoff(time.Hour, time.Hour, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.Sleep(ctx, 5) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Sleep returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep did not return after cancel")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(3, time.Minute)

	// Closed counts consecutive failures; below threshold stays closed.
	for i := 0; i < 2; i++ {
		if !b.canAttempt(now) {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.failure(now)
	}
	if b.state != BreakerClosed {
		t.Fatalf("state %v after 2/3 failures, want closed", b.state)
	}
	// A success resets the streak.
	b.success()
	b.failure(now)
	b.failure(now)
	if b.state != BreakerClosed {
		t.Fatalf("state %v, success should have reset the failure streak", b.state)
	}
	// Third consecutive failure trips it.
	b.failure(now)
	if b.state != BreakerOpen {
		t.Fatalf("state %v after threshold failures, want open", b.state)
	}
	if b.canAttempt(now.Add(30 * time.Second)) {
		t.Fatal("open breaker admitted traffic before cooldown")
	}
	// Cooldown elapses: one half-open probe.
	probeTime := now.Add(time.Minute)
	if !b.canAttempt(probeTime) {
		t.Fatal("open breaker refused probe after cooldown")
	}
	b.claim(probeTime)
	if b.state != BreakerHalfOpen {
		t.Fatalf("state %v after claim, want half-open", b.state)
	}
	if b.canAttempt(probeTime) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe fails: re-open, cooldown restarts from the failure.
	b.failure(probeTime)
	if b.state != BreakerOpen {
		t.Fatalf("state %v after failed probe, want open", b.state)
	}
	if b.canAttempt(probeTime.Add(30 * time.Second)) {
		t.Fatal("re-opened breaker ignored the restarted cooldown")
	}
	// Next probe succeeds: fully closed again.
	again := probeTime.Add(time.Minute)
	if !b.canAttempt(again) {
		t.Fatal("re-opened breaker refused probe after second cooldown")
	}
	b.claim(again)
	b.success()
	if b.state != BreakerClosed || b.fails != 0 {
		t.Fatalf("state %v fails %d after probe success, want closed/0", b.state, b.fails)
	}
}

// TestMembershipBreakerRoutesAway pins the acceptance property: once a
// worker's breaker opens, acquire stops offering it — immediately, not
// after another failed dispatch.
func TestMembershipBreakerRoutesAway(t *testing.T) {
	now := time.Unix(2000, 0)
	ms := NewMembershipWith(MembershipConfig{})
	ms.breakerThreshold = 2
	ms.breakerCooldown = time.Minute
	ms.now = func() time.Time { return now }
	bad := mustJoinMember(t, ms, "http://bad.example")
	good := mustJoinMember(t, ms, "http://good.example")

	ms.ReportFailure(bad.ID)
	ms.ReportFailure(bad.ID)
	if st := ms.BreakerStates()[bad.ID]; st != BreakerOpen {
		t.Fatalf("breaker %v after threshold failures, want open", st)
	}
	// With the healthy worker excluded, the only remaining candidate has
	// an open breaker: acquire must signal local fallback rather than
	// hand out a doomed dispatch or block for the cooldown.
	if _, _, err := ms.acquire(context.Background(), map[string]bool{good.ID: true}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("acquire with only an open-breaker candidate: err=%v, want ErrNoWorkers", err)
	}
	// Unexcluded, acquire picks the healthy worker.
	id, _, err := ms.acquire(context.Background(), nil)
	if err != nil || id != good.ID {
		t.Fatalf("acquire = %q, %v; want %q", id, err, good.ID)
	}
	ms.release(id)

	// After the cooldown the open worker admits a single probe again.
	now = now.Add(time.Minute)
	id, _, err = ms.acquire(context.Background(), map[string]bool{good.ID: true})
	if err != nil || id != bad.ID {
		t.Fatalf("post-cooldown acquire = %q, %v; want probe on %q", id, err, bad.ID)
	}
	if st := ms.BreakerStates()[bad.ID]; st != BreakerHalfOpen {
		t.Fatalf("breaker %v during probe, want half-open", st)
	}
	// While the probe is out, no second dispatch lands on it.
	if _, _, err := ms.acquire(context.Background(), map[string]bool{good.ID: true}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("second dispatch during probe: err=%v, want ErrNoWorkers", err)
	}
	ms.ReportSuccess(bad.ID)
	ms.release(bad.ID)
	if st := ms.BreakerStates()[bad.ID]; st != BreakerClosed {
		t.Fatalf("breaker %v after probe success, want closed", st)
	}
}

func TestMembershipTTLEviction(t *testing.T) {
	now := time.Unix(3000, 0)
	ms := NewMembershipWith(MembershipConfig{WorkerTTL: time.Minute})
	ms.now = func() time.Time { return now }
	m := mustJoinMember(t, ms, "http://gone.example")
	keep := mustJoinMember(t, ms, "http://kept.example")

	// Alive workers never expire, however stale.
	now = now.Add(time.Hour)
	ms.evictExpired()
	if ms.Size() != 2 {
		t.Fatalf("evicted an alive worker: size %d", ms.Size())
	}

	ms.markDead(m.ID)
	ms.evictExpired() // lastSeen is an hour old and it is now dead
	if ms.Size() != 1 {
		t.Fatalf("size %d after TTL eviction, want 1", ms.Size())
	}
	if ms.WorkersEvicted() != 1 {
		t.Fatalf("WorkersEvicted = %d, want 1", ms.WorkersEvicted())
	}
	if _, ok := ms.BreakerStates()[keep.ID]; !ok {
		t.Fatal("surviving worker vanished from the registry")
	}
	// The evicted URL can re-join fresh.
	if _, err := ms.Join("http://gone.example"); err != nil {
		t.Fatalf("re-join after eviction: %v", err)
	}
	if ms.Size() != 2 {
		t.Fatalf("size %d after re-join, want 2", ms.Size())
	}
}

func TestMembershipTTLSparesInFlight(t *testing.T) {
	now := time.Unix(4000, 0)
	ms := NewMembershipWith(MembershipConfig{WorkerTTL: time.Minute})
	ms.now = func() time.Time { return now }
	m := mustJoinMember(t, ms, "http://busy.example")
	id, _, err := ms.acquire(context.Background(), nil)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	ms.markDead(m.ID)
	now = now.Add(time.Hour)
	ms.evictExpired()
	if ms.Size() != 1 {
		t.Fatal("evicted a worker with a shard in flight")
	}
	ms.release(id)
	ms.evictExpired()
	if ms.Size() != 0 {
		t.Fatal("idle dead worker survived the TTL after release")
	}
}

func mustJoinMember(t *testing.T, ms *Membership, url string) Member {
	t.Helper()
	m, err := ms.Join(url)
	if err != nil {
		t.Fatalf("join %s: %v", url, err)
	}
	return m
}
