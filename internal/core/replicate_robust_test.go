package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/stats"
)

// withReplicaRunner substitutes the replica runner for the duration of a
// test, restoring the real one afterwards.
func withReplicaRunner(t *testing.T, fn func(ctx context.Context, cfg engine.Spec) (*engine.Result, error)) {
	t.Helper()
	orig := runReplica
	runReplica = fn
	t.Cleanup(func() { runReplica = orig })
}

// fakeResult builds a minimal successful result for supervision tests.
func fakeResult(seed uint64) *engine.Result {
	return &engine.Result{UEs: int64(seed % 7), ScrubWriteBacks: 100 + int64(seed%13)}
}

// seedIndex recovers the replica index (and whether this is the retry
// attempt) from the seed the supervisor derived.
func seedIndex(base, seed uint64) (idx int, retry bool) {
	for i := 0; i < 1024; i++ {
		if seed == replicaSeed(base, i) {
			return i, false
		}
		if seed == replicaSeed(base, i)^retrySeedSalt {
			return i, true
		}
	}
	panic(fmt.Sprintf("seed %d not derived from base %d", seed, base))
}

func TestRunReplicatedPanicIsRetriedOnce(t *testing.T) {
	sys := smallSystem()
	var mu sync.Mutex
	attempts := map[int]int{}
	withReplicaRunner(t, func(ctx context.Context, cfg engine.Spec) (*engine.Result, error) {
		idx, retry := seedIndex(sys.Seed, cfg.Seed)
		mu.Lock()
		attempts[idx]++
		mu.Unlock()
		if idx == 2 && !retry {
			panic("synthetic replica defect")
		}
		return fakeResult(cfg.Seed), nil
	})
	m, _ := SuiteMechanism(sys, "basic")
	rep, err := RunReplicatedContext(context.Background(), sys, m, smallWorkload(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retried != 1 || rep.Failed() != 0 || rep.Completed != 6 {
		t.Errorf("retried=%d failed=%d completed=%d, want 1/0/6", rep.Retried, rep.Failed(), rep.Completed)
	}
	if attempts[2] != 2 {
		t.Errorf("replica 2 attempted %d times, want 2", attempts[2])
	}
	if rep.StdErrInflation != 1 {
		t.Errorf("full campaign should not inflate stderr, got %g", rep.StdErrInflation)
	}
	if rep.UEs.N() != 6 {
		t.Errorf("summary covers %d replicas, want 6", rep.UEs.N())
	}
}

func TestRunReplicatedPartialResults(t *testing.T) {
	sys := smallSystem()
	withReplicaRunner(t, func(ctx context.Context, cfg engine.Spec) (*engine.Result, error) {
		if idx, _ := seedIndex(sys.Seed, cfg.Seed); idx == 4 {
			return nil, errors.New("persistent synthetic failure")
		}
		return fakeResult(cfg.Seed), nil
	})
	m, _ := SuiteMechanism(sys, "basic")
	rep, err := RunReplicatedContext(context.Background(), sys, m, smallWorkload(), 10) // budget: 2 failures
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial() || rep.Failed() != 1 || rep.Completed != 9 {
		t.Fatalf("partial=%t failed=%d completed=%d, want true/1/9", rep.Partial(), rep.Failed(), rep.Completed)
	}
	if rep.Results[4] != nil {
		t.Error("failed replica should leave a nil slot")
	}
	if rep.Failures[0].Index != 4 || rep.Failures[0].Err == nil {
		t.Errorf("failure record wrong: %+v", rep.Failures)
	}
	want := math.Sqrt(10.0 / 9.0)
	if math.Abs(rep.StdErrInflation-want) > 1e-12 {
		t.Errorf("StdErrInflation = %g, want %g", rep.StdErrInflation, want)
	}
	if adj := rep.AdjustedStdErr(&rep.UEs); adj < rep.UEs.StdErr() {
		t.Error("adjusted stderr narrower than raw stderr")
	}
	if rep.UEs.N() != 9 {
		t.Errorf("summary covers %d replicas, want 9", rep.UEs.N())
	}
}

func TestRunReplicatedFailureBudgetExceeded(t *testing.T) {
	sys := smallSystem()
	withReplicaRunner(t, func(ctx context.Context, cfg engine.Spec) (*engine.Result, error) {
		if idx, _ := seedIndex(sys.Seed, cfg.Seed); idx < 3 {
			return nil, errors.New("persistent synthetic failure")
		}
		return fakeResult(cfg.Seed), nil
	})
	m, _ := SuiteMechanism(sys, "basic")
	_, err := RunReplicatedContext(context.Background(), sys, m, smallWorkload(), 10) // 3 failures > budget 2
	if err == nil {
		t.Fatal("campaign with 30% failures should error")
	}
}

// TestRunReplicatedStopsLaunchingAfterAbort: once the failure budget is
// blown, unstarted replicas must never run (the pre-fix behaviour burned
// the whole campaign's CPU after the first failure).
func TestRunReplicatedStopsLaunchingAfterAbort(t *testing.T) {
	sys := smallSystem()
	replicas := 8*runtime.GOMAXPROCS(0) + 16
	var mu sync.Mutex
	calls := 0
	withReplicaRunner(t, func(ctx context.Context, cfg engine.Spec) (*engine.Result, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return nil, errors.New("every replica fails")
	})
	m, _ := SuiteMechanism(sys, "basic")
	if _, err := RunReplicatedContext(context.Background(), sys, m, smallWorkload(), replicas); err == nil {
		t.Fatal("all-failing campaign should error")
	}
	mu.Lock()
	defer mu.Unlock()
	// Attempts are bounded by (budget+1 failures before abort, each with
	// a retry) plus in-flight goroutines; far below the full campaign.
	if calls >= 2*replicas {
		t.Errorf("%d replica attempts despite early abort (replicas=%d)", calls, replicas)
	}
	budget := int(math.Floor(maxFailedFraction * float64(replicas)))
	bound := 2 * (budget + 1 + runtime.GOMAXPROCS(0))
	if calls > bound {
		t.Errorf("%d attempts exceed abort bound %d", calls, bound)
	}
}

func TestRunReplicatedContextCancel(t *testing.T) {
	sys := smallSystem()
	sys.Horizon = 1e9 // far too long to finish; cancellation must cut it
	m, err := SuiteMechanism(sys, "basic")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunReplicatedContext(ctx, sys, m, smallWorkload(), 4)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error %v does not wrap context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunReplicatedContext did not return promptly after cancel")
	}
}

// TestRunReplicaRecoversRealPanic exercises the production runner (not a
// test substitute) against a traffic source that panics mid-run.
func TestRunReplicaRecoversRealPanic(t *testing.T) {
	sys := smallSystem()
	m, _ := SuiteMechanism(sys, "basic")
	cfg := engine.ResolveSpec(sys, m, smallWorkload(), engine.Options{Source: panicSource{}})
	res, err := safeRunReplica(context.Background(), cfg)
	if err == nil || res != nil {
		t.Fatalf("panicking traffic source: res=%v err=%v, want nil result and error", res, err)
	}
}

// panicSource panics on the first demand epoch of a run.
type panicSource struct{}

func (panicSource) WritesInEpoch(*stats.RNG, float64, float64, []int) []int {
	panic("synthetic traffic-source defect")
}

func TestCompareReplicatedReportsSkippedPairs(t *testing.T) {
	mk := func(ues, writes int64, energy float64) *engine.Result {
		r := &engine.Result{UEs: ues, ScrubWriteBacks: writes}
		r.ScrubEnergy.WritePJ = energy
		return r
	}
	baseline := &Replicated{Results: []*engine.Result{
		mk(10, 100, 50), // clean pair
		nil,             // failed baseline replica
		mk(0, 100, 50),  // zero-UE baseline: UE pair unusable
		mk(10, 100, 0),  // zero-energy baseline: energy pair unusable
	}}
	proposed := &Replicated{Results: []*engine.Result{
		mk(5, 50, 25),
		mk(5, 50, 25),
		mk(5, 50, 25),
		mk(5, 0, 25), // zero proposed writes: write pair unusable
	}}
	ci, err := CompareReplicated(baseline, proposed)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Pairs != 3 || ci.FailedPairs != 1 {
		t.Errorf("pairs=%d failed=%d, want 3/1", ci.Pairs, ci.FailedPairs)
	}
	if ci.UEPairsSkipped != 1 || ci.WritePairsSkipped != 1 || ci.EnergyPairsSkipped != 1 {
		t.Errorf("skips ue=%d write=%d energy=%d, want 1/1/1",
			ci.UEPairsSkipped, ci.WritePairsSkipped, ci.EnergyPairsSkipped)
	}
	if ci.UEReductionPct != 50 {
		t.Errorf("UE reduction = %g, want 50", ci.UEReductionPct)
	}
}

func TestCompareReplicatedAllPairsDead(t *testing.T) {
	dead := &Replicated{Results: []*engine.Result{nil, nil}}
	if _, err := CompareReplicated(dead, dead); err == nil {
		t.Error("comparison with no surviving pairs should error")
	}
}
