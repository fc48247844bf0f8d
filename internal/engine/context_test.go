package engine

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestRunContextCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, testSpec())
	if res != nil {
		t.Error("canceled run returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
}

// TestRunContextCancelMidRun cancels a long run from another goroutine
// and requires a prompt, wrapped return: the run must stop at the next
// substep, not grind to the horizon.
func TestRunContextCancelMidRun(t *testing.T) {
	cfg := testSpec()
	cfg.Horizon = cfg.ScrubInterval * 1e6 // far more sweeps than we'll allow
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, cfg)
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
		t.Fatal("run did not return promptly after cancellation")
	}
}

func TestRunContextDeadline(t *testing.T) {
	cfg := testSpec()
	cfg.Horizon = cfg.ScrubInterval * 1e6
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := RunContext(ctx, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// TestRunContextCompletesNormally: an un-cancelled context changes
// nothing about the run's outcome.
func TestRunContextCompletesNormally(t *testing.T) {
	plain, err := Run(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := RunContext(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(plain) != fingerprint(viaCtx) {
		t.Error("RunContext(Background) differs from Run")
	}
}
