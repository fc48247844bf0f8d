// Package engine owns the canonical simulation run pipeline: every
// execution path in the repository — the core runners, the scrubd worker
// pool, cluster shard execution, and the fleet's long-lived devices —
// funnels into the engine's single per-line scrub/detect/correct/write-back
// loop.
//
// The engine takes a resolved Spec (one struct subsuming the system
// description, the mechanism under test, and the optional substrates) and
// executes it with:
//
//   - process-wide run totals (see Stats) surfaced on scrubd's /metrics;
//   - bounded-latency cancellation: ctx is polled every visitStride scrub
//     visits, so a cancelled run returns in O(stride) visits rather than
//     at the next substep boundary;
//   - an allocation-lean hot path: per-run scratch (line state, crossing
//     buffers, patrol order) is recycled through a sync.Pool, drift
//     samplers are shared across runs of the same device parameters, and
//     endurance initialisation uses batched RNG draws.
//
// A run's Result is a pure function of its Spec; the golden fingerprint
// tests here and in internal/core pin it to the pre-engine sim loop.
package engine

import "context"

// Run executes the spec to completion.
func Run(spec Spec) (*Result, error) {
	return RunContext(context.Background(), spec)
}

// RunContext executes the spec under a context. Cancellation is polled
// every visitStride scrub visits and at every substep boundary, so a
// cancelled run returns promptly with an error wrapping ctx.Err(). No
// partial result is returned.
func RunContext(ctx context.Context, spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s, err := newState(spec)
	if err != nil {
		return nil, err
	}
	runErr := s.run(ctx)
	res := s.res
	s.release()
	recordRun(&res, runErr)
	if runErr != nil {
		return nil, runErr
	}
	return &res, nil
}
