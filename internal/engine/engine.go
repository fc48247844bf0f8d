// Package engine owns the canonical simulation run pipeline: every
// execution path in the repository — single runs, core's matrix and
// replication runners, the scrubd worker pool, cluster shard execution,
// and the fleet's long-lived devices — funnels into the engine's single
// per-line scrub/detect/correct/write-back loop.
//
// The engine's one input is a Spec, the composition of the machine
// (System), the mechanism under test (Mechanism), the workload, and the
// optional substrates (Options). A run is
// RunContext(ctx, ResolveSpec(sys, mech, workload, opts)), executed with:
//
//   - process-wide run totals (see Stats) surfaced on scrubd's /metrics;
//   - bounded-latency cancellation: ctx is polled every visitStride patrol
//     positions, so a cancelled run returns in O(stride) visits rather than
//     at the next substep boundary;
//   - an allocation-lean hot path: per-run scratch (line state, crossing
//     streams, patrol order, the demand generator) is recycled through a
//     sync.Pool, drift samplers are shared across runs of the same device
//     parameters, and endurance initialisation draws into reused per-line
//     buffers.
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
// every visitStride patrol positions and at every substep boundary, so a
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
