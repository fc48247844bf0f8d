//go:build !race

// The race runtime instruments allocations, so the guard only runs in
// normal test builds.

package engine

import "testing"

// maxAllocsPerRun is the allocation budget for one pooled engine run of
// the benchmark spec, which BenchmarkEngineRun measures at 8 allocs/op.
// The margin absorbs one run in AllocsPerRun(10) that finds the state
// pool cleared by a GC and rebuilds its scratch; losing any pooling
// layer — scratch recycling, the sampler cache, batched endurance draws
// — trips it.
const maxAllocsPerRun = 16

// TestEngineRunAllocGuard is the regression fence for the hot loop's
// allocation behaviour.
func TestEngineRunAllocGuard(t *testing.T) {
	spec := testSpec()
	// Warm the pool and the sampler cache so the measurement sees the
	// steady state a campaign runs in.
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := Run(spec); err != nil {
			t.Fatal(err)
		}
	})
	if avg > maxAllocsPerRun {
		t.Errorf("engine run allocates %.1f objects/run, budget %d — a pooling layer regressed", avg, maxAllocsPerRun)
	}
}
