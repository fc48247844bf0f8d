package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/trace"
)

// retrySeedSalt reseeds a replica's one retry after a panic or error, so
// a seed that tickles a defect deterministically is not simply re-run
// into the same defect.
const retrySeedSalt = 0x51ed270b9b1e6d2f

// maxFailedFraction bounds graceful degradation: when at most this
// fraction of replicas fail (after their retry), RunReplicatedContext returns
// the surviving results instead of aborting the campaign.
const maxFailedFraction = 0.20

// ReplicaFailure records one replica that produced no result.
type ReplicaFailure struct {
	// Index is the replica's position in [0, Requested).
	Index int
	// Err describes the final failure (after the retry).
	Err error
}

// Replicated aggregates one (mechanism, workload) cell across independent
// seeds, giving the Monte Carlo spread of the headline metrics. A single
// simulation is one sample of a random process; comparisons in a paper
// need the error bars this type provides.
//
// A Replicated may be *partial*: when some replicas fail after their
// retry (at most 20 % of the request), the summaries cover only the
// survivors, Failures lists what was lost, and StdErrInflation carries
// the widening factor honest error bars must apply (see AdjustedStdErr).
type Replicated struct {
	Mechanism string
	Workload  string
	// Distributions of the three headline metrics across surviving
	// replicas.
	UEs         stats.Summary
	ScrubWrites stats.Summary
	ScrubEnergy stats.Summary // pJ
	// Results holds the individual runs in replica order. A nil entry
	// marks a failed replica, so index-paired comparisons stay aligned.
	Results []*engine.Result
	// Requested is the replica count asked for; Completed the number
	// that produced results.
	Requested, Completed int
	// Retried counts replicas that failed once and succeeded on their
	// reseeded retry.
	Retried int
	// Failures lists replicas with no result, in index order.
	Failures []ReplicaFailure
	// StdErrInflation is sqrt(Requested/Completed) (1 when nothing
	// failed): failures are not guaranteed to be missing at random, so
	// partial campaigns must report standard errors at least this much
	// wider.
	StdErrInflation float64
}

// Failed returns the number of replicas that produced no result.
func (r *Replicated) Failed() int { return len(r.Failures) }

// Partial reports whether any replica failed.
func (r *Replicated) Partial() bool { return len(r.Failures) > 0 }

// AdjustedStdErr widens a summary's standard error by the partial-result
// inflation factor. Use it instead of Summary.StdErr when the Replicated
// may be partial.
func (r *Replicated) AdjustedStdErr(s *stats.Summary) float64 {
	if r.StdErrInflation > 1 {
		return s.StdErr() * r.StdErrInflation
	}
	return s.StdErr()
}

// replicaSeed derives the deterministic seed of one replica.
func replicaSeed(base uint64, idx int) uint64 {
	return base + uint64(idx)*0x9e3779b9
}

// runReplica executes one simulation. It is a variable so supervision
// tests can substitute failure modes.
var runReplica = engine.RunContext

// safeRunReplica calls runReplica with panic containment: a defect in
// one replica becomes an error instead of killing the whole campaign.
func safeRunReplica(ctx context.Context, cfg engine.Spec) (res *engine.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("replica panicked: %v", p)
		}
	}()
	return runReplica(ctx, cfg)
}

// RunReplicatedContext simulates the cell `replicas` times with seeds
// derived from sys.Seed, fanning out over the available CPUs under
// resilient supervision:
//
//   - Cancellation: ctx is checked inside every replica per substep;
//     cancelling returns promptly with an error wrapping ctx.Err().
//   - Panic containment: a panicking replica is caught and retried once
//     under a reseeded derived seed.
//   - Graceful degradation: when at most 20 % of replicas still fail
//     after their retry, the surviving results are returned as a partial
//     Replicated (Failures populated, StdErrInflation > 1) instead of
//     aborting the campaign.
//   - Early abort: once failures exceed the 20 % budget — or ctx ends —
//     unstarted replicas are never launched and in-flight ones are
//     cancelled, rather than burning the rest of the campaign's CPU.
//
// It is the single-node special case of the shard pipeline: one shard
// covering every replica, merged by the same MergeReplicated a cluster
// coordinator uses, so a sharded run is statistically identical to a
// local one.
func RunReplicatedContext(ctx context.Context, sys System, m Mechanism, w trace.Workload, replicas int) (*Replicated, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("core: replicas must be >= 1")
	}
	shard, err := RunShardContext(ctx, sys, m, w, 0, replicas)
	if err != nil {
		return nil, err
	}
	return MergeReplicated(m.Name, w.Name, replicas, []*Shard{shard})
}

// Shard holds the results of one contiguous replica range [First,
// First+Count) of a larger campaign. Replica seeds are derived from the
// *absolute* replica index, so the same replica produces the same result
// whether it runs in a whole-campaign shard on one machine or in a
// narrow shard on a remote worker.
type Shard struct {
	// First is the absolute index of the shard's first replica; Count is
	// the number of replicas it covers.
	First, Count int
	// Results holds the shard's runs in replica order (index i is
	// absolute replica First+i). A nil entry marks a failed replica.
	Results []*engine.Result
	// Retried counts replicas that failed once and succeeded on their
	// reseeded retry.
	Retried int
	// Failures lists replicas with no result, with absolute indices.
	Failures []ReplicaFailure
}

// RunShardContext executes replicas [first, first+count) of a campaign
// under the same supervision contract as RunReplicatedContext (panic
// containment, one reseeded retry, early abort once the shard's 20 %
// failure budget is blown). Seeds derive from absolute replica indices,
// which makes shard execution location-transparent: a coordinator can
// scatter disjoint ranges across workers and MergeReplicated the pieces
// into exactly the Replicated a single node would have produced.
func RunShardContext(ctx context.Context, sys System, m Mechanism, w trace.Workload, first, count int) (*Shard, error) {
	if first < 0 {
		return nil, fmt.Errorf("core: shard first replica must be >= 0, got %d", first)
	}
	if count < 1 {
		return nil, fmt.Errorf("core: shard replica count must be >= 1, got %d", count)
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	shard := &Shard{
		First:   first,
		Count:   count,
		Results: make([]*engine.Result, count),
	}
	allowedFailures := int(math.Floor(maxFailedFraction * float64(count)))

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []ReplicaFailure
		retried  int
		aborted  bool
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := 0; i < count; i++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			mu.Lock()
			doomed := aborted
			mu.Unlock()
			if doomed || runCtx.Err() != nil {
				return // campaign already failed; don't burn more CPU
			}
			idx := first + off
			cellSys := sys
			cellSys.Seed = replicaSeed(sys.Seed, idx)
			res, err := safeRunReplica(runCtx, engine.ResolveSpec(cellSys, m, w, engine.Options{}))
			didRetry := false
			if err != nil && runCtx.Err() == nil {
				// One retry under a reseeded derived seed: a different
				// sample of the same cell, not a rerun into the same
				// deterministic defect.
				didRetry = true
				cellSys.Seed = replicaSeed(sys.Seed, idx) ^ retrySeedSalt
				res, err = safeRunReplica(runCtx, engine.ResolveSpec(cellSys, m, w, engine.Options{}))
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failures = append(failures, ReplicaFailure{
					Index: idx, Err: fmt.Errorf("core: replica %d: %w", idx, err),
				})
				if len(failures) > allowedFailures {
					aborted = true
					cancel() // stop in-flight and unstarted replicas
				}
				return
			}
			shard.Results[off] = res
			if didRetry {
				retried++
			}
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: replication canceled: %w", err)
	}
	sortFailures(failures)
	if len(failures) > allowedFailures {
		// Too broken to degrade gracefully; surface the first failure.
		return nil, fmt.Errorf("core: %d/%d replicas failed (budget %d): %w",
			len(failures), count, allowedFailures, failures[0].Err)
	}
	shard.Failures = failures
	shard.Retried = retried
	return shard, nil
}

// sortFailures orders failures by replica index for stable reporting.
func sortFailures(failures []ReplicaFailure) {
	slices.SortFunc(failures, func(a, b ReplicaFailure) int { return cmp.Compare(a.Index, b.Index) })
}

// MergeReplicated assembles shards covering replicas [0, requested)
// exactly once into one Replicated, applying the campaign-wide 20 %
// failure budget and computing the headline summaries in replica-index
// order. Because seeds are derived from absolute indices and summaries
// accumulate in index order, the merge of any shard partition is
// identical — including floating-point accumulation order — to a
// single-shard run. Gaps and overlaps are errors, not silent holes.
func MergeReplicated(mechanism, workload string, requested int, shards []*Shard) (*Replicated, error) {
	if requested < 1 {
		return nil, fmt.Errorf("core: replicas must be >= 1")
	}
	rep := &Replicated{
		Mechanism: mechanism,
		Workload:  workload,
		Results:   make([]*engine.Result, requested),
		Requested: requested,
	}
	covered := make([]bool, requested)
	var failures []ReplicaFailure
	for _, sh := range shards {
		if sh == nil {
			return nil, errors.New("core: merge of nil shard")
		}
		if sh.First < 0 || sh.Count != len(sh.Results) || sh.First+sh.Count > requested {
			return nil, fmt.Errorf("core: shard [%d,+%d) with %d results does not fit a %d-replica campaign",
				sh.First, sh.Count, len(sh.Results), requested)
		}
		for off, res := range sh.Results {
			idx := sh.First + off
			if covered[idx] {
				return nil, fmt.Errorf("core: replica %d covered by more than one shard", idx)
			}
			covered[idx] = true
			rep.Results[idx] = res
		}
		for _, f := range sh.Failures {
			if f.Index < sh.First || f.Index >= sh.First+sh.Count {
				return nil, fmt.Errorf("core: shard [%d,+%d) reports failure for out-of-range replica %d",
					sh.First, sh.Count, f.Index)
			}
			failures = append(failures, f)
		}
		rep.Retried += sh.Retried
	}
	for idx, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("core: replica %d not covered by any shard", idx)
		}
	}
	sortFailures(failures)
	allowedFailures := int(math.Floor(maxFailedFraction * float64(requested)))
	if len(failures) > allowedFailures {
		return nil, fmt.Errorf("core: %d/%d replicas failed (budget %d): %w",
			len(failures), requested, allowedFailures, failures[0].Err)
	}
	rep.Failures = failures
	for _, res := range rep.Results {
		if res == nil {
			continue
		}
		rep.Completed++
		rep.UEs.Add(float64(res.UEs))
		rep.ScrubWrites.Add(float64(res.ScrubWrites()))
		rep.ScrubEnergy.Add(res.ScrubEnergy.Total())
	}
	rep.StdErrInflation = 1
	if rep.Completed > 0 && rep.Completed < rep.Requested {
		rep.StdErrInflation = math.Sqrt(float64(rep.Requested) / float64(rep.Completed))
	}
	if rep.Completed == 0 {
		// Unreachable with allowedFailures < replicas, but guard anyway.
		return nil, errors.New("core: no replicas completed")
	}
	return rep, nil
}

// HeadlineCI compares two replicated cells and reports each headline
// metric as mean ± standard error of the reduction, plus an audit of how
// many replica pairs actually fed each mean.
type HeadlineCI struct {
	UEReductionPct        float64
	UEReductionStderr     float64
	WriteFactor           float64
	WriteFactorStderr     float64
	EnergyReductionPct    float64
	EnergyReductionStderr float64

	// Pairs is the number of index-aligned replica pairs with results on
	// both sides; FailedPairs counts pairs dropped because either side's
	// replica failed.
	Pairs       int
	FailedPairs int
	// UEPairsSkipped, WritePairsSkipped and EnergyPairsSkipped count
	// live pairs excluded from the respective mean because its baseline
	// (or, for writes, proposed) denominator was zero. Earlier versions
	// dropped these silently, shrinking the sample behind the reported
	// means.
	UEPairsSkipped     int
	WritePairsSkipped  int
	EnergyPairsSkipped int
}

// CompareReplicated computes reduction statistics between a baseline and
// a proposed replicated cell. Replicas are paired by index (matching
// seeds), so the standard errors reflect paired differences. Pairs where
// either replica failed, or where a metric's denominator is zero, are
// excluded from that metric's mean — and counted in the returned
// HeadlineCI so the effective sample size is visible.
func CompareReplicated(baseline, proposed *Replicated) (HeadlineCI, error) {
	n := len(baseline.Results)
	if n == 0 || n != len(proposed.Results) {
		return HeadlineCI{}, fmt.Errorf("core: replica counts differ (%d vs %d)", n, len(proposed.Results))
	}
	var ci HeadlineCI
	var ue, wf, en stats.Summary
	for i := 0; i < n; i++ {
		b, p := baseline.Results[i], proposed.Results[i]
		if b == nil || p == nil {
			ci.FailedPairs++
			continue
		}
		ci.Pairs++
		if b.UEs > 0 {
			ue.Add(100 * (1 - float64(p.UEs)/float64(b.UEs)))
		} else {
			ci.UEPairsSkipped++
		}
		if p.ScrubWrites() > 0 {
			wf.Add(float64(b.ScrubWrites()) / float64(p.ScrubWrites()))
		} else {
			ci.WritePairsSkipped++
		}
		if b.ScrubEnergy.Total() > 0 {
			en.Add(100 * (1 - p.ScrubEnergy.Total()/b.ScrubEnergy.Total()))
		} else {
			ci.EnergyPairsSkipped++
		}
	}
	if ci.Pairs == 0 {
		return HeadlineCI{}, fmt.Errorf("core: no surviving replica pairs to compare")
	}
	ci.UEReductionPct = ue.Mean()
	ci.UEReductionStderr = ue.StdErr()
	ci.WriteFactor = wf.Mean()
	ci.WriteFactorStderr = wf.StdErr()
	ci.EnergyReductionPct = en.Mean()
	ci.EnergyReductionStderr = en.StdErr()
	return ci, nil
}
