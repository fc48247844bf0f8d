package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// campaignParams sizes one campaign workload. The region is the study's
// default geometry with fewer rows per bank (8 banks × 32 lines per row,
// so lines = 256 × rowsPerBank): a replica pair then takes tens of
// milliseconds, and a 12 s window holds a few hundred pairs, enough for a
// p95 over at least 200 samples.
type campaignParams struct {
	workload    string
	rowsPerBank int
	horizon     float64 // simulated seconds
}

var (
	// Two days of idle-archive on 512 lines keep the patrol visit loop and
	// write-back sampling the dominant host costs, as at the default 16384
	// lines over 3 days.
	coldCampaign = campaignParams{workload: "idle-archive", rowsPerBank: 2, horizon: 172800}
	// Three hours of db-oltp on 512 lines: demand writes, and with them
	// crossing sampling, dominate as at 4096 lines over a day.
	writeCampaign = campaignParams{workload: "db-oltp", rowsPerBank: 2, horizon: 10800}
)

// The paper's abstract: combined vs basic scrub cuts uncorrectable errors
// by 96.5%, scrub writes by 24.4x and scrub energy by 37.8%.
const (
	paperUEReductionPct     = 96.5
	paperWriteFactor        = 24.4
	paperEnergyReductionPct = 37.8
)

// digestPairs is how many leading replica pairs the accuracy block and
// result digest cover: a fixed prefix, so both are a pure function of the
// seed however many pairs the window fits.
const digestPairs = 32

func campaignColdRun(e *env) (*outcome, error)  { return runCampaign(e, coldCampaign) }
func campaignWriteRun(e *env) (*outcome, error) { return runCampaign(e, writeCampaign) }

// runCampaign runs replica pairs {basic i, combined i} of one campaign on
// two closed-loop clients, each replica a single-replica shard through
// core.RunShardContext (the pipeline core.RunReplicatedContext runs), and
// merges them with core.MergeReplicated.
func runCampaign(e *env, p campaignParams) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{}
	wl, err := trace.ByName(p.workload)
	if err != nil {
		return nil, err
	}
	sys := core.DefaultSystem()
	sys.Geometry.RowsPerBank = p.rowsPerBank
	sys.Horizon = p.horizon
	sys.Seed = e.seed

	type fixture struct{ mechs [2]core.Mechanism }
	build := func() (fixture, error) {
		var f fixture
		for i, name := range []string{"basic", "combined"} {
			m, err := core.SuiteMechanism(sys, name)
			if err != nil {
				return f, err
			}
			f.mechs[i] = m
			// One warm-up replica per mechanism, on a seed the campaign
			// never uses, builds the shared sampler tables and grows the
			// heap before timing starts.
			warm := sys
			warm.Seed = ^e.seed
			if _, err := core.RunShardContext(ctx, warm, m, wl, 0, 1); err != nil {
				return f, err
			}
		}
		return f, nil
	}
	fx, setup, err := setupRepeated(e.setupReps(), build, func(fixture) {})
	if err != nil {
		return nil, err
	}
	o.setup = setup

	var (
		mu       sync.Mutex
		shards   = [2]map[int]*core.Shard{{}, {}}
		replica  = [2][]float64{}
		failures atomic.Int64
		retried  atomic.Int64
	)
	win, err := e.begin()
	if err != nil {
		return nil, err
	}
	pairs, _, firstErr := closedLoop(ctx, 2, win.deadline(), func(_ int, seq int64) error {
		req := e.tr.newID()
		start := time.Now()
		for i, m := range fx.mechs {
			t0 := time.Now()
			sh, err := core.RunShardContext(ctx, sys, m, wl, int(seq), 1)
			t1 := time.Now()
			if err != nil {
				failures.Add(1)
				return err
			}
			e.tr.add(0, req, req, "replica."+m.Name, t0, t1)
			retried.Add(int64(sh.Retried))
			mu.Lock()
			shards[i][int(seq)] = sh
			replica[i] = append(replica[i], ms(t1.Sub(t0)))
			mu.Unlock()
		}
		end := time.Now()
		e.tr.add(req, 0, req, "pair", start, end)
		o.rec.op(end.Sub(start), 2)
		return nil
	})
	if err := win.finish(o); err != nil {
		return nil, err
	}
	o.attempted = 2 * pairs
	o.failed = failures.Load()
	o.check("replicas_succeed", o.failed == 0 && retried.Load() == 0,
		"%d replicas, %d failed, %d retried (first error: %v)", 2*pairs, o.failed, retried.Load(), firstErr)
	if o.failed > 0 {
		return o, nil
	}

	merged := func(i, n int) (*core.Replicated, error) {
		list := make([]*core.Shard, 0, n)
		for idx := range n {
			list = append(list, shards[i][idx])
		}
		return core.MergeReplicated(fx.mechs[i].Name, wl.Name, n, list)
	}
	basic, err := merged(0, int(pairs))
	if err != nil {
		return nil, err
	}
	combined, err := merged(1, int(pairs))
	if err != nil {
		return nil, err
	}
	o.check("basic_more_ues", basic.UEs.Mean() > combined.UEs.Mean(),
		"mean UEs basic %.3f vs combined %.3f over %d pairs", basic.UEs.Mean(), combined.UEs.Mean(), pairs)
	o.check("basic_more_scrub_writes", basic.ScrubWrites.Mean() > combined.ScrubWrites.Mean(),
		"mean scrub writes basic %.1f vs combined %.1f", basic.ScrubWrites.Mean(), combined.ScrubWrites.Mean())

	if err := accuracyBlock(o, merged, int(pairs)); err != nil {
		return nil, err
	}

	if e.tr != nil {
		w := work{}
		busy := 0.0
		for i, m := range fx.mechs {
			for _, sh := range shards[i] {
				w.group(sys, m, wl).addResult(sh.Results[0])
			}
			for _, t := range replica[i] {
				busy += t
			}
			o.layer("engine.replica_ms_p50."+m.Name, quantile(replica[i], 0.5))
		}
		if err := engineLayers(o, w, time.Duration(busy*float64(time.Millisecond))); err != nil {
			return nil, err
		}
		r := o.layers["engine.reconcile_ratio"]
		o.check("layers_reconcile", r > 0 && r <= 1.1,
			"replayed layer time is %.3f of measured replica time (limit 1.1)", r)
	}
	return o, nil
}

// accuracyBlock reports the model's basic -> combined reductions over the
// leading replica pairs beside the paper's, plus a digest of those
// replicas' results: a simulator-only change must leave it unmoved.
func accuracyBlock(o *outcome, merged func(i, n int) (*core.Replicated, error), pairs int) error {
	n := min(pairs, digestPairs)
	basic, err := merged(0, n)
	if err != nil {
		return err
	}
	combined, err := merged(1, n)
	if err != nil {
		return err
	}
	ci, err := core.CompareReplicated(basic, combined)
	if err != nil {
		return err
	}
	o.note("model.pairs", n)
	o.note("model.ue_reduction_pct", fmt.Sprintf("%.1f (paper %.1f)", ci.UEReductionPct, paperUEReductionPct))
	o.note("model.write_factor", fmt.Sprintf("%.1f (paper %.1f)", ci.WriteFactor, paperWriteFactor))
	o.note("model.energy_reduction_pct", fmt.Sprintf("%.1f (paper %.1f)", ci.EnergyReductionPct, paperEnergyReductionPct))
	h := sha256.New()
	for _, rep := range []*core.Replicated{basic, combined} {
		for _, r := range rep.Results {
			data, err := json.Marshal(r)
			if err != nil {
				return err
			}
			h.Write(data)
		}
	}
	o.note("model.digest", hex.EncodeToString(h.Sum(nil))[:16])
	return nil
}
