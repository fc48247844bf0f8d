package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/service"
)

// The fleet runs one patrolling device per core the benchmark assumes, so
// each device's session has a core of its own and region-scrub latency
// measures the fleet and the engine rather than the Go scheduler. Both
// devices run the same demand mix, with different seeds, so every patrol
// chunk costs about the same and the latency distribution has one mode;
// mixes of different cost (idle-archive ~0.75 ms, web-serve ~16 ms per
// chunk) would put the p50 between modes, where it moves with every run.
const (
	fleetDevices     = 2
	fleetWorkload    = "analytics-scan" // ~10 ms per 256-line patrol chunk
	fleetRowsPerBank = 16               // 4096 lines per device
	patrolChunkLines = 256              // patrol increment: the preemption granularity
	patrolTickMillis = 1
	regionLines      = 1024
	// regionEvery paces each device's open-loop region-scrub client. A
	// scrub waits out the running patrol chunk, then takes four chunks
	// and four ticks, about 45 ms, so a device spends under half its time
	// on region scrubs and keeps up even when the host runs slow. The
	// clients are staggered by regionEvery/fleetDevices.
	regionEvery = 100 * time.Millisecond
	// scrubPoll is how often a client checks its outstanding region
	// scrub; it bounds the latency measurement's granularity.
	scrubPoll = 500 * time.Microsecond
	// progressEvery is how often the window's line-visit count is sampled
	// for the throughput's sub-window medians.
	progressEvery = 50 * time.Millisecond
)

func fleetDeviceSpec(seed uint64, i int) fleet.DeviceSpec {
	return fleet.DeviceSpec{
		Name:     fmt.Sprintf("%s-%d", fleetWorkload, i),
		Workload: fleetWorkload,
		Seed:     seed<<8 + uint64(i) + 1,
		Geometry: geometry(8, fleetRowsPerBank),
		Patrol:   &fleet.PatrolConfig{ChunkLines: patrolChunkLines, TickMillis: patrolTickMillis},
	}
}

type fleetFixture struct {
	m    *fleet.Manager
	jn   *journal.Journal
	dir  string
	devs []string
}

func (f *fleetFixture) close() {
	f.m.Shutdown()
	_ = f.jn.Close() // scratch journal, removed next
	os.RemoveAll(f.dir)
}

func startFleet(e *env) (*fleetFixture, error) {
	dir, err := os.MkdirTemp(e.dir, "fleet-journal-")
	if err != nil {
		return nil, err
	}
	jn, _, err := journal.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f := &fleetFixture{m: fleet.NewManager(jn), jn: jn, dir: dir}
	for i := range fleetDevices {
		v, err := f.m.Register(fleetDeviceSpec(e.seed, i))
		if err != nil {
			f.close()
			return nil, err
		}
		f.devs = append(f.devs, v.ID)
	}
	return f, nil
}

// scrubStats is what one region-scrub client saw.
type scrubStats struct {
	issued, done, short int
	lagMax              time.Duration
	err                 error
}

// scrubClient enqueues a region scrub on one device every regionEvery,
// from offset after start until the deadline, and polls only that device,
// so a client never waits on another device's chunk. Each scrub is timed
// from when it was due to when it is seen done: a scrub that overruns its
// period delays the next one, and that delay counts in the next latency.
func scrubClient(e *env, f *fleetFixture, dev int, start, deadline time.Time, rec *recorder) scrubStats {
	var st scrubStats
	rng := rand.New(rand.NewPCG(e.seed, 3+uint64(dev)))
	id := f.devs[dev]
	offset := regionEvery * time.Duration(dev) / fleetDevices
	for due := start.Add(offset); due.Before(deadline); due = due.Add(regionEvery) {
		time.Sleep(time.Until(due))
		st.lagMax = max(st.lagMax, time.Since(due))
		first := rng.IntN(fleetRowsPerBank*256/regionLines) * regionLines
		v, err := f.m.EnqueueScrub(id, fleet.ScrubRequest{First: first, Count: regionLines})
		if err != nil {
			st.err = fmt.Errorf("enqueue region scrub: %w", err)
			return st
		}
		st.issued++
		for giveUp := due.Add(10 * time.Second); v.State != fleet.ScrubDone; {
			if time.Now().After(giveUp) {
				return st // counted as failed: issued but not done
			}
			time.Sleep(scrubPoll)
			if v, err = f.m.Scrub(id, v.ID); err != nil {
				st.err = err
				return st
			}
		}
		rec.sample(due, time.Since(due))
		req := e.tr.newID()
		e.tr.add(req, 0, req, "client.scrub", due, time.Now())
		st.done++
		if v.Report.LinesScrubbed != regionLines {
			st.short++
		}
	}
	return st
}

// fleetPatrol runs the patrolling devices while one open-loop client per
// device enqueues a region scrub on it every regionEvery. Throughput is
// every line the devices visit, patrol and region scrub alike.
func fleetPatrol(e *env) (*outcome, error) {
	o := &outcome{}
	f, setup, err := setupRepeated(e.setupReps(), func() (*fleetFixture, error) { return startFleet(e) }, (*fleetFixture).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	o.setup = setup

	// Every chunk is a full patrol chunk or a quarter of a region scrub,
	// patrolChunkLines lines either way.
	visits := func() int64 { return f.m.Snapshot().Chunks * patrolChunkLines }
	views0 := f.m.List()
	tot0 := f.m.Snapshot()
	visits0 := tot0.Chunks * patrolChunkLines
	win, err := e.begin()
	if err != nil {
		return nil, err
	}
	stats := make([]scrubStats, fleetDevices)
	var wg sync.WaitGroup
	for i := range fleetDevices {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i] = scrubClient(e, f, i, win.start, win.deadline(), &o.rec)
		}()
	}
	for t := win.start.Add(progressEvery); t.Before(win.deadline()); t = t.Add(progressEvery) {
		time.Sleep(time.Until(t))
		o.rec.progress(float64(visits() - visits0))
	}
	time.Sleep(time.Until(win.deadline()))
	// Close the window before draining: throughput counts visits inside
	// it, while the last scrubs' latencies still count in full.
	views1 := f.m.List()
	tot1 := f.m.Snapshot()
	o.rec.progress(float64(tot1.Chunks*patrolChunkLines - visits0))
	if err := win.finish(o); err != nil {
		return nil, err
	}
	wg.Wait()

	var (
		issued, done, short int
		lagMax              time.Duration
	)
	for _, st := range stats {
		if st.err != nil {
			return nil, st.err
		}
		issued += st.issued
		done += st.done
		short += st.short
		lagMax = max(lagMax, st.lagMax)
	}
	o.attempted = int64(issued)
	o.failed = int64(issued - done + short)
	o.check("region_scrubs_done", o.failed == 0,
		"%d of %d region scrubs done with LinesScrubbed == Count (%d not done, %d short)",
		done-short, issued, issued-done, short)
	if e.tr == nil {
		return o, nil
	}
	// Stop patrol so the replays below time their calls on idle cores.
	f.m.Shutdown()

	secs := o.window.Seconds()
	chunks := tot1.Chunks - tot0.Chunks
	o.layer("fleet.chunks", float64(chunks))
	o.layer("fleet.patrol_chunks", float64(tot1.PatrolChunks-tot0.PatrolChunks))
	o.layer("fleet.scrub_chunks", float64(tot1.ScrubChunks-tot0.ScrubChunks))
	o.layer("fleet.preemptions", float64(tot1.Preemptions-tot0.Preemptions))
	o.layer("fleet.repairs", float64(tot1.Repairs-tot0.Repairs))
	if chunks > 0 {
		devSecs := secs * fleetDevices
		o.layer("fleet.chunk_period_ms", 1e3*devSecs/float64(chunks))
		o.layer("fleet.tick_sleep_share", float64(chunks)*patrolTickMillis/1e3/devSecs)
	}
	o.layer("fleet.patrol_visits_per_s", float64((tot1.PatrolChunks-tot0.PatrolChunks)*patrolChunkLines)/secs)
	o.layer("fleet.region_scrub_ms_p50", quantile(o.rec.values(), 0.5))
	o.layer("fleet.region_scrub_ms_p95", quantile(o.rec.values(), 0.95))
	o.layer("fleet.generator_lag_ms_max", ms(lagMax))

	w := work{}
	for i := range views1 {
		ds := fleetDeviceSpec(e.seed, i)
		spec := service.Spec{Workload: ds.Workload, Seed: ds.Seed, Geometry: ds.Geometry}
		sys, mech, wl, err := spec.Build()
		if err != nil {
			return nil, err
		}
		g := w.group(sys, mech, wl)
		g.visits += views1[i].ScrubVisits - views0[i].ScrubVisits
		g.demandWrites += views1[i].DemandWrites - views0[i].DemandWrites
		g.repairs += int64(views1[i].Repairs - views0[i].Repairs)
		g.epochs += views1[i].Chunks - views0[i].Chunks
		g.simSeconds += views1[i].DeviceSeconds - views0[i].DeviceSeconds
	}
	chunkMS, err := patrolChunkMS(e.seed)
	if err != nil {
		return nil, err
	}
	o.layer("engine.patrol_chunk_ms_p50", chunkMS)
	return o, engineLayers(o, w, o.cpu)
}

// patrolChunkMS replays engine.Device.PatrolChunk at the fleet's chunk
// size and rate on a fresh copy of the first device and returns the
// median chunk time in ms.
func patrolChunkMS(seed uint64) (float64, error) {
	ds := fleetDeviceSpec(seed, 0)
	spec := service.Spec{Workload: ds.Workload, Seed: ds.Seed, Geometry: ds.Geometry}
	sys, mech, wl, err := spec.Build()
	if err != nil {
		return 0, err
	}
	dev, err := engine.NewDevice(engine.ResolveSpec(sys, mech, wl, engine.Options{}))
	if err != nil {
		return 0, err
	}
	// fleet's default rate: one full pass per simulated day.
	dt := float64(patrolChunkLines) * fleet.DefaultPassSeconds / float64(dev.Lines())
	var times []float64
	var obs []engine.LineObservation
	for range 16 {
		start := time.Now()
		rep, err := dev.PatrolChunk(patrolChunkLines, dt, obs)
		if err != nil {
			return 0, err
		}
		obs = rep.Observations
		times = append(times, ms(time.Since(start)))
	}
	return quantile(times, 0.5), nil
}
