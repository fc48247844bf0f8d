package main

// metricDef names one reported metric. The catalog below is the program's
// copy of BENCHMARK.json's metric lists; bench_test.go holds the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// e2eMetrics are what a user of the workload waits on or pays for. Every
// workload reports every one of them, each with the workload's own unit of
// work (see the README's metric dictionary):
//
//	campaign-*      op = one replica pair {basic, combined}; items = replicas
//	scrubd-fresh    op = one job, client send -> server finished_at; items = jobs
//	scrubd-flood    op = one 64-spec batch POST round trip; items = specs
//	cluster-shards  op = one 8-replica job, send -> finished_at; items = jobs
//	fleet-patrol    op = one region scrub, due time -> done; items = line visits
//
// Every bound is the largest allowed, 0.25 (README, "Spread"): on the
// 2-vCPU VM the benchmark was built on, floating-point-heavy code runs up
// to 1.5x slower while a neighbour loads the host, for seconds to minutes
// at a time, and scrubd-flood's peak RSS follows its throughput.
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_ms_p95", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// layerMetrics come from traced runs only. A workload that does not
// exercise a layer reports 0 for it: that is the "prediction: no change"
// side of the README's layer table.
var layerMetrics = []metricDef{
	// Engine hot-path layers, replayed through their public calls at the
	// workload's parameters and call counts. share is the layer's part of
	// the engine's busy time; engine.loop is the residual.
	{Name: "pcm.sample_crossings.calls", Unit: "count", Better: "lower"},
	{Name: "pcm.sample_crossings.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "pcm.sample_crossings.share", Unit: "ratio", Better: "lower"},
	{Name: "wear.sample_weakest.calls", Unit: "count", Better: "lower"},
	{Name: "wear.sample_weakest.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "wear.sample_weakest.share", Unit: "ratio", Better: "lower"},
	{Name: "trace.writes_in_epoch.calls", Unit: "count", Better: "lower"},
	{Name: "trace.writes_in_epoch.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "trace.writes_in_epoch.share", Unit: "ratio", Better: "lower"},
	{Name: "engine.loop.share", Unit: "ratio", Better: "lower"},
	{Name: "engine.loop.ns_per_visit", Unit: "ns", Better: "lower"},
	{Name: "engine.reconcile_ratio", Unit: "ratio", Better: "lower"},
	{Name: "engine.busy_s", Unit: "s", Better: "lower"},
	{Name: "engine.runs", Unit: "count", Better: "higher"},
	{Name: "engine.visits", Unit: "count", Better: "higher"},
	{Name: "engine.demand_writes", Unit: "count", Better: "higher"},
	{Name: "engine.write_backs", Unit: "count", Better: "lower"},
	{Name: "engine.repairs", Unit: "count", Better: "lower"},
	{Name: "engine.sweeps", Unit: "count", Better: "higher"},
	{Name: "engine.patrol_chunk_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.replica_ms_p50.basic", Unit: "ms", Better: "lower"},
	{Name: "engine.replica_ms_p50.combined", Unit: "ms", Better: "lower"},

	// Durability.
	{Name: "journal.records", Unit: "count", Better: "lower"},
	{Name: "journal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "journal.fsyncs_per_job", Unit: "ratio", Better: "lower"},
	{Name: "journal.group_commits", Unit: "count", Better: "higher"},
	{Name: "journal.append_ms_p50", Unit: "ms", Better: "lower"},

	// HTTP surface: benchmark-owned handler wrappers and client timers.
	{Name: "http.requests", Unit: "count", Better: "higher"},
	{Name: "http.handler_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "http.handler_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "http.transport_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "http.decode_us_per_spec", Unit: "us", Better: "lower"},
	{Name: "http.polls_per_job", Unit: "ratio", Better: "lower"},

	// Admission, cache and queue.
	{Name: "service.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.submit_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "service.fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.exec_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.jobs_completed", Unit: "count", Better: "higher"},
	{Name: "service.specs_per_s", Unit: "1/s", Better: "higher"},

	// Cluster shard path.
	{Name: "cluster.shard_rtt_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.shard_rtt_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "cluster.worker_handler_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.transport_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.merge_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.shards_dispatched", Unit: "count", Better: "lower"},
	{Name: "cluster.shards_local", Unit: "count", Better: "lower"},
	{Name: "cluster.useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cluster.speculations", Unit: "count", Better: "lower"},
	{Name: "cluster.steals_won", Unit: "count", Better: "lower"},
	{Name: "cluster.duplicate_results", Unit: "count", Better: "lower"},

	// Fleet control plane.
	{Name: "fleet.chunks", Unit: "count", Better: "higher"},
	{Name: "fleet.patrol_chunks", Unit: "count", Better: "higher"},
	{Name: "fleet.scrub_chunks", Unit: "count", Better: "higher"},
	{Name: "fleet.preemptions", Unit: "count", Better: "lower"},
	{Name: "fleet.repairs", Unit: "count", Better: "lower"},
	{Name: "fleet.chunk_period_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.tick_sleep_share", Unit: "ratio", Better: "lower"},
	{Name: "fleet.patrol_visits_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fleet.region_scrub_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.region_scrub_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "fleet.generator_lag_ms_max", Unit: "ms", Better: "lower"},

	// Process.
	{Name: "runtime.alloc_mb_per_s", Unit: "MB/s", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.cpu_util", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// workloadDef is one named traffic mix. Each stresses a different layer;
// the why lines are copied into BENCHMARK.json.
type workloadDef struct {
	Name string
	Why  string
	Run  func(e *env) (*outcome, error)
}

var workloads = []workloadDef{
	{
		Name: "campaign-cold",
		Why:  "basic vs combined replicas on idle-archive: patrol visits and write-back crossing sampling take the host time",
		Run:  campaignColdRun,
	},
	{
		Name: "campaign-write",
		Why:  "basic vs combined replicas on db-oltp: demand writes make crossing sampling most of the host time",
		Run:  campaignWriteRun,
	},
	{
		Name: "scrubd-fresh",
		Why:  "2 closed-loop clients submit never-seen specs to a journaled scrubd: engine init and execution dominate",
		Run:  scrubdFresh,
	},
	{
		Name: "scrubd-flood",
		Why:  "2 clients POST 64-spec batches, 97% cache hits: admission, fingerprint, cache and group commit, engine idle",
		Run:  scrubdFlood,
	},
	{
		Name: "cluster-shards",
		Why:  "coordinator plus 2 workers run 8-replica jobs as 4 shards: dispatch, claims board, shard JSON and merge",
		Run:  clusterShards,
	},
	{
		Name: "fleet-patrol",
		Why:  "2 long-lived fleet devices, one per core, patrol in 256-line chunks while region scrubs preempt each every 100 ms",
		Run:  fleetPatrol,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
