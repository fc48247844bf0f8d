package service

import (
	"io"

	"repro/internal/engine"
	"repro/internal/httpx"
)

// Snapshot is a point-in-time view of the service's operational state,
// JSON-encodable and renderable as Prometheus text.
type Snapshot struct {
	// Jobs accepted into the system (including cache hits and dedups).
	JobsAccepted int64 `json:"jobs_accepted"`
	// Jobs whose simulation completed successfully.
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCancelled int64 `json:"jobs_cancelled"`
	// Jobs refused because the queue was full.
	JobsRejected int64 `json:"jobs_rejected"`

	// CacheHits counts submissions answered from the result cache;
	// CacheMisses counts submissions that enqueued a fresh run; Deduped
	// counts submissions attached to an identical in-flight job.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Deduped     int64 `json:"deduped"`
	CacheSize   int   `json:"cache_size"`

	// JobsRecovered counts incomplete journaled jobs re-enqueued at
	// boot; JobsRestored counts terminal jobs restored verbatim.
	JobsRecovered int64 `json:"jobs_recovered"`
	JobsRestored  int64 `json:"jobs_restored"`

	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	Workers       int `json:"workers"`
	BusyWorkers   int `json:"busy_workers"`

	// Per-class queue backlogs and the admission-control state.
	QueueInteractive int `json:"queue_interactive"`
	QueueNormal      int `json:"queue_normal"`
	QueueBatch       int `json:"queue_batch"`
	// AdmissionState is the shed ladder position ("healthy", "shed-batch",
	// "shed-normal", "interactive-only").
	AdmissionState string `json:"admission_state"`

	// Admission-control counters.
	RateLimited      int64 `json:"rate_limited"`
	ShedBatch        int64 `json:"shed_batch"`
	ShedNormal       int64 `json:"shed_normal"`
	ShedInteractive  int64 `json:"shed_interactive"`
	DeadlineRejected int64 `json:"deadline_rejected"`
	DeadlineReaped   int64 `json:"deadline_reaped"`
	AgedServed       int64 `json:"aged_served"`
	Escalated        int64 `json:"escalated"`
	BatchRequests    int64 `json:"batch_requests"`
	BatchSpecs       int64 `json:"batch_specs"`

	// JobWallSeconds accumulates wall time across finished executions.
	JobWallSeconds float64 `json:"job_wall_seconds"`
	// WorkerUtilization is BusyWorkers / Workers.
	WorkerUtilization float64 `json:"worker_utilization"`

	// Engine is the process-wide execution-engine totals: simulation work
	// (visits, sweeps, probes, decodes, write-backs, repairs) aggregated
	// across every run this daemon executed, including cluster shards.
	Engine engine.Totals `json:"engine"`
}

// admissionStateNum maps a shed-state wire name onto its ladder position
// for the scrubd_admission_state gauge.
func admissionStateNum(state string) int {
	for n := ShedHealthy; n <= ShedInteractiveOnly; n++ {
		if n.String() == state {
			return int(n)
		}
	}
	return 0
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format under the scrubd_ namespace.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	return httpx.WriteMetrics(w,
		httpx.Counter("scrubd_jobs_accepted_total", "Jobs accepted (including cache hits and dedups).", float64(s.JobsAccepted)),
		httpx.Counter("scrubd_jobs_completed_total", "Jobs whose simulation completed successfully.", float64(s.JobsCompleted)),
		httpx.Counter("scrubd_jobs_failed_total", "Jobs that failed.", float64(s.JobsFailed)),
		httpx.Counter("scrubd_jobs_cancelled_total", "Jobs cancelled before completion.", float64(s.JobsCancelled)),
		httpx.Counter("scrubd_jobs_rejected_total", "Submissions refused because the queue was full.", float64(s.JobsRejected)),
		httpx.Counter("scrubd_cache_hits_total", "Submissions answered from the result cache.", float64(s.CacheHits)),
		httpx.Counter("scrubd_cache_misses_total", "Submissions that enqueued a fresh run.", float64(s.CacheMisses)),
		httpx.Counter("scrubd_jobs_deduped_total", "Submissions attached to an identical in-flight job.", float64(s.Deduped)),
		httpx.Counter("scrubd_recovered_jobs_total", "Incomplete journaled jobs re-enqueued at boot.", float64(s.JobsRecovered)),
		httpx.Counter("scrubd_restored_jobs_total", "Terminal journaled jobs restored verbatim at boot.", float64(s.JobsRestored)),
		httpx.Gauge("scrubd_cache_entries", "Results currently cached.", float64(s.CacheSize)),
		httpx.Gauge("scrubd_queue_depth", "Jobs waiting in the queue.", float64(s.QueueDepth)),
		httpx.Gauge("scrubd_queue_capacity", "Queue capacity.", float64(s.QueueCapacity)),
		httpx.Gauge("scrubd_queue_depth_interactive", "Interactive-class jobs waiting in the queue.", float64(s.QueueInteractive)),
		httpx.Gauge("scrubd_queue_depth_normal", "Normal-class jobs waiting in the queue.", float64(s.QueueNormal)),
		httpx.Gauge("scrubd_queue_depth_batch", "Batch-class jobs waiting in the queue.", float64(s.QueueBatch)),
		httpx.Gauge("scrubd_admission_state", "Shed ladder position (0 healthy, 1 shed-batch, 2 shed-normal, 3 interactive-only).", float64(admissionStateNum(s.AdmissionState))),
		httpx.Counter("scrubd_rate_limited_total", "Submissions refused by per-tenant token buckets.", float64(s.RateLimited)),
		httpx.Counter("scrubd_shed_batch_total", "Batch-class submissions refused by load shedding.", float64(s.ShedBatch)),
		httpx.Counter("scrubd_shed_normal_total", "Normal-class submissions refused by load shedding.", float64(s.ShedNormal)),
		httpx.Counter("scrubd_shed_interactive_total", "Interactive-class submissions refused by load shedding.", float64(s.ShedInteractive)),
		httpx.Counter("scrubd_deadline_rejected_total", "Submissions refused because their deadline had already expired.", float64(s.DeadlineRejected)),
		httpx.Counter("scrubd_deadline_reaped_total", "Queued jobs failed because their deadline expired while waiting.", float64(s.DeadlineReaped)),
		httpx.Counter("scrubd_aged_served_total", "Jobs served by the starvation-avoidance aging path.", float64(s.AgedServed)),
		httpx.Counter("scrubd_dedup_escalations_total", "Queued jobs rescheduled upward by a higher-priority duplicate.", float64(s.Escalated)),
		httpx.Counter("scrubd_batch_requests_total", "Batch submission requests handled.", float64(s.BatchRequests)),
		httpx.Counter("scrubd_batch_specs_total", "Specs received across batch submission requests.", float64(s.BatchSpecs)),
		httpx.Gauge("scrubd_workers", "Worker pool size.", float64(s.Workers)),
		httpx.Gauge("scrubd_workers_busy", "Workers currently executing a job.", float64(s.BusyWorkers)),
		httpx.Counter("scrubd_job_wall_seconds_total", "Wall time accumulated across finished executions.", s.JobWallSeconds),
		httpx.Counter("scrubd_engine_runs_total", "Simulation runs completed by the execution engine.", float64(s.Engine.Runs)),
		httpx.Counter("scrubd_engine_canceled_runs_total", "Engine runs ended by context cancellation.", float64(s.Engine.CanceledRuns)),
		httpx.Counter("scrubd_engine_visits_total", "Scrub visits performed across completed runs.", float64(s.Engine.Visits)),
		httpx.Counter("scrubd_engine_sweeps_total", "Scrub sweeps performed across completed runs.", float64(s.Engine.Sweeps)),
		httpx.Counter("scrubd_engine_probes_total", "Lightweight CRC probes across completed runs.", float64(s.Engine.Probes)),
		httpx.Counter("scrubd_engine_decodes_total", "Full ECC decodes across completed runs.", float64(s.Engine.Decodes)),
		httpx.Counter("scrubd_engine_write_backs_total", "Policy write-backs across completed runs.", float64(s.Engine.WriteBacks)),
		httpx.Counter("scrubd_engine_repairs_total", "UE repair writes across completed runs.", float64(s.Engine.Repairs)),
		httpx.Counter("scrubd_engine_demand_writes_total", "Demand writes across completed runs.", float64(s.Engine.DemandWrites)),
		httpx.Counter("scrubd_engine_ues_total", "Uncorrectable errors across completed runs.", float64(s.Engine.UEs)),
		httpx.Counter("scrubd_engine_sim_seconds_total", "Simulated seconds across completed runs.", s.Engine.SimSeconds),
		httpx.Counter("scrubd_engine_ondie_corrected_bits_total", "Raw error bits silently corrected by on-die ECC across completed runs.", float64(s.Engine.OnDieCorrectedBits)),
		httpx.Counter("scrubd_engine_profile_rounds_total", "Active error-profiling rounds across completed runs.", float64(s.Engine.ProfileRounds)),
		httpx.Counter("scrubd_engine_profile_reads_total", "Line reads charged to active profiling across completed runs.", float64(s.Engine.ProfileReads)),
		httpx.Gauge("scrubd_engine_at_risk_lines", "At-risk lines held by profiled policies at end of their runs.", float64(s.Engine.AtRiskLines)),
		httpx.Counter("scrubd_engine_at_risk_visits_total", "Patrol visits redirected toward at-risk lines across completed runs.", float64(s.Engine.AtRiskVisits)),
	)
}
