package service

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"repro/internal/httpx"
)

// CacheIndexPath and CacheResultsPrefix are the cache-gossip surface
// every node serves: the index lists cached fingerprints, and a result
// is fetched by appending its fingerprint to the prefix.
const (
	CacheIndexPath     = "/v1/cache/index"
	CacheResultsPrefix = "/v1/cache/results/"
)

// TenantHeader names the submitting tenant for per-tenant admission
// rate limiting; absent means the anonymous tenant.
const TenantHeader = "X-Scrubd-Tenant"

// HandlerConfig customises the HTTP surface for the node's cluster role.
// The zero value is a standalone node.
type HandlerConfig struct {
	// Role names the node's cluster role: standalone (default),
	// coordinator, or worker. Reported by /healthz.
	Role string
	// LiveWorkers, when non-nil, reports the number of currently healthy
	// cluster workers (coordinators set this). Reported by /healthz.
	LiveWorkers func() int
	// ClusterInfo, when non-nil, supplies the coordinator's elastic-
	// cluster state (worker counts, steal/speculation counters, gossip
	// freshness) reported under /healthz's "cluster" key.
	ClusterInfo func() any
	// ExtraMetrics, when non-nil, is appended to the /metrics exposition
	// after the service's own metrics (cluster counters plug in here).
	ExtraMetrics func(io.Writer) error
	// Build, when non-nil, is the binary's build identity, reported under
	// /healthz's "build" key so operators can tell which build answered.
	Build any
}

// MaxBatchSpecs caps the spec count of one POST /v1/jobs/batch. The
// 1 MiB body cap (httpx.DefaultMaxBodyBytes) alone admits tens of
// thousands of tiny specs whose single-lock-hold admission and group
// fsync would stall every worker and submitter; oversized batches are
// refused with 413.
const MaxBatchSpecs = 256

// Health is the /healthz response body.
type Health struct {
	Status        string  `json:"status"`
	Role          string  `json:"role"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// LiveWorkers is present only on coordinators.
	LiveWorkers *int `json:"live_workers,omitempty"`
	// Cluster carries the coordinator's elastic-cluster state.
	Cluster any `json:"cluster,omitempty"`
	// Build is the binary's build identity (version, revision).
	Build any `json:"build,omitempty"`
	// Admission is the admission-control block: shed state, queue
	// occupancy per class, watermarks.
	Admission *AdmissionView `json:"admission,omitempty"`
}

// NewHandlerWith exposes a Service over HTTP/JSON:
//
//	POST   /v1/jobs        submit a Spec → Submission (202; 200 on cache
//	                       hit; 429 + Retry-After on queue-full or tenant
//	                       rate limit; 503 + Retry-After while shedding;
//	                       422 for an already-expired deadline; 413 for an
//	                       oversized body)
//	POST   /v1/jobs/batch  submit many Specs in one group commit → 200
//	                       with a per-spec status array (413 past the
//	                       spec-count or body-byte cap)
//	GET    /v1/jobs        list jobs (no result payloads)
//	GET    /v1/jobs/{id}   job status, with result once done
//	DELETE /v1/jobs/{id}   cancel a queued or running job
//	GET    /healthz        liveness, role, uptime, admission state
//	GET    /metrics        Prometheus text exposition
//
// The submitting tenant rides in the X-Scrubd-Tenant header.
func NewHandlerWith(s *Service, cfg HandlerConfig) http.Handler {
	if cfg.Role == "" {
		cfg.Role = "standalone"
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		if err := httpx.DecodeJSON(w, r, 0, true, &spec); err != nil {
			httpx.WriteError(w, httpx.DecodeStatus(err), err)
			return
		}
		sub, err := s.SubmitWith(spec, SubmitOptions{Tenant: r.Header.Get(TenantHeader)})
		if err != nil {
			writeSubmitError(w, s, err)
			return
		}
		httpx.WriteJSON(w, submittedStatus(sub), sub)
	})
	mux.HandleFunc("POST /v1/jobs/batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchSubmitRequest
		if err := httpx.DecodeJSON(w, r, 0, true, &req); err != nil {
			httpx.WriteError(w, httpx.DecodeStatus(err), err)
			return
		}
		if len(req.Specs) == 0 {
			httpx.WriteError(w, http.StatusBadRequest, errors.New("service: batch has no specs"))
			return
		}
		if len(req.Specs) > MaxBatchSpecs {
			httpx.WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("service: batch has %d specs, limit %d", len(req.Specs), MaxBatchSpecs))
			return
		}
		results := s.SubmitBatch(req.Specs, SubmitOptions{Tenant: r.Header.Get(TenantHeader)})
		resp := BatchSubmitResponse{Results: make([]BatchSubmitItem, len(results))}
		for i, res := range results {
			item := &resp.Results[i]
			if res.Err != nil {
				item.Status = submitErrorStatus(res.Err)
				item.Error = res.Err.Error()
				continue
			}
			item.Submission = res.Submission
			item.Status = submittedStatus(res.Submission)
			resp.Accepted++
		}
		// The batch itself always answers 200: each spec carries its own
		// verdict, and partial acceptance is the normal case under load.
		httpx.WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, struct {
			Jobs []JobView `json:"jobs"`
		}{s.List()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := s.Get(r.PathValue("id"))
		if err != nil {
			httpx.WriteError(w, http.StatusNotFound, err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := s.Cancel(r.PathValue("id"))
		switch {
		case errors.Is(err, ErrNotFound):
			httpx.WriteError(w, http.StatusNotFound, err)
			return
		case errors.Is(err, ErrNotRunning):
			httpx.WriteJSON(w, http.StatusConflict, v)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET "+CacheIndexPath, func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, struct {
			Fingerprints []string `json:"fingerprints"`
		}{s.CacheIndex()})
	})
	mux.HandleFunc("GET "+CacheResultsPrefix+"{fp}", func(w http.ResponseWriter, r *http.Request) {
		data, ok := s.CachedResult(r.PathValue("fp"))
		if !ok {
			httpx.WriteError(w, http.StatusNotFound, ErrNotFound)
			return
		}
		// The cached bytes are served verbatim: byte identity across the
		// fleet is the whole point of content-addressed results.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := Health{
			Status:        "ok",
			Role:          cfg.Role,
			UptimeSeconds: s.Uptime().Seconds(),
		}
		if cfg.LiveWorkers != nil {
			n := cfg.LiveWorkers()
			h.LiveWorkers = &n
		}
		if cfg.ClusterInfo != nil {
			h.Cluster = cfg.ClusterInfo()
		}
		h.Build = cfg.Build
		adm := s.Admission()
		h.Admission = &adm
		httpx.WriteJSON(w, http.StatusOK, h)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.Snapshot().WritePrometheus(w); err != nil {
			return
		}
		if cfg.ExtraMetrics != nil {
			_ = cfg.ExtraMetrics(w)
		}
	})
	return mux
}

// BatchSubmitRequest is the POST /v1/jobs/batch body: up to
// MaxBatchSpecs specs, admitted in order and group-committed to the
// journal with a single fsync.
type BatchSubmitRequest struct {
	Specs []Spec `json:"specs"`
}

// BatchSubmitItem is one spec's verdict inside a batch response: the
// HTTP status it would have received alone, plus the Submission on
// acceptance or the error text on refusal.
type BatchSubmitItem struct {
	Submission
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
}

// BatchSubmitResponse is the POST /v1/jobs/batch body: per-spec verdicts
// in request order, plus how many were accepted (including cache hits
// and dedups).
type BatchSubmitResponse struct {
	Results  []BatchSubmitItem `json:"results"`
	Accepted int               `json:"accepted"`
}

// submittedStatus is the status an accepted submission earns: 200 when
// it was answered from the cache, 202 when its job is queued or running.
func submittedStatus(sub Submission) int {
	if sub.CacheHit {
		return http.StatusOK
	}
	return http.StatusAccepted
}

// submitErrorStatus maps an admission error to the status it earns.
func submitErrorStatus(err error) int {
	switch {
	case errors.Is(err, ErrRateLimited), errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShedding), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDeadlineExpired):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusBadRequest
	}
}

// writeSubmitError answers a refused single-spec submission, attaching
// the appropriate Retry-After hint: the token-bucket wait for a
// rate-limited tenant, the occupancy-scaled backoff for queue-full and
// shedding refusals.
func writeSubmitError(w http.ResponseWriter, s *Service, err error) {
	status := submitErrorStatus(err)
	var rl *RateLimitError
	switch {
	case errors.As(err, &rl):
		secs := int(math.Ceil(rl.Wait.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		// Back-pressure, not an outage: the client should retry the same
		// node after a backoff scaled to how full the queue is.
		occ, cap := s.QueueOccupancy()
		SetRetryAfter(w.Header(), occ, cap)
	}
	httpx.WriteError(w, status, err)
}
