package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/service"
)

// node is one in-process scrubd: a service behind a loopback HTTP server,
// optionally journaled, plus whatever background loops its role runs.
type node struct {
	svc  *service.Service
	jn   *journal.Journal
	jdir string
	srv  *http.Server
	url  string

	cancels []context.CancelFunc
	loops   sync.WaitGroup
	served  chan error
}

// startNode opens the journal (when journaled), starts the service and
// serves mount's mux on 127.0.0.1 with cmd/scrubd's server timeouts.
func startNode(e *env, cfg service.Config, journaled bool, mount func(*http.ServeMux, *service.Service)) (*node, error) {
	n := &node{served: make(chan error, 1)}
	if journaled {
		dir, err := os.MkdirTemp(e.dir, "journal-")
		if err != nil {
			return nil, err
		}
		jn, _, err := journal.Open(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("open journal: %w", err)
		}
		n.jn, n.jdir = jn, dir
		cfg.Journal = jn
	}
	n.svc = service.New(cfg)
	mux := http.NewServeMux()
	mount(mux, n.svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.close()
		return nil, err
	}
	n.url = "http://" + ln.Addr().String()
	n.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { n.served <- n.srv.Serve(ln) }()
	return n, nil
}

// loop runs fn in a background goroutine that stops with the node.
func (n *node) loop(fn func(ctx context.Context)) {
	ctx, cancel := context.WithCancel(context.Background())
	n.cancels = append(n.cancels, cancel)
	n.loops.Add(1)
	go func() {
		defer n.loops.Done()
		fn(ctx)
	}()
}

// close stops the node's loops, drains its server and service, and
// removes its journal.
func (n *node) close() {
	for _, cancel := range n.cancels {
		cancel()
	}
	n.loops.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if n.srv != nil {
		_ = n.srv.Shutdown(ctx) // a drain cut short leaves nothing to report
		<-n.served
	}
	_ = n.svc.Shutdown(ctx) // queued work left at the deadline is cancelled
	if n.jn != nil {
		_ = n.jn.Close()
		os.RemoveAll(n.jdir)
	}
}

// spanHeader carries "<request>/<parent span>" from a benchmark client to
// the benchmark's handler wrappers, so server-side spans join the client's
// request. The daemons ignore it.
const spanHeader = "X-Bench-Span"

func parseSpanHeader(h http.Header) (req, parent int64) {
	r, p, ok := strings.Cut(h.Get(spanHeader), "/")
	if !ok {
		return 0, 0
	}
	req, _ = strconv.ParseInt(r, 10, 64)
	parent, _ = strconv.ParseInt(p, 10, 64)
	return req, parent
}

// traced wraps a daemon handler in a span named by route; untraced runs
// get the handler back unchanged.
func traced(tr *tracer, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		req, parent := parseSpanHeader(r.Header)
		tr.add(0, parent, req, routeName(r), start, time.Now())
	})
}

func routeName(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		return "server.submit"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs/batch":
		return "server.batch"
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		return "server.poll"
	case strings.HasPrefix(r.URL.Path, "/v1/cluster/shards"):
		return "worker.shard"
	}
	return "server.other"
}

// client is a benchmark client: at most two connections to the daemon,
// one request at a time per client goroutine.
type client struct {
	hc *http.Client
	tr *tracer
}

func newClient(tr *tracer) *client {
	return &client{tr: tr, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2,
		MaxConnsPerHost:     2,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one JSON request (in may be nil), checks the reply's status is
// want, and decodes the reply into out. It records a client span named
// name under request req, and returns the round-trip time.
func (c *client) do(ctx context.Context, method, url string, in, out any, want int, req int64, name string) (time.Duration, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(data)
	}
	hr, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	id := c.tr.newID()
	if c.tr != nil {
		hr.Header.Set(spanHeader, fmt.Sprintf("%d/%d", req, id))
	}
	start := time.Now()
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	rtt := time.Since(start)
	c.tr.add(id, req, req, name, start, start.Add(rtt))
	if err != nil {
		return rtt, err
	}
	if resp.StatusCode != want {
		return rtt, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return rtt, fmt.Errorf("decode %s %s: %w", method, url, err)
		}
	}
	return rtt, nil
}

// pollInterval is how often a client re-reads a job's state. Job latency
// is measured to the server's finished_at, so the interval sets only how
// soon a closed-loop client issues its next job.
const pollInterval = 2 * time.Millisecond

// awaitJob polls a job until it is terminal and returns its final view
// and the number of polls it took.
func (c *client) awaitJob(ctx context.Context, base, id string, req int64) (service.JobView, int, error) {
	for polls := 1; ; polls++ {
		var v service.JobView
		if _, err := c.do(ctx, http.MethodGet, base+"/v1/jobs/"+id, nil, &v, http.StatusOK, req, "client.poll"); err != nil {
			return v, polls, err
		}
		if v.State.Terminal() {
			if v.State != service.StateDone {
				return v, polls, fmt.Errorf("job %s ended %s: %s", id, v.State, v.Error)
			}
			if v.FinishedAt == nil {
				return v, polls, fmt.Errorf("job %s done without finished_at", id)
			}
			return v, polls, nil
		}
		select {
		case <-ctx.Done():
			return v, polls, ctx.Err()
		case <-time.After(pollInterval):
		}
	}
}

// jobRecord is one completed job as a client saw it.
type jobRecord struct {
	req  int64
	spec service.Spec
	send time.Time
	view service.JobView
}

// submitAndWait POSTs a fresh spec as request req, waits for its result,
// and records the job's phases as spans: queued (submitted -> started) and
// exec (started -> finished) under the request's root span "job" (send ->
// finished).
func (c *client) submitAndWait(ctx context.Context, base string, spec service.Spec, req int64, submits *recorder) (*jobRecord, int, error) {
	rec := &jobRecord{req: req, spec: spec, send: time.Now()}
	var sub service.Submission
	rtt, err := c.do(ctx, http.MethodPost, base+"/v1/jobs", spec, &sub, http.StatusAccepted, rec.req, "client.submit")
	if err != nil {
		return nil, 0, fmt.Errorf("submit: %w", err)
	}
	submits.op(rtt, 0)
	v, polls, err := c.awaitJob(ctx, base, sub.ID, rec.req)
	if err != nil {
		return nil, polls, err
	}
	rec.view = v
	if c.tr != nil && v.StartedAt != nil {
		c.tr.add(0, rec.req, rec.req, "job.queued", v.SubmittedAt, *v.StartedAt)
		c.tr.add(0, rec.req, rec.req, "job.exec", *v.StartedAt, *v.FinishedAt)
		c.tr.add(rec.req, 0, rec.req, "job", rec.send, *v.FinishedAt)
	}
	return rec, polls, nil
}

// latency is the job's submit-to-result time: client send to the
// server's finished_at, so poll granularity drops out.
func (r *jobRecord) latency() time.Duration { return r.view.FinishedAt.Sub(r.send) }

// result decodes the job's result payload.
func (r *jobRecord) result() (*service.Result, error) {
	var res service.Result
	if err := json.Unmarshal(r.view.Result, &res); err != nil {
		return nil, fmt.Errorf("decode result of %s: %w", r.view.ID, err)
	}
	return &res, nil
}

// sampleMatchesDefaultRunner checks that the first n records' result
// bytes equal json.Marshal of service.DefaultRunner on the same
// normalised spec, and records the verdict.
func sampleMatchesDefaultRunner(o *outcome, recs []*jobRecord, n int) error {
	n = min(n, len(recs))
	if n == 0 {
		return errors.New("no job completed to sample")
	}
	matched := 0
	for _, rec := range recs[:n] {
		norm, err := rec.spec.Normalized()
		if err != nil {
			return err
		}
		res, err := service.DefaultRunner(context.Background(), norm)
		if err != nil {
			return err
		}
		want, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if bytes.Equal(want, rec.view.Result) {
			matched++
		}
	}
	o.check("results_match_default_runner", matched == n,
		"%d of %d sampled results byte-identical to service.DefaultRunner", matched, n)
	return nil
}

// journalCounts snapshots a journal's counters.
type journalCounts struct{ appended, fsyncs, groupCommits int64 }

func countJournal(j *journal.Journal) journalCounts {
	if j == nil {
		return journalCounts{}
	}
	return journalCounts{j.Appended(), j.Fsyncs(), j.GroupCommits()}
}

// journalLayers records the journal's work in the window.
func journalLayers(o *outcome, a, b journalCounts, jobs int64) {
	o.layer("journal.records", float64(b.appended-a.appended))
	o.layer("journal.fsyncs", float64(b.fsyncs-a.fsyncs))
	o.layer("journal.group_commits", float64(b.groupCommits-a.groupCommits))
	if jobs > 0 {
		o.layer("journal.fsyncs_per_job", float64(b.fsyncs-a.fsyncs)/float64(jobs))
	}
}

// httpLayers records the HTTP surface of the workload's main request:
// server handler time and the client-side remainder (transport).
func httpLayers(o *outcome, tr *tracer, server, clientSpan string) {
	n := 0
	for _, s := range tr.all() {
		if strings.HasPrefix(s.Name, "server.") || s.Name == "worker.shard" {
			n++
		}
	}
	o.layer("http.requests", float64(n))
	o.layer("http.handler_ms_p50", spanQuantile(tr, server, 0.5))
	o.layer("http.handler_ms_p95", spanQuantile(tr, server, 0.95))
	o.layer("http.transport_ms_p50", selfQuantile(tr, clientSpan, 0.5))
}
