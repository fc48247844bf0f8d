package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/httpx"
	"repro/internal/service"
)

// postShard posts one shard request and returns the raw response.
func postShardRaw(t *testing.T, url string, req ShardRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestWorkerBodyLimit pins the shard-request body cap: a request over
// httpx.DefaultMaxBodyBytes earns 413 before any simulation work
// happens.
func TestWorkerBodyLimit(t *testing.T) {
	w := NewWorker(1)
	ts := httptest.NewServer(w.ShardHandler())
	defer ts.Close()

	huge := fmt.Sprintf(`{"spec":{"workload":%q},"first":0,"count":1}`,
		strings.Repeat("x", int(httpx.DefaultMaxBodyBytes)))
	resp, err := http.Post(ts.URL, "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized shard request: %d, want 413", resp.StatusCode)
	}
	if got := w.Snapshot().ShardsExecuted; got != 0 {
		t.Fatalf("oversized request executed %d shards", got)
	}
}

// TestWorkerClassScaledRetryAfter pins class-aware back-pressure: a
// worker at capacity invites a batch shard back twice as late as an
// interactive one carrying the same occupancy.
func TestWorkerClassScaledRetryAfter(t *testing.T) {
	w := NewWorker(1)
	w.sem <- struct{}{} // occupy the only slot
	defer func() { <-w.sem }()
	ts := httptest.NewServer(w.ShardHandler())
	defer ts.Close()

	retryAfter := func(priority string) int {
		spec := tinySpec(t, 2)
		spec.Priority = priority
		resp := postShardRaw(t, ts.URL, ShardRequest{Spec: spec, First: 0, Count: 1})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("priority %q at capacity: %d, want 429", priority, resp.StatusCode)
		}
		ra := resp.Header.Get("Retry-After")
		if ra == "" {
			t.Fatalf("priority %q 429 without Retry-After", priority)
		}
		sec, err := strconv.Atoi(ra)
		if err != nil {
			t.Fatalf("priority %q Retry-After %q: %v", priority, ra, err)
		}
		return sec
	}

	interactive := retryAfter(service.PriorityInteractive)
	batch := retryAfter(service.PriorityBatch)
	if batch != 2*interactive {
		t.Fatalf("batch Retry-After %ds vs interactive %ds, want exactly double", batch, interactive)
	}
	if got := w.Snapshot().ShardsRejected; got != 2 {
		t.Fatalf("rejected = %d, want 2", got)
	}
}

// TestWorkerPerClassCounters pins the executed-shard class split.
func TestWorkerPerClassCounters(t *testing.T) {
	w := NewWorker(2)
	ts := httptest.NewServer(w.ShardHandler())
	defer ts.Close()

	spec := tinySpec(t, 2)
	spec.Priority = service.PriorityInteractive
	resp := postShardRaw(t, ts.URL, ShardRequest{Spec: spec, First: 0, Count: 2})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interactive shard: %d, want 200", resp.StatusCode)
	}
	snap := w.Snapshot()
	if snap.ShardsInteractive != 1 || snap.ShardsBatch != 0 {
		t.Fatalf("class split interactive %d batch %d, want 1/0", snap.ShardsInteractive, snap.ShardsBatch)
	}
}
