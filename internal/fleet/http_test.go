package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/journal"
)

// doJSON issues a request against the test server and decodes the body.
func doJSON(t *testing.T, srv *httptest.Server, method, path string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatalf("encode body: %v", err)
		}
	}
	req, err := http.NewRequest(method, srv.URL+path, &buf)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func TestFleetHTTPSurface(t *testing.T) {
	m := NewManager(nil)
	defer m.Shutdown()
	mux := http.NewServeMux()
	m.RegisterRoutes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Register a device.
	var dev DeviceView
	if code := doJSON(t, srv, "POST", "/v1/fleet/devices", testDeviceSpec(42), &dev); code != http.StatusCreated {
		t.Fatalf("register status = %d, want 201", code)
	}
	if dev.ID == "" || dev.Lines != 128 {
		t.Fatalf("registered device = %+v", dev)
	}

	// Bad specs are rejected.
	if code := doJSON(t, srv, "POST", "/v1/fleet/devices",
		DeviceSpec{Workload: "no-such"}, nil); code != http.StatusBadRequest {
		t.Errorf("bad spec status = %d, want 400", code)
	}
	if code := doJSON(t, srv, "GET", "/v1/fleet/devices/dev-999999", nil, nil); code != http.StatusNotFound {
		t.Errorf("missing device status = %d, want 404", code)
	}

	// List shows the device.
	var list struct {
		Devices []DeviceView `json:"devices"`
	}
	if code := doJSON(t, srv, "GET", "/v1/fleet/devices", nil, &list); code != http.StatusOK {
		t.Fatalf("list status = %d", code)
	}
	if len(list.Devices) != 1 || list.Devices[0].ID != dev.ID {
		t.Fatalf("list = %+v", list)
	}

	// Live PATCH: the merged config comes back and sticks.
	var cfg PatrolConfig
	patch := map[string]any{"rate_lines_per_sec": 999.0, "paused": true}
	if code := doJSON(t, srv, "PATCH", "/v1/fleet/devices/"+dev.ID+"/patrol", patch, &cfg); code != http.StatusOK {
		t.Fatalf("patch status = %d", code)
	}
	if cfg.RateLinesPerSec != 999 || !cfg.Paused {
		t.Fatalf("patched config = %+v", cfg)
	}
	var got PatrolConfig
	if code := doJSON(t, srv, "GET", "/v1/fleet/devices/"+dev.ID+"/patrol", nil, &got); code != http.StatusOK || got != cfg {
		t.Fatalf("patrol readback = %+v (%d), want %+v", got, code, cfg)
	}
	if code := doJSON(t, srv, "PATCH", "/v1/fleet/devices/"+dev.ID+"/patrol",
		map[string]any{"rate_lines_per_sec": -1}, nil); code != http.StatusBadRequest {
		t.Errorf("invalid patch status = %d, want 400", code)
	}

	// On-demand scrub: accepted, runs even while patrol is paused.
	var sv ScrubView
	if code := doJSON(t, srv, "POST", "/v1/fleet/devices/"+dev.ID+"/scrubs",
		ScrubRequest{First: 0, Count: 32}, &sv); code != http.StatusAccepted {
		t.Fatalf("scrub submit status = %d, want 202", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var s ScrubView
		if code := doJSON(t, srv, "GET", "/v1/fleet/devices/"+dev.ID+"/scrubs/"+sv.ID, nil, &s); code != http.StatusOK {
			t.Fatalf("scrub get status = %d", code)
		}
		if s.State == ScrubDone {
			if s.Report.LinesScrubbed != 32 {
				t.Errorf("scrub report = %+v", s.Report)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrub never finished: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := doJSON(t, srv, "POST", "/v1/fleet/devices/"+dev.ID+"/scrubs",
		ScrubRequest{First: 1000, Count: 5}, nil); code != http.StatusBadRequest {
		t.Errorf("out-of-range scrub status = %d, want 400", code)
	}

	// Telemetry and repairs respond (possibly empty) with valid shapes.
	var tel struct {
		Lines []LineTelemetry `json:"lines"`
	}
	if code := doJSON(t, srv, "GET", "/v1/fleet/devices/"+dev.ID+"/telemetry?limit=5", nil, &tel); code != http.StatusOK {
		t.Errorf("telemetry status = %d", code)
	}
	if code := doJSON(t, srv, "GET", "/v1/fleet/devices/"+dev.ID+"/telemetry?limit=x", nil, nil); code != http.StatusBadRequest {
		t.Errorf("bad limit status = %d, want 400", code)
	}
	var reps struct {
		Repairs []RepairEvent `json:"repairs"`
	}
	if code := doJSON(t, srv, "GET", "/v1/fleet/devices/"+dev.ID+"/repairs", nil, &reps); code != http.StatusOK {
		t.Errorf("repairs status = %d", code)
	}

	// Remove, then everything 404s.
	if code := doJSON(t, srv, "DELETE", "/v1/fleet/devices/"+dev.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete status = %d, want 204", code)
	}
	if code := doJSON(t, srv, "GET", "/v1/fleet/devices/"+dev.ID, nil, nil); code != http.StatusNotFound {
		t.Errorf("deleted device status = %d, want 404", code)
	}
}

// TestPatchJournalFailureIs500 closes the journal under a live device:
// a PATCH the journal cannot record must not be acknowledged, and the
// handler must blame the server (500), not the request (400).
func TestPatchJournalFailureIs500(t *testing.T) {
	jnl, _, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	m := NewManager(jnl)
	defer m.Shutdown()
	mux := http.NewServeMux()
	m.RegisterRoutes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var dev DeviceView
	if code := doJSON(t, srv, "POST", "/v1/fleet/devices", testDeviceSpec(42), &dev); code != http.StatusCreated {
		t.Fatalf("register status = %d, want 201", code)
	}
	if err := jnl.Close(); err != nil {
		t.Fatalf("journal.Close: %v", err)
	}
	rate := 256.0 / 3600
	if _, err := m.Patch(dev.ID, PatrolPatch{RateLinesPerSec: &rate}); err == nil {
		t.Error("Patch succeeded on a closed journal")
	}
	path := "/v1/fleet/devices/" + dev.ID + "/patrol"
	if code := doJSON(t, srv, "PATCH", path, PatrolPatch{RateLinesPerSec: &rate}, nil); code != http.StatusInternalServerError {
		t.Errorf("PATCH on a closed journal: status %d, want 500", code)
	}
	bad := -1.0
	if code := doJSON(t, srv, "PATCH", path, PatrolPatch{RateLinesPerSec: &bad}, nil); code != http.StatusBadRequest {
		t.Errorf("invalid PATCH: status %d, want 400", code)
	}
}

// TestFailedPatchChangesNothing pins journal-before-apply: a PATCH the
// journal cannot record is answered 500 and leaves the running session
// on its old rate and policy.
func TestFailedPatchChangesNothing(t *testing.T) {
	jnl, _, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	m := NewManager(jnl)
	defer m.Shutdown()
	mux := http.NewServeMux()
	m.RegisterRoutes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var before DeviceView
	if code := doJSON(t, srv, "POST", "/v1/fleet/devices", testDeviceSpec(42), &before); code != http.StatusCreated {
		t.Fatalf("register status = %d, want 201", code)
	}
	if err := jnl.Close(); err != nil {
		t.Fatalf("journal.Close: %v", err)
	}
	patch := map[string]any{"rate_lines_per_sec": 0.5, "policy": "light"}
	if code := doJSON(t, srv, "PATCH", "/v1/fleet/devices/"+before.ID+"/patrol", patch, nil); code != http.StatusInternalServerError {
		t.Fatalf("PATCH on a closed journal: status %d, want 500", code)
	}
	after, err := m.Get(before.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Patrol != before.Patrol || after.Policy != before.Policy {
		t.Errorf("refused PATCH changed the session: patrol %+v policy %q, want %+v %q",
			after.Patrol, after.Policy, before.Patrol, before.Policy)
	}
}

// TestFleetBodyLimit pins the request-body cap on the fleet surface: a
// POST or PATCH body over httpx.DefaultMaxBodyBytes earns 413.
func TestFleetBodyLimit(t *testing.T) {
	m := NewManager(nil)
	defer m.Shutdown()
	mux := http.NewServeMux()
	m.RegisterRoutes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var dev DeviceView
	if code := doJSON(t, srv, "POST", "/v1/fleet/devices", testDeviceSpec(42), &dev); code != http.StatusCreated {
		t.Fatalf("register status = %d, want 201", code)
	}
	// Leading whitespace makes each body valid JSON, just too long.
	pad := strings.Repeat(" ", int(httpx.DefaultMaxBodyBytes))
	for _, c := range []struct{ method, path, body string }{
		{"POST", "/v1/fleet/devices", `{"workload":"idle-archive"}`},
		{"PATCH", "/v1/fleet/devices/" + dev.ID + "/patrol", `{"paused":true}`},
		{"POST", "/v1/fleet/devices/" + dev.ID + "/scrubs", `{"first":0,"count":1}`},
	} {
		req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(pad+c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", c.method, c.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s over 1 MiB: status %d, want 413", c.method, c.path, resp.StatusCode)
		}
	}
}
