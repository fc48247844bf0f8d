package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scrub"
	"repro/internal/service"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		spec   string
		name   string
		detect scrub.Detection
	}{
		{"basic", "basic", scrub.FullDecode},
		{"always", "always-write", scrub.FullDecode},
		{"light", "basic+light", scrub.LightDetect},
		{"threshold-3", "threshold-3", scrub.FullDecode},
		{"combined-5", "combined", scrub.LightDetect},
	}
	for _, c := range cases {
		p, err := parsePolicy(c.spec)
		if err != nil {
			t.Fatalf("parsePolicy(%q): %v", c.spec, err)
		}
		if p.Name() != c.name {
			t.Errorf("parsePolicy(%q).Name() = %q, want %q", c.spec, p.Name(), c.name)
		}
		if p.Detection() != c.detect {
			t.Errorf("parsePolicy(%q) detection = %v, want %v", c.spec, p.Detection(), c.detect)
		}
	}
}

func TestParsePolicyThresholdSemantics(t *testing.T) {
	p, err := parsePolicy("threshold-4")
	if err != nil {
		t.Fatal(err)
	}
	if p.ShouldWriteBack(scrub.VisitInfo{ErrBits: 3}) {
		t.Error("threshold-4 wrote at 3 errors")
	}
	if !p.ShouldWriteBack(scrub.VisitInfo{ErrBits: 4}) {
		t.Error("threshold-4 refused at 4 errors")
	}
}

func TestParsePolicyRejectsUnknown(t *testing.T) {
	for _, spec := range []string{"", "bogus", "threshold-", "threshold-x", "combined"} {
		if _, err := parsePolicy(spec); err == nil {
			t.Errorf("parsePolicy(%q) accepted", spec)
		}
	}
}

// TestSubmitJobRoundTrip drives the -submit client path against a real
// in-process scrubd service and checks the remote result matches a local
// run of the same spec.
func TestSubmitJobRoundTrip(t *testing.T) {
	svc := service.New(service.Config{QueueCapacity: 4, Workers: 1, CacheCapacity: 4})
	defer shutdownService(t, svc)
	srv := httptest.NewServer(service.NewHandlerWith(svc, service.HandlerConfig{}))
	defer srv.Close()

	spec := service.Spec{
		Mechanism:  "basic",
		Workload:   "db-oltp",
		HorizonSec: 20000,
		Seed:       3,
		Replicas:   2,
		Geometry: &service.GeometrySpec{
			Channels: 1, RanksPerChan: 1, BanksPerRank: 2,
			RowsPerBank: 8, LinesPerRow: 8, LineBytes: 64,
		},
	}
	got, err := submitJob(context.Background(), srv.URL, spec, time.Minute)
	if err != nil {
		t.Fatalf("submitJob: %v", err)
	}

	norm, err := spec.Normalized()
	if err != nil {
		t.Fatalf("Normalized: %v", err)
	}
	want, err := service.DefaultRunner(context.Background(), norm)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("remote result differs from local:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	// The remote result reconstructs into the local report inputs.
	if len(got.Runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(got.Runs))
	}
	res0 := got.Runs[0].ToSimResult()
	sys, _, w, err := got.Spec.Build()
	if err != nil {
		t.Fatalf("rebuild spec: %v", err)
	}
	if slow := core.PerfOverhead(sys, w, res0); slow < 1 {
		t.Errorf("PerfOverhead on reconstructed result: slowdown %g < 1", slow)
	}
}

// TestSubmitJobBadSpec pins that a daemon-side validation error surfaces
// as a submit error, not a hang.
func TestSubmitJobBadSpec(t *testing.T) {
	svc := service.New(service.Config{QueueCapacity: 4, Workers: 1, CacheCapacity: 4})
	defer shutdownService(t, svc)
	srv := httptest.NewServer(service.NewHandlerWith(svc, service.HandlerConfig{}))
	defer srv.Close()

	_, err := submitJob(context.Background(), srv.URL, service.Spec{Workload: "no-such-workload"}, time.Minute)
	if err == nil {
		t.Fatal("submitJob accepted an invalid spec")
	}
}

func shutdownService(t *testing.T, svc *service.Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Errorf("service shutdown: %v", err)
	}
}
