package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// equivSystem is the fixed small machine the engine equivalence tests pin
// fingerprints on: large enough that every mechanism takes several sweeps
// and sees demand traffic, small enough to run all five in well under a
// second.
func equivSystem() System {
	sys := DefaultSystem()
	sys.Geometry = mem.Geometry{
		Channels: 1, RanksPerChan: 1, BanksPerRank: 2,
		RowsPerBank: 16, LinesPerRow: 16, LineBytes: 64,
	} // 512 lines
	sys.Horizon = 86400
	sys.Substeps = 8
	sys.Seed = 7
	return sys
}

// resultFingerprint hashes the full JSON encoding of a run result, so any
// behavioural drift — a counter, an energy figure, a summary moment —
// changes the digest.
func resultFingerprint(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestEngineMatchesPreRefactorGoldens pins, for every mechanism in the
// suite, the SHA-256 of the full result JSON as produced by the
// pre-refactor sim loop (captured at the commit that introduced
// internal/engine). The engine-backed pipeline must reproduce each run
// byte-identically. "basic" was re-pinned when the crossing sampler moved
// to the exponential-spacings grid: its UE detection-delay moments shift
// in the sixth significant digit, every count holds (DESIGN.md,
// "Re-pinning goldens").
func TestEngineMatchesPreRefactorGoldens(t *testing.T) {
	want := map[string]string{
		"basic":        "f339f17e9470dc1d3cb61baa817d10181015ad7ca0c8db8d667ecb327248c8ee",
		"strong-ecc":   "ab62147dce8bd1c7969dadbf049265a94803760218a56734f5beecbccb26221d",
		"light-detect": "660f86e4de2e74de58578d7c0ed7b7db4fcd768a4f644775a7b3ac825e12d84a",
		"threshold":    "c65ed545f264c0bd973e6f6378282c81f5fa3354376940259d30c277695bb7bc",
		"combined":     "d3bc199cebcbea44fc40a37c34fc089f4887e6673e643d1b9662b85eb597ef40",
	}
	sys := equivSystem()
	w, err := trace.ByName("db-oltp")
	if err != nil {
		t.Fatal(err)
	}
	mechs, err := Suite(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mechs {
		res, err := RunOne(sys, m, w)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		got := resultFingerprint(t, res)
		if want[m.Name] == "" {
			t.Fatalf("%s: no pinned fingerprint (got %s)", m.Name, got)
		}
		if got != want[m.Name] {
			t.Errorf("%s: result fingerprint drifted:\n got  %s\n want %s", m.Name, got, want[m.Name])
		}
	}
}
