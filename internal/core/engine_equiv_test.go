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
// in the sixth significant digit, every count holds. All five were
// re-pinned when stats.RNG.Exponential became a ziggurat, which changes
// every spacing's draw and so every crossing time (DESIGN.md,
// "Re-pinning goldens"). All five were re-pinned again when
// wear.SampleWeakest moved to ziggurat spacings and a normal-score
// table: its draws per line are no longer fixed, so every later draw of
// the run shifts.
func TestEngineMatchesPreRefactorGoldens(t *testing.T) {
	want := map[string]string{
		"basic":        "f14c5ceb9bc8bcda6fd66c195577acbeb51bcc6c594251574b95e3fa2ccee221",
		"strong-ecc":   "f876efabacb2b1c47d2d6f7e11cae660d0910690e67a49d0583f45d91b3bcae4",
		"light-detect": "45b760fa845b8ea3ecbb59dcc5d1fefb050c36667d3cee6fb583174447f61e6d",
		"threshold":    "62dfdcc16354aa66e9c0ad736f6f7341e00b7ea09ebbecf0bd6bac6eb4b5c583",
		"combined":     "8886cce8928b0eba40c96466e9bb9c7f4499846e5d4da59a3cd6c5083c6b5166",
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
		res, err := runOne(sys, m, w)
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
