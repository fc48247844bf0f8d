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
// the run shifts. All five were re-pinned when each line's crossings
// became lazy level streams: a write draws one spacing per level and a
// visit draws the rest as it passes them, so the draw order changed.
func TestEngineMatchesPreRefactorGoldens(t *testing.T) {
	want := map[string]string{
		"basic":        "39ccf7340958f9ce95006020a0baf51e7ccc95d8d052b4a4298e7e1b6546f7ed",
		"strong-ecc":   "6b4ad2ef1ceedde42b7a1d20d55b530b98bef158d61c42300510da50d81cd6b6",
		"light-detect": "235a8933da0e70d55da04f060b4c8a5d047eb8ad0132a93a14d85336d9f3162a",
		"threshold":    "74e1eb882e4b11a8ee5524b0d1ddd5597085bc69eae84ef094b73782975f61d6",
		"combined":     "6787323aae4e7c236dd5eb7112a77f3f43550939124efdf06a383caba383b5f7",
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
