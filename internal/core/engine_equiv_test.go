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
// "Re-pinning goldens").
func TestEngineMatchesPreRefactorGoldens(t *testing.T) {
	want := map[string]string{
		"basic":        "301f2bd2b6880e05015840ab60da12258e9d29fa1ee9be0041750687739b0ce2",
		"strong-ecc":   "3d4bb21ed8ba2b9322966c2f271359f67f5224afc2ef56da36bb0a498f426808",
		"light-detect": "424a4711de2ddf8bf6b5d4eaa7366261f55687c67873cd1892fccca964ad626d",
		"threshold":    "d95789e46a53ddb8706e4f3b0f075f9e9c4f2651c76b19bd00c8a0375c08664b",
		"combined":     "17e90e6aebaebef7f03d543df489daafa22aafb4d5c97044c203963ff763dfea",
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
