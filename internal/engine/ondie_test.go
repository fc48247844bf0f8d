package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/ondie"
	"repro/internal/scrub"
)

// agedSpec is testSpec pre-aged to the point where a minority of lines
// carry stuck bits (median endurance is 1e8 with 0.25 decades of
// spread, so 2e7 writes kill the weakest cells of roughly half the
// lines) — the regime where on-die correction and at-risk profiling
// have real, unevenly distributed errors to chew on.
func agedSpec() Spec {
	spec := testSpec()
	spec.InitialLineWrites = 20_000_000
	spec.Horizon = 50000
	return spec
}

func jsonFingerprint(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestOnDieDisabledByteIdentical pins the subsystem's zero-config
// contract: a nil OnDie config and an all-zero OnDie config both produce
// results byte-identical (full JSON encoding, every field) to a spec
// that has never heard of on-die ECC — across pool reuse too.
func TestOnDieDisabledByteIdentical(t *testing.T) {
	for name, base := range specVariants() {
		baseline, err := Run(base)
		if err != nil {
			t.Fatalf("%s: baseline: %v", name, err)
		}
		want := jsonFingerprint(t, baseline)
		for _, mode := range []struct {
			label string
			cfg   *ondie.Config
		}{{"nil", nil}, {"zero", &ondie.Config{}}} {
			spec := base
			spec.OnDie = mode.cfg
			for round := 0; round < 2; round++ {
				res, err := Run(spec)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, mode.label, err)
				}
				if got := jsonFingerprint(t, res); got != want {
					t.Errorf("%s/%s (round %d): disabled on-die ECC drifted the result:\n got  %s\n want %s",
						name, mode.label, round, got, want)
				}
			}
		}
	}
}

// TestOnDieHiddenErrorRegime checks the visibility transform end to end:
// with on-die correction enabled on an aged device, raw errors vanish
// from the controller's view (hidden corrections accumulate, visible
// corrected bits drop) and the whole trajectory stays deterministic.
func TestOnDieHiddenErrorRegime(t *testing.T) {
	base := agedSpec()
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	spec := base
	spec.OnDie = &ondie.Config{T: 2}
	hidden, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if hidden.OnDieCorrectedBits == 0 {
		t.Fatal("aged device produced no on-die corrections")
	}
	if hidden.CorrectedBits >= plain.CorrectedBits {
		t.Errorf("on-die hiding did not reduce controller-visible corrected bits: %d >= %d",
			hidden.CorrectedBits, plain.CorrectedBits)
	}
	if hidden.ScrubVisits != plain.ScrubVisits {
		t.Errorf("on-die layer changed visit count: %d != %d", hidden.ScrubVisits, plain.ScrubVisits)
	}

	again, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, hidden) {
		t.Error("on-die run is not deterministic across repetitions")
	}
}

// TestOnDieWeakAssignment checks the Luo-style capacity trade surfaces
// in the result: a weak fraction reclaims check bits on the coldest
// lines.
func TestOnDieWeakAssignment(t *testing.T) {
	spec := agedSpec()
	spec.OnDie = &ondie.Config{T: 4, WeakT: 1, WeakFraction: 0.25}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantWeak := spec.Geometry.TotalLines() / 4
	if res.OnDieWeakLines != wantWeak {
		t.Errorf("OnDieWeakLines = %d, want %d", res.OnDieWeakLines, wantWeak)
	}
	if res.OnDieCheckBitsSaved <= 0 {
		t.Errorf("OnDieCheckBitsSaved = %d, want > 0", res.OnDieCheckBitsSaved)
	}
}

// TestProfiledPolicyBiasesPatrol checks the HARP-style scheduling
// overlay: a profiled policy runs profiling rounds, builds an at-risk
// set on an aged device, and redirects patrol visits toward it at
// equal scrub bandwidth. (The trajectory itself legitimately diverges:
// redirected visits trigger different write-backs, whose fresh drift
// draws shift the shared stream — but the profiling machinery adds no
// draws of its own, so the visit count stays exactly equal.)
func TestProfiledPolicyBiasesPatrol(t *testing.T) {
	base := agedSpec()
	base.OnDie = &ondie.Config{T: 1}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	spec := base
	spec.Policy = scrub.ProfiledThreshold(1)
	prof, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if prof.ProfileRounds == 0 {
		t.Fatal("no profiling rounds ran")
	}
	if prof.ProfileReads == 0 {
		t.Fatal("profiling rounds charged no reads")
	}
	if prof.AtRiskLines == 0 {
		t.Fatal("aged device produced an empty at-risk set")
	}
	if prof.AtRiskVisits == 0 {
		t.Fatal("no patrol visits were redirected")
	}
	if prof.ScrubVisits != plain.ScrubVisits {
		t.Errorf("profiling changed scrub bandwidth: %d visits != %d", prof.ScrubVisits, plain.ScrubVisits)
	}
	if prof.ProfileDirectBits+prof.ProfileIndirectBits == 0 {
		t.Error("profiling separated no direct/indirect errors")
	}
}
