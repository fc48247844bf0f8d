package core

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/ondie"
	"repro/internal/scrub"
	"repro/internal/trace"
)

// oddEnergy is a cost table whose entries are not dyadic fractions, so a
// product or sum that changes its operands or order changes the result's
// bits. Under the default table (2, 180, 6, 25, 4, 0.5 pJ) every charge is
// exact and any summation order gives the same energy.
func oddEnergy() energy.Params {
	return energy.Params{
		ArrayReadPJPerBit:  2.1,
		ArrayWritePJPerBit: 173.3,
		SECDEDDecodePJ:     6.7,
		BCHDecodePJPerT:    25.3,
		CRCCheckPJ:         4.1,
		BufferPJPerBit:     0.3,
	}
}

// deviceTrace drives a long-lived device through a fixed call sequence
// that swaps the policy Basic → LightBasic → Basic between patrol chunks,
// with region scrubs interleaved, and returns every report plus the final
// totals. Swapping the detection mode changes the CRC a rewrite stores.
func deviceTrace(t *testing.T, spec engine.Spec) any {
	t.Helper()
	d, err := engine.NewDevice(spec)
	if err != nil {
		t.Fatal(err)
	}
	type step struct {
		Report       engine.ChunkReport
		Observations []engine.LineObservation
	}
	var steps []step
	record := func(rep engine.ChunkReport, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, step{rep, append([]engine.LineObservation(nil), rep.Observations...)})
	}
	for _, p := range []scrub.Policy{scrub.Basic(), scrub.LightBasic(), scrub.Basic()} {
		if err := d.SetPolicy(p); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 6; c++ {
			record(d.PatrolChunk(128, 900, nil))
			if c%2 == 1 {
				record(d.ScrubRange(32*c, 96, 60, nil))
			}
		}
	}
	return struct {
		Steps  []step
		Totals engine.Result
	}{steps, d.Totals()}
}

// TestUncoveredPathFingerprints pins the SHA-256 of the full result of
// engine paths the golden suites leave out: every rung under a cost
// table with non-dyadic entries (db-oltp with per-sweep records, and
// idle-archive), a fault plan with every fault kind, on-die ECC with weak
// codes, Start-Gap leveling with ECP and SLC form switching, a profiled
// policy, and a device whose policy is swapped between increments. The
// golden suites run the default, dyadic costs, where energy sums come
// out the same in any order; these runs catch a cost that moves by an
// ulp. All 18 were re-pinned when the engine switched to integer
// operation counts priced on read: in every one only the ScrubEnergy and
// DemandEnergy floats moved (by at most 2.6e-12 relative), and every
// integer field held.
func TestUncoveredPathFingerprints(t *testing.T) {
	want := map[string]string{
		"device":            "5c4b3a1afa64192536640e3e89b7c641b3e3753eb1cd4849cdd1dbc28a45e951",
		"faults/basic":      "0faf9f28b8b7270e3540939294c40b54426243823b29ec3b6db853ff4d43776a",
		"faults/combined":   "f48eefbfb5d1d53e83a621a598382b616fc4b6f6d7a9ee3f89551f5b9eeda28e",
		"idle/basic":        "90d35f77f1e9b43c3022c5d87c09a1bd196b0b5d60e6e749ebe84597192bdadf",
		"idle/combined":     "33b125d26502e4474f7c82c4e0697f4cdb00b42f5992b79ece1e3f0a5688ece5",
		"idle/light-detect": "bcf0b042d0c3e9b2325bbc95a7f22f3fdf9b42e911ed984f37d9d501bd0f2905",
		"idle/strong-ecc":   "86d3d75410e6d94d10c5e36e92d499f80759b5d4315822d0d9fa759701c69283",
		"idle/threshold":    "c2183b822faa7f2252365d38600508e5fa3976ccdce799a23a7fc21fc0f63af6",
		"leveling/basic":    "9d54ecdee2059192912baee39cbed3de00745564f4e434260ad6f410cca97100",
		"leveling/combined": "e20c2c56f7efb87a3480d16befdaea8a55c2f2da89a8597150666d0b59a4ac55",
		"oltp/basic":        "7e19f5c11ade02346e44a670ca6670fa5d9765cda5090fea7bc00529d63f5e8f",
		"oltp/combined":     "a62172d7c7a49eea327dafcbd6a1cc216a934900fa029bab1806c255447f9554",
		"oltp/light-detect": "487aafffe350ad4feb6484dadd6c196dc41706e1bbe20731c01c31d1fc0b5a7e",
		"oltp/strong-ecc":   "3a298da54ac1159a962810870e3d68e3ddd03316577aec8d7ae2622d7ace3c0c",
		"oltp/threshold":    "b39dac7dbcfb264bfc3d5292720f76f2ea714463d9f5db328f869eb120b4af99",
		"ondie/basic":       "6b45ce4ebe2a5e931e4fd96c5ec6de48652c05eaa06800f7f0c40cbcd86e1314",
		"ondie/combined":    "d4c51dec640930f072aee271115e724b8e583d0819be1762a52aab2387be43aa",
		"profiled":          "127d50afe08d154e91a4db1facb2e18453bff36acce9ca2f681aca962844412f",
	}
	sys := equivSystem()
	sys.Energy = oddEnergy()
	aged := sys
	aged.InitialLineWrites = 20_000_000
	aged.Horizon = 43200
	ladder, err := Suite(sys)
	if err != nil {
		t.Fatal(err)
	}
	rung := map[string]Mechanism{}
	for _, m := range ladder {
		rung[m.Name] = m
	}
	oltp, err := trace.ByName("db-oltp")
	if err != nil {
		t.Fatal(err)
	}
	idle, err := trace.ByName("idle-archive")
	if err != nil {
		t.Fatal(err)
	}
	faults := &fault.Plan{
		ReadFlipRate: 0.02, SweepSkipRate: 0.2, ProbeMissRate: 0.1,
		StuckCheckRate: 0.05, StallRate: 0.3, Seed: 3,
	}

	type run struct {
		name string
		sys  System
		mech Mechanism
		w    trace.Workload
		opts engine.Options
	}
	var runs []run
	for _, m := range ladder {
		runs = append(runs,
			run{"oltp/" + m.Name, sys, m, oltp, engine.Options{RecordRounds: true}},
			run{"idle/" + m.Name, sys, m, idle, engine.Options{}})
	}
	for _, name := range []string{"basic", "combined"} {
		faulty := sys
		faulty.Fault = faults
		onDie := aged
		onDie.OnDie = &ondie.Config{T: 2, WeakT: 1, WeakFraction: 0.25}
		runs = append(runs,
			run{"faults/" + name, faulty, rung[name], oltp, engine.Options{}},
			run{"ondie/" + name, onDie, rung[name], oltp, engine.Options{}},
			run{"leveling/" + name, aged, rung[name], oltp, engine.Options{GapMovePeriod: 50, ECPEntries: 2, SLCFraction: 0.3}})
	}
	profiled := rung["strong-ecc"]
	profiled.Name = "profiled-4"
	profiled.Policy = scrub.ProfiledThreshold(4)
	// Short enough for profiling rounds to run and redirect visits.
	profiled.Interval = 1800
	runs = append(runs, run{"profiled", aged, profiled, oltp, engine.Options{}})

	got := map[string]string{}
	for _, r := range runs {
		res, err := engine.Run(engine.ResolveSpec(r.sys, r.mech, r.w, r.opts))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got[r.name] = resultFingerprint(t, res)
	}
	got["device"] = resultFingerprint(t, deviceTrace(t, engine.ResolveSpec(sys, rung["basic"], oltp, engine.Options{})))

	for name, g := range got {
		if want[name] == "" {
			t.Errorf("%q: no pinned fingerprint (got %s)", name, g)
		} else if g != want[name] {
			t.Errorf("%s: result fingerprint drifted:\n got  %s\n want %s", name, g, want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d pinned fingerprints, %d runs", len(want), len(got))
	}
}
