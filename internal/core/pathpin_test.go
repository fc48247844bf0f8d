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
// ulp.
func TestUncoveredPathFingerprints(t *testing.T) {
	want := map[string]string{
		"device":            "006b5f117326782ce8588fbc8870a19c5a419627c93e91ed57eae5ff6c2d38e4",
		"faults/basic":      "1e53a0355487cfb3c845f6c63e9629812ad677e6bf812ae13e96679503eb421d",
		"faults/combined":   "b6b32c41fc1b1e261ff6c8745a85d1370ae302ceddac3402f829268c81890ba3",
		"idle/basic":        "15f1a19eb59c421f2870ae97d672f0b4c9232525a8d53d6acceae0cc2a522bf5",
		"idle/combined":     "840c3f9f53d2ed7deb281b4f09603ae1f90f98c548537c560aed4037e1920cc5",
		"idle/light-detect": "512b2a2e1993c62af783045996156dcdaa1a6aaefcb017a14b4b1c9d34823911",
		"idle/strong-ecc":   "3a17206581daaa1f578d354bd2fdc9b9036b1069acfb4f99c733d7152a95c177",
		"idle/threshold":    "4e421d35f0842c0d5aad3949f0b33323db09503272863887f34db3129c3a87e1",
		"leveling/basic":    "cf9ed4425bddc07f4952173b999cf06a0b01d6abd2f8a0af9eaceef96965c97f",
		"leveling/combined": "9cf5e1e15eaadead41995d8263f7aef387bd896edf5d9655a174e8dba9e8c118",
		"oltp/basic":        "a4e9ee0f68408ff6ec10323234fa2b07756510c3a702902366e487aeea2f3756",
		"oltp/combined":     "67ccc1fdae33a2a1e751ca2c9b3ae1675de70125361600cfada825dc6f214b55",
		"oltp/light-detect": "721d115f6d7d37eec54676b5fa89d1d3ef92b242ce345f11ab616e8157f82244",
		"oltp/strong-ecc":   "c9b565f9b6941a449f9c88150e54cdfe77c570d35b73c826f67483a59bd1d27b",
		"oltp/threshold":    "c6eb128d035abfd0c004086f7a27460e5587e4629c8a761e10c1c3d1cb994be2",
		"ondie/basic":       "4e71a3bc129de99a9cadf8d242395aed3335d6a8e1af3c6f8f7e9838bd819637",
		"ondie/combined":    "9dfe8ed36b1a33f001b9513c5c5f37871ae3311479051a57406b51decba99b71",
		"profiled":          "39ecc3f697569f7d0b15c715bca834dd1ec848a8db043be7b75c42cc56aec2e8",
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
