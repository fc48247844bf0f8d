package engine

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/mem"
)

// deviceSpec builds a tiny 128-line device from the engine test spec so
// drift errors appear within a few simulated hours.
func deviceSpec(t *testing.T, seed uint64) Spec {
	t.Helper()
	spec := testSpec()
	spec.Geometry = mem.Geometry{
		Channels: 1, RanksPerChan: 1, BanksPerRank: 2,
		RowsPerBank: 8, LinesPerRow: 8, LineBytes: 64,
	}
	spec.Seed = seed
	return spec
}

func TestDevicePatrolAdvancesClockAndCursor(t *testing.T) {
	d, err := NewDevice(deviceSpec(t, 7))
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	lines := d.Lines()
	if lines != 128 {
		t.Fatalf("lines = %d, want 128", lines)
	}
	rep, err := d.PatrolChunk(32, 500, nil)
	if err != nil {
		t.Fatalf("PatrolChunk: %v", err)
	}
	if rep.Lines != 32 {
		t.Errorf("chunk lines = %d, want 32", rep.Lines)
	}
	if d.PatrolCursor() != 32 {
		t.Errorf("cursor = %d, want 32", d.PatrolCursor())
	}
	if d.Now() != 500 {
		t.Errorf("clock = %g, want 500", d.Now())
	}
	// Three more chunks complete the round and wrap the cursor.
	var wrapped bool
	for i := 0; i < 3; i++ {
		rep, err = d.PatrolChunk(32, 500, rep.Observations)
		if err != nil {
			t.Fatalf("PatrolChunk: %v", err)
		}
		wrapped = wrapped || rep.WrappedRound
	}
	if !wrapped {
		t.Error("patrol never wrapped after covering every line")
	}
	if d.Rounds() != 1 {
		t.Errorf("rounds = %d, want 1", d.Rounds())
	}
	if d.PatrolCursor() != 0 {
		t.Errorf("cursor after wrap = %d, want 0", d.PatrolCursor())
	}
}

func TestDeviceScrubRangeLeavesPatrolCursor(t *testing.T) {
	d, err := NewDevice(deviceSpec(t, 7))
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	if _, err := d.PatrolChunk(16, 250, nil); err != nil {
		t.Fatalf("PatrolChunk: %v", err)
	}
	cur := d.PatrolCursor()
	rep, err := d.ScrubRange(40, 24, 100, nil)
	if err != nil {
		t.Fatalf("ScrubRange: %v", err)
	}
	if rep.Lines != 24 {
		t.Errorf("range lines = %d, want 24", rep.Lines)
	}
	if d.PatrolCursor() != cur {
		t.Errorf("on-demand scrub moved the patrol cursor: %d -> %d", cur, d.PatrolCursor())
	}
	if _, err := d.ScrubRange(120, 16, 100, nil); err == nil {
		t.Error("out-of-range scrub accepted")
	}
	if _, err := d.ScrubRange(0, 8, 0, nil); err == nil {
		t.Error("zero-dt scrub accepted")
	}
}

// patrolTrajectory drives d through a fixed call sequence (patrol chunks,
// a preempting range scrub, a repair) and returns every chunk report plus
// the final totals.
func patrolTrajectory(d *Device) ([]ChunkReport, Result, error) {
	var reps []ChunkReport
	step := func(rep ChunkReport, err error) error {
		if err != nil {
			return err
		}
		// Copy observations out of the reused buffer.
		rep.Observations = append([]LineObservation(nil), rep.Observations...)
		reps = append(reps, rep)
		return nil
	}
	for i := 0; i < 4; i++ {
		if err := step(d.PatrolChunk(32, 3600, nil)); err != nil {
			return nil, Result{}, err
		}
	}
	if err := step(d.ScrubRange(0, 64, 1800, nil)); err != nil {
		return nil, Result{}, err
	}
	if err := d.RepairLine(3); err != nil {
		return nil, Result{}, err
	}
	for i := 0; i < 4; i++ {
		if err := step(d.PatrolChunk(32, 7200, nil)); err != nil {
			return nil, Result{}, err
		}
	}
	return reps, d.Totals(), nil
}

// serialTrajectory runs patrolTrajectory on a fresh device of spec.
func serialTrajectory(t *testing.T, spec Spec) ([]ChunkReport, Result) {
	t.Helper()
	d, err := NewDevice(spec)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	reps, tot, err := patrolTrajectory(d)
	if err != nil {
		t.Fatalf("trajectory: %v", err)
	}
	return reps, tot
}

// TestDeviceDeterministicTrajectory pins the Device contract the fleet
// control plane builds on: the same seed and the same call sequence
// reproduce the same counters and observations exactly.
func TestDeviceDeterministicTrajectory(t *testing.T) {
	repsA, totA := serialTrajectory(t, deviceSpec(t, 99))
	repsB, totB := serialTrajectory(t, deviceSpec(t, 99))
	if !reflect.DeepEqual(repsA, repsB) {
		t.Fatalf("chunk reports diverged across identical runs:\nA: %+v\nB: %+v", repsA, repsB)
	}
	if !reflect.DeepEqual(totA, totB) {
		t.Fatalf("device totals diverged:\nA: %+v\nB: %+v", totA, totB)
	}
	// The trajectory must have produced some scrub work to be meaningful.
	if totA.ScrubVisits == 0 {
		t.Error("trajectory performed no scrub visits")
	}
}

// TestDevicesShareSamplerConcurrently pins that devices with identical
// physics share one cached drift sampler and that patrolling them at the
// same time reproduces each device's serial trajectory exactly. Run it
// under -race to check the sampler really is read-only.
func TestDevicesShareSamplerConcurrently(t *testing.T) {
	seeds := []uint64{99, 100}
	type trajectory struct {
		reps []ChunkReport
		tot  Result
		err  error
	}
	want := make([]trajectory, len(seeds))
	devs := make([]*Device, len(seeds))
	for i, seed := range seeds {
		want[i].reps, want[i].tot = serialTrajectory(t, deviceSpec(t, seed))
		d, err := NewDevice(deviceSpec(t, seed))
		if err != nil {
			t.Fatalf("NewDevice: %v", err)
		}
		devs[i] = d
	}
	if devs[0].s.sampler != devs[1].s.sampler {
		t.Fatal("devices with identical physics built separate drift samplers")
	}

	got := make([]trajectory, len(seeds))
	var wg sync.WaitGroup
	for i, d := range devs {
		wg.Add(1)
		go func(i int, d *Device) {
			defer wg.Done()
			got[i].reps, got[i].tot, got[i].err = patrolTrajectory(d)
		}(i, d)
	}
	wg.Wait()
	for i, seed := range seeds {
		if got[i].err != nil {
			t.Fatalf("seed %d: concurrent trajectory: %v", seed, got[i].err)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("seed %d: concurrent trajectory differs from serial:\n got  %+v\n want %+v", seed, got[i], want[i])
		}
	}
}

func TestDeviceRepairResetsWear(t *testing.T) {
	spec := deviceSpec(t, 5)
	spec.InitialLineWrites = 1 << 20 // heavily pre-aged
	d, err := NewDevice(spec)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	if err := d.RepairLine(0); err != nil {
		t.Fatalf("RepairLine: %v", err)
	}
	if err := d.RepairLine(-1); err == nil {
		t.Error("negative line repair accepted")
	}
	if err := d.RepairLine(d.Lines()); err == nil {
		t.Error("out-of-range repair accepted")
	}
	if d.Totals().RepairWrites != 1 {
		t.Errorf("repair writes = %d, want 1", d.Totals().RepairWrites)
	}
	// The repaired slot's write counter restarted from the rewrite.
	if got := d.s.writes[0]; got != 1 {
		t.Errorf("repaired line writes = %d, want 1", got)
	}
}
