package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/service"
)

// tinyGeometry keeps fleet devices small enough that drift errors appear
// within a few simulated hours (matching the engine device tests).
func tinyGeometry() *service.GeometrySpec {
	return &service.GeometrySpec{
		Channels: 1, RanksPerChan: 1, BanksPerRank: 2,
		RowsPerBank: 8, LinesPerRow: 8, LineBytes: 64,
	}
}

// testDeviceSpec is a 128-line cold device scrubbed at one pass per hour:
// slow enough for drift errors to accumulate between visits.
func testDeviceSpec(seed uint64) DeviceSpec {
	return DeviceSpec{
		Name:     "test",
		Workload: "idle-archive",
		Seed:     seed,
		Geometry: tinyGeometry(),
		Patrol: &PatrolConfig{
			RateLinesPerSec: 128.0 / 3600,
			ChunkLines:      32,
			TickMillis:      1,
		},
		Repair: &RepairConfig{
			CEWindowSec: 10 * 86400,
			CEThreshold: 2,
			SpareBudget: 8,
		},
	}
}

func TestStatsWindowAndRepairClear(t *testing.T) {
	st := newStatsStore(100)
	if got := st.observeCE(5, 10); got != 1 {
		t.Errorf("windowed CEs = %d, want 1", got)
	}
	if got := st.observeCE(5, 50); got != 2 {
		t.Errorf("windowed CEs = %d, want 2", got)
	}
	// t=150 prunes the t=10 observation (cut 50; t=50 survives).
	if got := st.observeCE(5, 150); got != 2 {
		t.Errorf("windowed CEs after prune = %d, want 2", got)
	}
	st.observeUE(7, 160)
	st.noteRepaired(5)
	if got := st.observeCE(5, 161); got != 1 {
		t.Errorf("windowed CEs after repair = %d, want 1 (clean history)", got)
	}
	snap := st.snapshot(0)
	if len(snap) != 2 || snap[0].Line != 5 || snap[1].Line != 7 {
		t.Fatalf("snapshot = %+v, want lines [5 7]", snap)
	}
	if snap[0].CEs != 4 || snap[0].Repaired != 1 || snap[1].UEs != 1 {
		t.Errorf("snapshot counters wrong: %+v", snap)
	}
	if lim := st.snapshot(1); len(lim) != 1 || lim[0].Line != 5 {
		t.Errorf("limited snapshot = %+v, want worst offender line 5", lim)
	}
}

// ceObs fabricates a chunk report observing one correctable error on each
// given line.
func ceObs(lines ...int) engine.ChunkReport {
	rep := engine.ChunkReport{}
	for _, l := range lines {
		rep.Observations = append(rep.Observations, engine.LineObservation{Line: l, ErrBits: 1})
	}
	return rep
}

// TestRepairFiresExactlyAtThreshold pins the repair engine's trigger: a
// line is spared on precisely the observation that brings its windowed CE
// count to the threshold, not before, and the spare budget bounds total
// repairs.
func TestRepairFiresExactlyAtThreshold(t *testing.T) {
	spec := testDeviceSpec(11)
	spec.Repair = &RepairConfig{CEWindowSec: 1e9, CEThreshold: 3, SpareBudget: 1}
	d, err := newManagedDevice("dev-000001", spec)
	if err != nil {
		t.Fatalf("newManagedDevice: %v", err)
	}
	// Two observations: below threshold, no repair.
	for i := 0; i < 2; i++ {
		if fired := d.foldLocked(ceObs(5), "patrol"); fired != 0 {
			t.Fatalf("repair fired below threshold (observation %d)", i+1)
		}
	}
	// Third observation crosses the threshold: exactly one repair.
	if fired := d.foldLocked(ceObs(5), "patrol"); fired != 1 {
		t.Fatal("repair did not fire at the threshold crossing")
	}
	evs := d.Repairs()
	if len(evs) != 1 {
		t.Fatalf("repair events = %d, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Line != 5 || ev.WindowCEs != 3 || ev.Threshold != 3 || ev.Trigger != "patrol" || ev.Seq != 1 {
		t.Errorf("repair event = %+v", ev)
	}
	// The repair cleared the line's window: three more observations are
	// needed for another crossing — but the spare budget (1) is spent.
	for i := 0; i < 3; i++ {
		if fired := d.foldLocked(ceObs(5), "patrol"); fired != 0 {
			t.Fatal("repair fired past the spare budget")
		}
	}
	if v := d.View(); v.SparesUsed != 1 || v.Repairs != 1 {
		t.Errorf("view after budget exhaustion: spares=%d repairs=%d", v.SparesUsed, v.Repairs)
	}
	// UEs never count toward the CE threshold.
	ue := engine.ChunkReport{Observations: []engine.LineObservation{{Line: 9, ErrBits: 4, UE: true}}}
	spec.Repair = &RepairConfig{CEWindowSec: 1e9, CEThreshold: 1, SpareBudget: 4}
	d2, err := newManagedDevice("dev-000002", spec)
	if err != nil {
		t.Fatalf("newManagedDevice: %v", err)
	}
	if fired := d2.foldLocked(ue, "patrol"); fired != 0 {
		t.Error("UE observation triggered a CE-threshold repair")
	}
	// Disabled repair engine accumulates telemetry but never fires.
	spec.Repair = &RepairConfig{CEWindowSec: 1e9, CEThreshold: 1, SpareBudget: 4, Disabled: true}
	d3, err := newManagedDevice("dev-000003", spec)
	if err != nil {
		t.Fatalf("newManagedDevice: %v", err)
	}
	if fired := d3.foldLocked(ceObs(1, 2, 3), "patrol"); fired != 0 {
		t.Error("disabled repair engine fired")
	}
	if tel := d3.Telemetry(0); len(tel) != 3 {
		t.Errorf("disabled engine telemetry lines = %d, want 3", len(tel))
	}
}

// trajectoryDigest runs a scripted fleet scenario — patrol ticks, a live
// rate PATCH, a preempting on-demand scrub, more ticks — and returns the
// canonical JSON of everything observable plus its SHA-256.
func trajectoryDigest(t *testing.T) ([]byte, string) {
	t.Helper()
	spec := testDeviceSpec(42)
	d, err := newManagedDevice("dev-000001", spec)
	if err != nil {
		t.Fatalf("newManagedDevice: %v", err)
	}
	var outcomes []TickOutcome
	tick := func(n int) {
		for i := 0; i < n; i++ {
			outcomes = append(outcomes, d.Tick())
		}
	}
	tick(12) // three full patrol rounds
	// Live reconfiguration: halve the scrub rate mid-session.
	rate := 64.0 / 3600
	if _, err := d.ApplyPatch(PatrolPatch{RateLinesPerSec: &rate}); err != nil {
		t.Fatalf("ApplyPatch: %v", err)
	}
	tick(8)
	// On-demand scrub preempts patrol at the next chunk boundary.
	if _, err := d.EnqueueScrub("scrub-000001", ScrubRequest{First: 16, Count: 80}); err != nil {
		t.Fatalf("EnqueueScrub: %v", err)
	}
	tick(10)
	// Swap the policy live and keep patrolling.
	pol := "always"
	if _, err := d.ApplyPatch(PatrolPatch{Policy: &pol}); err != nil {
		t.Fatalf("ApplyPatch policy: %v", err)
	}
	tick(12)
	state := struct {
		Outcomes  []TickOutcome   `json:"outcomes"`
		View      DeviceView      `json:"view"`
		Scrubs    []ScrubView     `json:"scrubs"`
		Telemetry []LineTelemetry `json:"telemetry"`
		Repairs   []RepairEvent   `json:"repairs"`
	}{outcomes, d.View(), d.Scrubs(), d.Telemetry(0), d.Repairs()}
	raw, err := json.Marshal(state)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	sum := sha256.Sum256(raw)
	return raw, hex.EncodeToString(sum[:])
}

// goldenTrajectorySHA pins the scripted trajectory's full observable
// state. If an intentional engine or control-plane change shifts it,
// re-run with -update-golden semantics: the test logs the new digest.
const goldenTrajectorySHA = "9044f0f4d7b436ee94908801f6d5679fb844f92253527e560689adc12d1dc73f"

func TestGoldenDeterministicTrajectory(t *testing.T) {
	rawA, shaA := trajectoryDigest(t)
	rawB, shaB := trajectoryDigest(t)
	if !bytes.Equal(rawA, rawB) {
		t.Fatalf("trajectory diverged across identical runs:\nA: %s\nB: %s", rawA, rawB)
	}
	if shaA != shaB {
		t.Fatalf("digest diverged: %s vs %s", shaA, shaB)
	}
	if shaA != goldenTrajectorySHA {
		t.Errorf("trajectory digest = %s, golden = %s\nstate: %s", shaA, goldenTrajectorySHA, rawA)
	}
	// Sanity: the scenario exercised preemption and produced telemetry.
	var state struct {
		Outcomes []TickOutcome `json:"outcomes"`
		View     DeviceView    `json:"view"`
		Scrubs   []ScrubView   `json:"scrubs"`
	}
	if err := json.Unmarshal(rawA, &state); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if state.View.Preemptions == 0 {
		t.Error("scenario never preempted patrol")
	}
	if len(state.Scrubs) != 1 || state.Scrubs[0].State != ScrubDone {
		t.Errorf("on-demand scrub did not finish: %+v", state.Scrubs)
	}
	if state.View.CEObserved == 0 {
		t.Error("scenario observed no correctable errors — golden pins nothing")
	}
}

// TestPatchTakesEffectAtChunkBoundary pins the reconfiguration contract:
// a PATCH between ticks governs the very next chunk, and the session
// identity (clock, cursor, rounds) is preserved across it.
func TestPatchTakesEffectAtChunkBoundary(t *testing.T) {
	d, err := newManagedDevice("dev-000001", testDeviceSpec(7))
	if err != nil {
		t.Fatalf("newManagedDevice: %v", err)
	}
	d.Tick() // one chunk at 128 lines/hour: 32 lines in 900s
	v := d.View()
	if v.DeviceSeconds != 900 || v.Cursor != 32 {
		t.Fatalf("after first chunk: t=%g cursor=%d, want 900/32", v.DeviceSeconds, v.Cursor)
	}
	rate := 32.0 / 3600 // slow to one chunk per simulated hour
	if _, err := d.ApplyPatch(PatrolPatch{RateLinesPerSec: &rate}); err != nil {
		t.Fatalf("ApplyPatch: %v", err)
	}
	d.Tick()
	v2 := d.View()
	if v2.DeviceSeconds != 900+3600 {
		t.Errorf("patched rate not applied at next chunk: t=%g, want 4500", v2.DeviceSeconds)
	}
	if v2.Cursor != 64 {
		t.Errorf("cursor = %d, want 64 (session identity preserved)", v2.Cursor)
	}
	// Invalid patches leave the configuration untouched.
	bad := -1.0
	if _, err := d.ApplyPatch(PatrolPatch{RateLinesPerSec: &bad}); err == nil {
		t.Error("negative rate accepted")
	}
	if got := d.Patrol().RateLinesPerSec; got != rate {
		t.Errorf("failed patch mutated config: rate=%g", got)
	}
	badPol := "no-such-policy"
	if _, err := d.ApplyPatch(PatrolPatch{Policy: &badPol}); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestManagerJournalRecovery drives the full durability loop: register,
// patch, remove against a journaled manager; restart; verify the
// surviving device comes back under its original ID with the patched
// configuration and a recomputed (deterministic) trajectory.
func TestManagerJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	jnl, rec, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	if len(rec.FleetDevices) != 0 {
		t.Fatalf("fresh journal recovered %d devices", len(rec.FleetDevices))
	}
	m := NewManager(jnl)
	spec := testDeviceSpec(42)
	paused := true
	spec.Patrol.Paused = paused
	v1, err := m.Register(spec)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if v1.ID != "dev-000001" {
		t.Fatalf("minted ID = %q", v1.ID)
	}
	v2, err := m.Register(testDeviceSpec(43))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	rate := 256.0 / 3600
	if _, err := m.Patch(v1.ID, PatrolPatch{RateLinesPerSec: &rate, Paused: &paused}); err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if err := m.Remove(v2.ID); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := m.Get(v2.ID); err != ErrNotFound {
		t.Fatalf("removed device still visible: %v", err)
	}
	m.Shutdown()
	if err := jnl.Close(); err != nil {
		t.Fatalf("journal.Close: %v", err)
	}

	jnl2, rec2, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer jnl2.Close()
	if len(rec2.FleetDevices) != 1 {
		t.Fatalf("recovered %d devices, want 1", len(rec2.FleetDevices))
	}
	m2 := NewManager(jnl2)
	defer m2.Shutdown()
	if err := m2.Recover(rec2); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	got, err := m2.Get(v1.ID)
	if err != nil {
		t.Fatalf("recovered device missing: %v", err)
	}
	if got.Patrol.RateLinesPerSec != rate || !got.Patrol.Paused {
		t.Errorf("recovered patrol config = %+v, want patched rate %g paused", got.Patrol, rate)
	}
	// State was recomputed, not restored: the clock restarts at zero.
	if got.DeviceSeconds != 0 {
		t.Errorf("recovered device clock = %g, want 0 (recompute, not restore)", got.DeviceSeconds)
	}
	// New registrations mint past the recovered IDs.
	v3, err := m2.Register(testDeviceSpec(44))
	if err != nil {
		t.Fatalf("Register after recovery: %v", err)
	}
	if v3.ID != "dev-000003" {
		t.Errorf("post-recovery ID = %q, want dev-000003", v3.ID)
	}
}

// TestRegisterAfterShutdownIsNotJournaled registers on a shut-down
// manager: the refusal must leave no device record for the next
// incarnation's Recover to resurrect.
func TestRegisterAfterShutdownIsNotJournaled(t *testing.T) {
	dir := t.TempDir()
	jnl, _, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	m := NewManager(jnl)
	m.Shutdown()
	if _, err := m.Register(testDeviceSpec(42)); err != ErrClosed {
		t.Fatalf("Register after Shutdown: err = %v, want ErrClosed", err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatalf("journal.Close: %v", err)
	}
	jnl2, rec, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer jnl2.Close()
	if len(rec.FleetDevices) != 0 {
		t.Errorf("journal replays %d devices, want 0", len(rec.FleetDevices))
	}
}

// TestPatchedPolicySurvivesRecovery pins that a PATCH's policy swap is
// journaled with the patrol configuration: after a restart the device
// comes back under the patched policy, not its registration policy.
func TestPatchedPolicySurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	jnl, _, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	m := NewManager(jnl)
	v, err := m.Register(testDeviceSpec(42))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	light := "light"
	if _, err := m.Patch(v.ID, PatrolPatch{Policy: &light}); err != nil {
		t.Fatalf("Patch: %v", err)
	}
	// A later patch without a policy must not forget the earlier swap.
	rate := 256.0 / 3600
	if _, err := m.Patch(v.ID, PatrolPatch{RateLinesPerSec: &rate}); err != nil {
		t.Fatalf("Patch: %v", err)
	}
	m.Shutdown()
	if err := jnl.Close(); err != nil {
		t.Fatalf("journal.Close: %v", err)
	}

	jnl2, rec, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer jnl2.Close()
	m2 := NewManager(jnl2)
	defer m2.Shutdown()
	if err := m2.Recover(rec); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	got, err := m2.Get(v.ID)
	if err != nil {
		t.Fatalf("recovered device missing: %v", err)
	}
	if got.Policy != "basic+light" || got.Patrol.RateLinesPerSec != rate {
		t.Errorf("recovered policy %q rate %g, want basic+light at %g", got.Policy, got.Patrol.RateLinesPerSec, rate)
	}
}

// TestLiveSessionProgresses boots a real manager (no journal) and waits
// for the patrol session goroutine to make progress, then drains it.
func TestLiveSessionProgresses(t *testing.T) {
	m := NewManager(nil)
	v, err := m.Register(testDeviceSpec(42))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := m.Get(v.ID)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got.PatrolRounds >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session made no full round: %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// An on-demand scrub completes even while patrol continues.
	sv, err := m.EnqueueScrub(v.ID, ScrubRequest{First: 0, Count: 64})
	if err != nil {
		t.Fatalf("EnqueueScrub: %v", err)
	}
	for {
		got, err := m.Scrub(v.ID, sv.ID)
		if err != nil {
			t.Fatalf("Scrub: %v", err)
		}
		if got.State == ScrubDone {
			if got.Report.LinesScrubbed != 64 {
				t.Errorf("scrub visited %d lines, want 64", got.Report.LinesScrubbed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("on-demand scrub never finished: %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, want := range []string{"scrubd_fleet_devices 1", "scrubd_fleet_scrub_jobs_total 1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, buf.String())
		}
	}
	m.Shutdown()
	// Shutdown drains: the registry is still intact afterwards.
	if _, err := m.Get(v.ID); err != nil {
		t.Errorf("device lost at shutdown: %v", err)
	}
	if _, err := m.Register(testDeviceSpec(1)); err != ErrClosed {
		t.Errorf("Register after Shutdown = %v, want ErrClosed", err)
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := newManagedDevice("d", DeviceSpec{}); err == nil {
		t.Error("spec without workload accepted")
	}
	bad := testDeviceSpec(1)
	bad.Workload = "no-such-workload"
	if _, err := newManagedDevice("d", bad); err == nil {
		t.Error("unknown workload accepted")
	}
	neg := testDeviceSpec(1)
	neg.Patrol = &PatrolConfig{RateLinesPerSec: -4}
	if _, err := newManagedDevice("d", neg); err == nil {
		t.Error("negative patrol rate accepted")
	}
	d, err := newManagedDevice("d", testDeviceSpec(1))
	if err != nil {
		t.Fatalf("newManagedDevice: %v", err)
	}
	if _, err := d.EnqueueScrub("s", ScrubRequest{First: 100, Count: 64}); err == nil {
		t.Error("out-of-range scrub accepted")
	}
	if _, err := d.EnqueueScrub("s", ScrubRequest{First: 0, Count: 0}); err == nil {
		t.Error("empty scrub accepted")
	}
}
