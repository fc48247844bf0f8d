package service

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/journal"
)

// openJournal opens (or reopens) a journal in dir and fails the test on
// error.
func openJournal(t *testing.T, dir string) (*journal.Journal, *journal.Recovery) {
	t.Helper()
	jn, rec, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("journal.Open(%s): %v", dir, err)
	}
	return jn, rec
}

// TestJournalRecoveryReExecutesIncomplete is the core durability loop: a
// journaled submission that never finished (the daemon "crashed") is
// re-enqueued on recovery under its original ID and runs to completion.
func TestJournalRecoveryReExecutesIncomplete(t *testing.T) {
	dir := t.TempDir()
	spec := mustNormalize(t, tinySpec(3))

	// Incarnation one accepts the job and "crashes" before running it:
	// write the submission record exactly as SubmitWith does, then stop.
	jn, _ := openJournal(t, dir)
	specJSON, _ := json.Marshal(spec)
	if err := jn.Append(journal.Record{
		Type: journal.TypeSubmitted, Job: "job-000007",
		Fingerprint: spec.Fingerprint(), Spec: specJSON,
	}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := jn.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Incarnation two replays the journal before serving.
	jn2, rec := openJournal(t, dir)
	defer jn2.Close()
	cr := &countingRunner{}
	s := New(Config{Workers: 1, Runner: cr.run, Journal: jn2})
	defer shutdown(t, s)
	n, err := s.Recover(rec)
	if err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v; want 1 requeued", n, err)
	}
	v := waitState(t, s, "job-000007", StateDone)
	if !v.Recovered {
		t.Error("recovered job not flagged Recovered")
	}
	if cr.runs.Load() != 1 {
		t.Errorf("runner ran %d times, want 1", cr.runs.Load())
	}
	// The ID counter resumed past the recovered ID.
	sub := mustSubmit(t, s, mustNormalize(t, tinySpec(99)))
	if sub.ID <= "job-000007" {
		t.Errorf("post-recovery ID %s did not resume past recovered IDs", sub.ID)
	}
	if s.Snapshot().JobsRecovered != 1 {
		t.Errorf("JobsRecovered = %d, want 1", s.Snapshot().JobsRecovered)
	}
}

// TestJournalRecoveryRestoresTerminal replays a completed job: its result
// re-seeds the cache (a resubmission is a cache hit, no re-execution) and
// its view is served verbatim.
func TestJournalRecoveryRestoresTerminal(t *testing.T) {
	dir := t.TempDir()
	spec := mustNormalize(t, tinySpec(5))

	jn, _ := openJournal(t, dir)
	cr := &countingRunner{}
	s1 := New(Config{Workers: 1, Runner: cr.run, Journal: jn})
	sub := mustSubmit(t, s1, spec)
	want := waitState(t, s1, sub.ID, StateDone)
	shutdown(t, s1)
	jn.Close()

	jn2, rec := openJournal(t, dir)
	defer jn2.Close()
	s2 := New(Config{Workers: 1, Runner: cr.run, Journal: jn2})
	defer shutdown(t, s2)
	n, err := s2.Recover(rec)
	if err != nil || n != 0 {
		t.Fatalf("Recover = %d, %v; want 0 requeued (job was done)", n, err)
	}
	got, err := s2.Get(sub.ID)
	if err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
	if got.State != StateDone {
		t.Fatalf("restored job state %q, want done", got.State)
	}
	if string(got.Result) != string(want.Result) {
		t.Errorf("restored result differs from original:\n got %s\nwant %s", got.Result, want.Result)
	}
	// Cache was re-seeded: the same spec answers without running.
	runsBefore := cr.runs.Load()
	re := mustSubmit(t, s2, spec)
	if !re.CacheHit {
		t.Error("resubmission after recovery missed the re-seeded cache")
	}
	if cr.runs.Load() != runsBefore {
		t.Error("cache-hit resubmission re-executed the job")
	}
	if s2.Snapshot().JobsRestored != 1 {
		t.Errorf("JobsRestored = %d, want 1", s2.Snapshot().JobsRestored)
	}
}

// TestRecoverCancelledWhileDown pins the replay rule the ISSUE calls out:
// a job cancelled before the crash recovers directly into cancelled and
// is never re-executed, even though started/submitted records precede the
// cancellation in the journal.
func TestRecoverCancelledWhileDown(t *testing.T) {
	dir := t.TempDir()
	spec := mustNormalize(t, tinySpec(11))

	jn, _ := openJournal(t, dir)
	specJSON, _ := json.Marshal(spec)
	for _, rec := range []journal.Record{
		{Type: journal.TypeSubmitted, Job: "job-000001", Fingerprint: spec.Fingerprint(), Spec: specJSON},
		{Type: journal.TypeStarted, Job: "job-000001"},
		{Type: journal.TypeCancelled, Job: "job-000001", Error: "cancelled by request"},
	} {
		if err := jn.Append(rec); err != nil {
			t.Fatalf("append %s: %v", rec.Type, err)
		}
	}
	jn.Close()

	jn2, rec := openJournal(t, dir)
	defer jn2.Close()
	cr := &countingRunner{}
	s := New(Config{Workers: 1, Runner: cr.run, Journal: jn2})
	defer shutdown(t, s)
	n, err := s.Recover(rec)
	if err != nil || n != 0 {
		t.Fatalf("Recover = %d, %v; want 0 requeued", n, err)
	}
	v, err := s.Get("job-000001")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if v.State != StateCancelled {
		t.Fatalf("state %q, want cancelled", v.State)
	}
	// Give any wrongly enqueued execution a moment to surface.
	time.Sleep(20 * time.Millisecond)
	if cr.runs.Load() != 0 {
		t.Fatalf("cancelled-while-down job re-executed %d times", cr.runs.Load())
	}
}

// TestCancelDuringRecoveryWins races a DELETE against a recovered job's
// re-execution: the cancel lands while the recovered job is running and
// the job must end cancelled, its raced outcome discarded.
func TestCancelDuringRecoveryWins(t *testing.T) {
	dir := t.TempDir()
	spec := mustNormalize(t, tinySpec(13))

	jn, _ := openJournal(t, dir)
	specJSON, _ := json.Marshal(spec)
	if err := jn.Append(journal.Record{
		Type: journal.TypeSubmitted, Job: "job-000001",
		Fingerprint: spec.Fingerprint(), Spec: specJSON,
	}); err != nil {
		t.Fatalf("append: %v", err)
	}
	jn.Close()

	jn2, rec := openJournal(t, dir)
	defer jn2.Close()
	br := newBlockingRunner()
	s := New(Config{Workers: 1, Runner: br.run, Journal: jn2})
	defer shutdown(t, s)
	if n, err := s.Recover(rec); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v; want 1", n, err)
	}
	<-br.started // the recovered job is now mid-execution
	if _, err := s.Cancel("job-000001"); err != nil {
		t.Fatalf("Cancel during recovery: %v", err)
	}
	v := waitState(t, s, "job-000001", StateCancelled)
	if v.Result != nil {
		t.Error("cancelled recovered job served a result")
	}

	// The DELETE is durable: a third incarnation recovers the job as
	// cancelled and does not run it.
	close(br.release)
	shutdown(t, s)
	jn2.Close()
	jn3, rec3 := openJournal(t, dir)
	defer jn3.Close()
	cr := &countingRunner{}
	s3 := New(Config{Workers: 1, Runner: cr.run, Journal: jn3})
	defer shutdown(t, s3)
	if n, err := s3.Recover(rec3); err != nil || n != 0 {
		t.Fatalf("third-incarnation Recover = %d, %v; want 0", n, err)
	}
	v3, err := s3.Get("job-000001")
	if err != nil || v3.State != StateCancelled {
		t.Fatalf("third incarnation sees %q (%v), want cancelled", v3.State, err)
	}
	time.Sleep(20 * time.Millisecond)
	if cr.runs.Load() != 0 {
		t.Fatalf("cancelled job re-executed after second recovery")
	}
}

// TestJournalWriteAheadOrdering checks the submission barrier: the
// journal holds the submitted record even if the daemon dies immediately
// after SubmitWith returns — i.e. the record is on disk before the 202.
func TestJournalWriteAheadOrdering(t *testing.T) {
	dir := t.TempDir()
	spec := mustNormalize(t, tinySpec(17))

	jn, _ := openJournal(t, dir)
	br := newBlockingRunner()
	s := New(Config{Workers: 1, Runner: br.run, Journal: jn})
	sub := mustSubmit(t, s, spec)
	// No shutdown, no drain: read the journal from a second handle as a
	// crash-consistent observer would.
	_, rec := openJournalReadOnly(t, dir)
	js := rec.Job(sub.ID)
	if js == nil {
		t.Fatalf("submitted record for %s not durable at SubmitWith return", sub.ID)
	}
	if !js.Incomplete() {
		t.Fatalf("fresh submission replayed as terminal %q", js.State)
	}
	close(br.release)
	shutdown(t, s)
	jn.Close()
}

// openJournalReadOnly replays dir's journal without keeping the handle
// (the file stays owned by the live daemon in the test above).
func openJournalReadOnly(t *testing.T, dir string) (*journal.Journal, *journal.Recovery) {
	t.Helper()
	jn, rec, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("journal.Open(%s): %v", dir, err)
	}
	jn.Close()
	return jn, rec
}

// TestRecoveredJobCarriesShardResume checks that a recovered job's
// journaled plan and shard checkpoints reach the runner through the
// context ShardLog.
func TestRecoveredJobCarriesShardResume(t *testing.T) {
	dir := t.TempDir()
	spec := mustNormalize(t, tinySpec(19))

	plan := []journal.ShardRange{{First: 0, Count: 2}, {First: 2, Count: 1}}
	payload := json.RawMessage(`{"first":0,"count":2}`)
	jn, _ := openJournal(t, dir)
	specJSON, _ := json.Marshal(spec)
	for _, rec := range []journal.Record{
		{Type: journal.TypeSubmitted, Job: "job-000001", Fingerprint: spec.Fingerprint(), Spec: specJSON},
		{Type: journal.TypeStarted, Job: "job-000001"},
		{Type: journal.TypePlan, Job: "job-000001", Plan: plan},
		{Type: journal.TypeShardDone, Job: "job-000001", Shard: &plan[0], Payload: payload},
	} {
		if err := jn.Append(rec); err != nil {
			t.Fatalf("append %s: %v", rec.Type, err)
		}
	}
	jn.Close()

	jn2, rec := openJournal(t, dir)
	defer jn2.Close()
	got := make(chan *ShardLog, 1)
	runner := func(ctx context.Context, spec Spec) (*Result, error) {
		got <- ShardLogFrom(ctx)
		return stubResult(spec), nil
	}
	s := New(Config{Workers: 1, Runner: runner, Journal: jn2})
	defer shutdown(t, s)
	if n, err := s.Recover(rec); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v; want 1", n, err)
	}
	select {
	case sl := <-got:
		if sl == nil {
			t.Fatal("recovered job ran without a ShardLog")
		}
		if len(sl.Plan) != 2 || sl.Plan[0] != plan[0] || sl.Plan[1] != plan[1] {
			t.Errorf("resume plan %v, want %v", sl.Plan, plan)
		}
		if string(sl.Checkpoints[plan[0]]) != string(payload) {
			t.Errorf("checkpoint payload %s, want %s", sl.Checkpoints[plan[0]], payload)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("recovered job never ran")
	}
	waitState(t, s, "job-000001", StateDone)
}
