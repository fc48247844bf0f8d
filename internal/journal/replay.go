package journal

import "encoding/json"

// JobState is the reconstructed state of one journaled job after replay.
// A terminal State (done/failed/cancelled) restores directly; a
// non-terminal one (submitted/started) is work the crashed incarnation
// had accepted but not finished — the daemon re-enqueues it, resuming a
// sharded campaign from Plan and the Shards checkpoints.
type JobState struct {
	// ID is the job's original identifier; recovery preserves it so
	// clients polling across the crash keep their handle.
	ID string
	// Fingerprint is the spec's content address.
	Fingerprint string
	// Spec is the normalised spec as journaled at submission.
	Spec json.RawMessage
	// State is the furthest lifecycle record seen (terminal wins).
	State Type
	// Error carries the failure or cancellation reason, if any.
	Error string
	// Result is the encoded job result (TypeDone only).
	Result json.RawMessage
	// Plan is the journaled shard plan, nil when the job never sharded.
	Plan []ShardRange
	// Shards maps completed shard ranges to their journaled wire
	// payloads — the resume checkpoints.
	Shards map[ShardRange]json.RawMessage

	firstSeq uint64
}

// Incomplete reports whether the job needs re-execution after recovery.
func (s *JobState) Incomplete() bool { return !s.State.Terminal() }

// FleetDevice is the reconstructed specification of one fleet device:
// what a restarted daemon needs to re-register the device and restart its
// patrol session. Device *state* is never journaled — trajectories are
// deterministic in the spec's seed, so recovery recomputes them.
type FleetDevice struct {
	// ID is the device's fleet identifier.
	ID string
	// Spec is the device registration spec as journaled.
	Spec json.RawMessage
	// Patrol is the most recent patrol configuration and patched policy
	// (live PATCHes are journaled), nil when the device was never
	// patched.
	Patrol json.RawMessage
}

// Recovery is the outcome of replaying a journal: every job the previous
// incarnation knew about, in first-journaled order, plus replay health
// counters.
type Recovery struct {
	// Jobs holds the reconstructed jobs ordered by first appearance.
	Jobs []*JobState
	// FleetDevices holds the fleet devices still registered at the time
	// of the crash, in first-registered order.
	FleetDevices []*FleetDevice
	// FleetSeen lists every fleet device ID ever registered, including
	// since-removed ones, so a recovering fleet never re-mints an ID an
	// earlier incarnation used.
	FleetSeen []string
	// Records counts valid records replayed; Skipped counts corrupt or
	// truncated records dropped (tail damage, not fatal).
	Records int64
	Skipped int64

	byID      map[string]*JobState
	fleetByID map[string]*FleetDevice
	maxSeq    uint64
}

func newRecovery() *Recovery {
	return &Recovery{byID: map[string]*JobState{}, fleetByID: map[string]*FleetDevice{}}
}

// applyFleet folds one fleet control-plane record. Patrol updates for
// devices whose registration was lost (tail damage in an earlier segment)
// are dropped: without the spec the device cannot be re-registered, and a
// fresh registration will re-establish its configuration.
func (rec *Recovery) applyFleet(r Record) {
	switch r.Type {
	case TypeFleetDevice:
		if _, exists := rec.fleetByID[r.Job]; exists {
			return // duplicate registration refreshes nothing
		}
		d := &FleetDevice{ID: r.Job, Spec: r.Spec}
		rec.fleetByID[r.Job] = d
		rec.FleetDevices = append(rec.FleetDevices, d)
		rec.FleetSeen = append(rec.FleetSeen, r.Job)
	case TypeFleetPatrol:
		if d := rec.fleetByID[r.Job]; d != nil {
			d.Patrol = r.Payload
		}
	case TypeFleetRemove:
		if _, exists := rec.fleetByID[r.Job]; !exists {
			return
		}
		delete(rec.fleetByID, r.Job)
		for i, d := range rec.FleetDevices {
			if d.ID == r.Job {
				rec.FleetDevices = append(rec.FleetDevices[:i], rec.FleetDevices[i+1:]...)
				break
			}
		}
	}
}

// Job returns the reconstructed state for id, or nil.
func (rec *Recovery) Job(id string) *JobState { return rec.byID[id] }

// Incomplete returns the jobs needing re-execution, in journal order.
func (rec *Recovery) Incomplete() []*JobState {
	var out []*JobState
	for _, js := range rec.Jobs {
		if js.Incomplete() {
			out = append(out, js)
		}
	}
	return out
}

// apply folds one valid record into the recovery state. Replay is
// idempotent and tolerant: duplicate submissions refresh nothing,
// records for unknown jobs (their submission lost to tail damage in an
// earlier segment) create a placeholder only when they can still be
// acted on, and nothing resurrects a terminal job.
func (rec *Recovery) apply(r Record) {
	rec.Records++
	if r.Seq > rec.maxSeq {
		rec.maxSeq = r.Seq
	}
	if r.Type.Fleet() {
		rec.applyFleet(r)
		return
	}
	js := rec.byID[r.Job]
	if js == nil {
		if r.Type != TypeSubmitted {
			// A non-submission record for a job we never saw submitted:
			// without the spec the job cannot be re-run, and without a
			// terminal record it cannot be restored. Drop it.
			return
		}
		js = &JobState{
			ID:       r.Job,
			State:    TypeSubmitted,
			Shards:   map[ShardRange]json.RawMessage{},
			firstSeq: r.Seq,
		}
		rec.Jobs = append(rec.Jobs, js)
		rec.byID[r.Job] = js
	}
	if js.State.Terminal() {
		return // terminal state is final; late records are echoes
	}
	switch r.Type {
	case TypeSubmitted:
		if js.Spec == nil {
			js.Fingerprint = r.Fingerprint
			js.Spec = r.Spec
		}
	case TypeStarted:
		js.State = TypeStarted
	case TypePlan:
		js.Plan = r.Plan
	case TypeShardDone:
		if r.Shard != nil && r.Payload != nil {
			js.Shards[*r.Shard] = r.Payload
		}
	case TypeDone:
		js.State = TypeDone
		js.Result = r.Payload
	case TypeFailed:
		js.State = TypeFailed
		js.Error = r.Error
	case TypeCancelled:
		js.State = TypeCancelled
		js.Error = r.Error
	}
}
