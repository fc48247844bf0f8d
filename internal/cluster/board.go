package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/trace"
)

// claimKind labels who is executing a shard claim; it routes the
// win/loss counters when claims race.
type claimKind int

const (
	// claimPrimary is the coordinator's own least-loaded dispatch.
	claimPrimary claimKind = iota
	// claimLocal is the coordinator executing the shard itself.
	claimLocal
	// claimSteal is an idle worker that pulled the shard via StealPath.
	claimSteal
	// claimSpeculative is a re-dispatch of a straggling shard.
	claimSpeculative
)

func (k claimKind) String() string {
	switch k {
	case claimPrimary:
		return "primary"
	case claimLocal:
		return "local"
	case claimSteal:
		return "steal"
	case claimSpeculative:
		return "speculative"
	}
	return "unknown"
}

// claim is one in-flight execution attempt on a shard task, keyed by its
// token. Tokens are minted per claim and are the idempotency key of
// result delivery: a result is only accepted under a token the board
// issued, the first accepted result wins, and every later result is
// checked byte-for-byte against the winner.
type claim struct {
	kind   claimKind
	worker string // member ID, steal worker URL, or "coordinator"
}

// shardTask is one replica range of a campaign on the board. A task that
// is not done and holds no claim is stealable: its primary is parked
// waiting for an in-flight slot or backing off between failovers.
type shardTask struct {
	rg shardRange

	claims     map[string]claim
	speculated bool // a speculative claim was already launched
	done       bool
	winner     *ShardResponse
	winnerJSON []byte
	started    time.Time
	finished   time.Time
	// ctx/cancel bound the task's outstanding claims; a winner cancels
	// the rest.
	ctx    context.Context
	cancel context.CancelFunc
}

// board tracks one campaign's shard tasks and arbitrates racing claims.
// Work stealing and speculative re-execution are both just additional
// claims on a task; determinism (absolute-seed sharding) is what makes
// first-result-wins exact, and a byte mismatch between two results for
// the same range is therefore a hard integrity error, never a tiebreak.
type board struct {
	mu    sync.Mutex
	c     *Coordinator
	fp    string
	spec  service.Spec
	tasks []*shardTask
	// sys, mech and wl are the built spec, for local execution.
	sys  core.System
	mech core.Mechanism
	wl   trace.Workload
	// deadline, when nonzero, is the campaign deadline propagated to
	// stolen shards.
	deadline time.Time
	// abort cancels the whole campaign on an integrity failure.
	abort context.CancelFunc
	err   error
	// onWin journals a winning shard payload (nil when not journaled);
	// called without mu held.
	onWin func(rg shardRange, payload []byte)
}

func newBoard(c *Coordinator, fp string, spec service.Spec, plan []shardRange, abort context.CancelFunc) *board {
	b := &board{c: c, fp: fp, spec: spec, abort: abort}
	now := time.Now()
	for _, rg := range plan {
		b.tasks = append(b.tasks, &shardTask{
			rg:      rg,
			claims:  make(map[string]claim),
			started: now,
		})
	}
	return b
}

// revive marks a task complete from a journaled checkpoint, bypassing
// the claim race (and the onWin journal hook — the checkpoint is already
// durable). Called before the board accepts steals.
func (b *board) revive(t *shardTask, resp *ShardResponse, payload []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t.done = true
	t.winner = resp
	t.winnerJSON = payload
	t.finished = time.Now()
}

// register mints a claim token for an execution attempt on the task.
// Any claim takes the range off the steal list until it is released or
// the range is done.
func (b *board) register(t *shardTask, kind claimKind, worker string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.claimLocked(t, kind, worker)
}

// claimLocked mints a claim on t; the caller holds b.mu.
func (b *board) claimLocked(t *shardTask, kind claimKind, worker string) string {
	token := fmt.Sprintf("claim-%s-%d", b.fp[:8], b.c.claimSeq.Add(1))
	t.claims[token] = claim{kind: kind, worker: worker}
	return token
}

// releaseClaim withdraws a claim whose execution attempt failed. A
// failed primary attempt re-opens the range for stealing while the
// primary backs off and fails over.
func (b *board) releaseClaim(t *shardTask, token string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(t.claims, token)
}

// claimants returns the workers holding a live claim on t, keyed by
// member ID or, for steal claims, by worker URL.
func (b *board) claimants(t *shardTask) map[string]bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]bool, len(t.claims))
	for _, cl := range t.claims {
		out[cl.worker] = true
	}
	return out
}

// stolenTask returns the task holding the steal claim token, or nil when
// no task on this board issued it (or it was already delivered).
func (b *board) stolenTask(token string) *shardTask {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, t := range b.tasks {
		if cl, ok := t.claims[token]; ok && cl.kind == claimSteal {
			return t
		}
	}
	return nil
}

// taskDone reports whether the range already has a winner.
func (b *board) taskDone(t *shardTask) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return t.done
}

// failed returns the campaign's integrity error, if any.
func (b *board) failed() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// complete delivers a claim's result. The first result for a task wins:
// it is recorded, journaled, and the task's other claims are cancelled.
// Any later result must be byte-identical to the winner — a duplicate
// is discarded (that is what makes steals and speculation safe), and a
// mismatch fails the whole campaign as a hard integrity error, because
// determinism guarantees two honest executions of the same seed range
// can never disagree.
//
// complete is idempotent per token and safe for any caller thread (the
// primary dispatch loop, the speculation monitor, the claims HTTP
// handler). It reports whether the token was known and whether this
// result became the winner.
func (b *board) complete(t *shardTask, token string, resp *ShardResponse) (known, won bool, err error) {
	payload, merr := json.Marshal(resp)
	if merr != nil {
		return true, false, fmt.Errorf("cluster: encode shard result: %w", merr)
	}

	b.mu.Lock()
	cl, ok := t.claims[token]
	if !ok {
		b.mu.Unlock()
		return false, false, nil
	}
	delete(t.claims, token)
	if !t.done {
		t.done = true
		t.winner = resp
		t.winnerJSON = payload
		t.finished = time.Now()
		cancel := t.cancel
		switch cl.kind {
		case claimSteal:
			b.c.stealsWon.Add(1)
		case claimSpeculative:
			b.c.speculativeWins.Add(1)
		}
		onWin := b.onWin
		b.mu.Unlock()
		if cancel != nil {
			cancel() // abort the losing claims' work
		}
		if onWin != nil {
			onWin(t.rg, payload)
		}
		return true, true, nil
	}
	// A loser: the range already has a winner. Byte-compare — identical
	// bytes are the expected duplicate of a racing claim; different
	// bytes mean a worker returned a wrong result for a deterministic
	// computation, and the campaign must not merge it away silently.
	if bytes.Equal(payload, t.winnerJSON) {
		switch cl.kind {
		case claimSteal:
			b.c.stealsLost.Add(1)
		case claimSpeculative:
			b.c.speculativeLosses.Add(1)
		}
		b.c.duplicateResults.Add(1)
		b.mu.Unlock()
		return true, false, nil
	}
	b.c.integrityFailures.Add(1)
	b.err = fmt.Errorf("cluster: integrity failure: shard [%d,+%d) of %s got two different results (claim %s from %s)",
		t.rg.first, t.rg.count, b.fp[:8], cl.kind, cl.worker)
	err = b.err
	abort := b.abort
	b.mu.Unlock()
	if abort != nil {
		abort() // a poisoned campaign must stop, not merge
	}
	return true, false, err
}

// stealTask hands out one pending shard to an idle worker: a task that
// is not done and holds no claim. Since the steal claim itself counts,
// at most one steal is outstanding per task, so a storm of idle workers
// does not pile onto the same range. Returns ok=false when nothing is
// stealable.
func (b *board) stealTask(workerURL string) (req *ShardRequest, token string, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return nil, "", false
	}
	for _, t := range b.tasks {
		if t.done || len(t.claims) > 0 {
			continue
		}
		token := b.claimLocked(t, claimSteal, workerURL)
		return &ShardRequest{Spec: b.spec, First: t.rg.first, Count: t.rg.count}, token, true
	}
	return nil, "", false
}

// stragglers returns the tasks eligible for speculative re-execution at
// now: the campaign has completed enough shards to know its latency
// shape, and the task has been running longer than factor × the
// median completed duration (floored at minWait). Each returned task
// is marked speculated so it is only ever re-dispatched once.
func (b *board) stragglers(now time.Time, cfg speculationConfig) []*shardTask {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return nil
	}
	durations := make([]time.Duration, 0, len(b.tasks))
	pending := 0
	for _, t := range b.tasks {
		if t.done {
			durations = append(durations, t.finished.Sub(t.started))
		} else {
			pending++
		}
	}
	if len(durations) == 0 || pending == 0 {
		return nil // no latency shape yet, or nothing left to chase
	}
	threshold := time.Duration(float64(lowerMedian(durations)) * cfg.Factor)
	if threshold < cfg.MinWait {
		threshold = cfg.MinWait
	}
	var out []*shardTask
	for _, t := range b.tasks {
		if t.done || t.speculated {
			continue
		}
		if now.Sub(t.started) >= threshold {
			t.speculated = true
			out = append(out, t)
		}
	}
	return out
}

// lowerMedian returns the lower median of the samples (nearest rank).
func lowerMedian(samples []time.Duration) time.Duration {
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	return sorted[(len(sorted)-1)/2]
}
