package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// StealResponse hands a pending shard to an idle worker. Token is the
// claim's idempotency key: the worker posts its result to ClaimsPath
// under it, and the coordinator accepts each token's result at most
// once. Deadline (RFC 3339, nanoseconds; empty = none) propagates the
// campaign budget exactly as DeadlineHeader does on pushed shards.
type StealResponse struct {
	Token    string       `json:"token"`
	Shard    ShardRequest `json:"shard"`
	Deadline string       `json:"deadline,omitempty"`
}

// ClaimResult returns a stolen shard's outcome to the coordinator.
type ClaimResult struct {
	Token    string         `json:"token"`
	Response *ShardResponse `json:"response"`
}

// ClaimAck is the coordinator's verdict on a delivered claim result.
// Accepted=false means the token is unknown (the campaign finished or
// the claim was forgotten) — the worker just drops the work, which is
// safe because some other claim owns the range. Won=false on an
// accepted token means another claim's byte-identical result landed
// first; the duplicate was discarded.
type ClaimAck struct {
	Accepted bool `json:"accepted"`
	Won      bool `json:"won"`
}

// StealOnce asks a coordinator for one pending shard. It returns
// (nil, "", nil) when nothing is stealable right now (HTTP 204).
func StealOnce(ctx context.Context, client *http.Client, coordinatorURL, selfURL string) (*ShardRequest, string, error) {
	var sr StealResponse
	ok, err := postJSON(ctx, client, coordinatorURL, StealPath, "steal", JoinRequest{URL: selfURL}, &sr)
	if err != nil || !ok {
		return nil, "", err
	}
	if sr.Deadline != "" {
		// The deadline rides back to the caller through the request so the
		// executing context can be bounded; parse errors fail the steal.
		if _, err := time.Parse(time.RFC3339Nano, sr.Deadline); err != nil {
			return nil, "", fmt.Errorf("cluster: bad steal deadline %q: %v", sr.Deadline, err)
		}
		sr.Shard.deadline = sr.Deadline
	}
	return &sr.Shard, sr.Token, nil
}

// DeliverClaim posts a stolen shard's result back to the coordinator.
func DeliverClaim(ctx context.Context, client *http.Client, coordinatorURL, token string, resp *ShardResponse) (ClaimAck, error) {
	var ack ClaimAck
	if _, err := postJSON(ctx, client, coordinatorURL, ClaimsPath, "claim delivery", ClaimResult{Token: token, Response: resp}, &ack); err != nil {
		return ClaimAck{}, err
	}
	return ack, nil
}

// StealLoop turns a worker node into an active thief: whenever the
// worker has a free execution slot it polls the coordinator for a
// pending shard, executes it, and delivers the result under the claim
// token. Steals are pull-based, so a straggling or overloaded fleet
// drains through whichever nodes have headroom without the coordinator
// tracking idleness. Runs until ctx ends; logf (may be nil) receives
// failures.
func (w *Worker) StealLoop(ctx context.Context, client *http.Client, coordinatorURL, selfURL string, interval time.Duration, logf func(format string, args ...any)) {
	if interval <= 0 {
		interval = time.Second
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		// Reserve a slot before asking for work: a steal must never make
		// the worker reject the coordinator's own pushed shards.
		select {
		case w.sem <- struct{}{}:
		default:
			continue // saturated; nothing to offer
		}
		w.stealShard(ctx, client, coordinatorURL, selfURL, logf)
		<-w.sem
	}
}

// stealShard performs one steal attempt with an already-reserved
// execution slot.
func (w *Worker) stealShard(ctx context.Context, client *http.Client, coordinatorURL, selfURL string, logf func(format string, args ...any)) {
	req, token, err := StealOnce(ctx, client, coordinatorURL, selfURL)
	if err != nil {
		if ctx.Err() == nil {
			logf("cluster: steal poll failed: %v", err)
		}
		return
	}
	if req == nil {
		return // nothing pending
	}
	w.stealsClaimed.Add(1)
	resp, err := w.execute(ctx, req)
	if err != nil {
		// The claim is simply abandoned: the primary dispatcher still owns
		// the range and idempotent completion means nothing is lost.
		if ctx.Err() == nil {
			logf("cluster: stolen shard [%d,+%d) failed: %v", req.First, req.Count, err)
		}
		return
	}
	ack, err := DeliverClaim(ctx, client, coordinatorURL, token, resp)
	if err != nil {
		if ctx.Err() == nil {
			logf("cluster: claim delivery failed: %v", err)
		}
		return
	}
	w.stealsExecuted.Add(1)
	if ack.Won {
		w.stealsWon.Add(1)
	}
}
