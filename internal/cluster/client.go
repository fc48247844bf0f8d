package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// StatusError is a non-2xx HTTP reply from a worker. The coordinator
// distinguishes it from transport errors: a StatusError proves the node
// is serving (exclude it for this shard only), while a transport error
// makes the whole node suspect (mark it dead).
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("cluster: worker returned %d: %s", e.Code, e.Msg)
}

// DeadlineHeader carries the job deadline (RFC 3339, nanoseconds) on
// shard requests, so a worker bounds the simulation itself instead of
// relying on the coordinator's connection teardown to reach it.
const DeadlineHeader = "X-Scrubd-Deadline"

// postShard sends one shard request to a worker's base URL and decodes
// the response. Cancelling ctx aborts the request (and, on the worker,
// the simulation); a ctx deadline additionally propagates explicitly via
// DeadlineHeader.
func postShard(ctx context.Context, client *http.Client, baseURL string, req *ShardRequest) (*ShardResponse, error) {
	if client == nil {
		client = http.DefaultClient
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode shard request: %w", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+ShardPath, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: build shard request: %w", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if dl, ok := ctx.Deadline(); ok {
		httpReq.Header.Set(DeadlineHeader, dl.Format(time.RFC3339Nano))
	}
	httpResp, err := client.Do(httpReq)
	if err != nil {
		return nil, fmt.Errorf("cluster: post shard: %w", err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return nil, &StatusError{Code: httpResp.StatusCode, Msg: readErrorBody(httpResp.Body)}
	}
	var resp ShardResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("cluster: decode shard response: %w", err)
	}
	return &resp, nil
}

// readErrorBody extracts the error message from a JSON error reply,
// falling back to the raw (truncated) body.
func readErrorBody(r io.Reader) string {
	raw, err := io.ReadAll(io.LimitReader(r, 4096))
	if err != nil {
		return "unreadable error body"
	}
	var wire struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &wire) == nil && wire.Error != "" {
		return wire.Error
	}
	return strings.TrimSpace(string(raw))
}

// postJSON posts in as JSON to a coordinator endpoint and decodes a 200
// reply into out (nil = ignore the body). A 204 reply reports ok=false
// with no error; any other status is a *StatusError. what names the
// call in errors.
func postJSON(ctx context.Context, client *http.Client, coordinatorURL, path, what string, in, out any) (ok bool, err error) {
	if client == nil {
		client = http.DefaultClient
	}
	body, err := json.Marshal(in)
	if err != nil {
		return false, fmt.Errorf("cluster: encode %s: %w", what, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(coordinatorURL, "/")+path, bytes.NewReader(body))
	if err != nil {
		return false, fmt.Errorf("cluster: build %s: %w", what, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return false, fmt.Errorf("cluster: %s: %w", what, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return false, nil
	case resp.StatusCode != http.StatusOK:
		return false, &StatusError{Code: resp.StatusCode, Msg: readErrorBody(resp.Body)}
	case out == nil:
		return true, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return false, fmt.Errorf("cluster: decode %s reply: %w", what, err)
	}
	return true, nil
}

// Join announces a worker's base URL to a coordinator once.
func Join(ctx context.Context, client *http.Client, coordinatorURL, selfURL string) error {
	_, err := postJSON(ctx, client, coordinatorURL, JoinPath, "join "+coordinatorURL, JoinRequest{URL: selfURL}, nil)
	return err
}

// JoinLoop keeps a worker registered: it retries the first join with a
// short backoff until it succeeds, then re-announces every interval so a
// restarted coordinator re-learns the fleet. It runs until ctx ends.
// logf (may be nil) receives join failures.
func JoinLoop(ctx context.Context, client *http.Client, coordinatorURL, selfURL string, interval time.Duration, logf func(format string, args ...any)) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	retry := time.Second
	for {
		err := Join(ctx, client, coordinatorURL, selfURL)
		var wait time.Duration
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			logf("cluster: join failed (retrying in %s): %v", retry, err)
			wait = retry
			if retry < interval {
				retry *= 2
			}
		} else {
			retry = time.Second
			wait = interval
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}
