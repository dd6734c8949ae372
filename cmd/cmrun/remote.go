// Remote execution mode: with -server, cmrun ships the program to a
// cmserved instance (or a cmgate fleet front) over the PR 3 HTTP API
// instead of interpreting locally. The client half of the overload
// contract lives here: a 429 shed is retried -retries times with
// full-jitter exponential backoff floored at the server's Retry-After
// estimate, and only an exhausted budget surfaces as exit code 5.
// Transport failures (gate restarting, connection refused) share the
// same budget — both are "try again shortly", not "your program is
// broken".
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
)

// runRemote posts the program to serverURL/v1/run and maps the
// response onto cmrun's local exit-code contract. apiKey, when
// non-empty, is sent as Authorization: Bearer — the multi-tenant
// credential for a keyed cmgate/cmserved. It returns the process exit
// code.
func runRemote(ctx context.Context, serverURL, apiKey string, req server.RunRequest, retries int) int {
	body, err := json.Marshal(req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cmrun: %v\n", err)
		return 2
	}
	policy := fleet.RetryPolicy{Max: retries}
	client := &http.Client{}
	var lastErr string
	for attempt := 0; ; attempt++ {
		status, payload, err := postOnce(ctx, client, serverURL+"/v1/run", apiKey, body)
		if err == nil {
			switch {
			case status == http.StatusOK:
				var res server.RunResponse
				if err := json.Unmarshal(payload, &res); err != nil {
					fmt.Fprintf(os.Stderr, "cmrun: malformed server response: %v\n", err)
					return 1
				}
				for _, diag := range res.Diagnostics {
					fmt.Fprintln(os.Stderr, diag)
				}
				os.Stdout.WriteString(res.Stdout)
				return res.ExitCode
			case status == http.StatusTooManyRequests:
				e := decodeRemoteError(payload)
				lastErr = "server overloaded: " + e.Error
				if e.Tenant != "" {
					lastErr = fmt.Sprintf("tenant %q throttled: %s", e.Tenant, e.Error)
				}
				if attempt < retries {
					wait := policy.Backoff(attempt, time.Duration(e.RetryAfterMS)*time.Millisecond)
					fmt.Fprintf(os.Stderr, "cmrun: %s; retrying in %v (%d/%d)\n", lastErr, wait.Round(time.Millisecond), attempt+1, retries)
					if fleet.SleepCtx(ctx, wait) != nil {
						fmt.Fprintln(os.Stderr, "cmrun: "+lastErr)
						return 5
					}
					continue
				}
				fmt.Fprintln(os.Stderr, "cmrun: "+lastErr)
				return 5
			default:
				e := decodeRemoteError(payload)
				for _, diag := range e.Diagnostics {
					fmt.Fprintln(os.Stderr, diag)
				}
				msg := e.Error
				if msg == "" {
					msg = fmt.Sprintf("server returned HTTP %d", status)
				}
				fmt.Fprintf(os.Stderr, "cmrun: %s\n", msg)
				if status >= 400 && status < 500 {
					// The program (or request) is at fault: same exit code
					// as a local compile/usage error.
					return 2
				}
				if e.Trap != "" {
					return 3
				}
				return 1
			}
		}
		// Transport-level failure: the fleet may be mid-restart, which
		// is exactly what the retry budget is for.
		lastErr = err.Error()
		if attempt < retries {
			wait := policy.Backoff(attempt, 0)
			fmt.Fprintf(os.Stderr, "cmrun: %s; retrying in %v (%d/%d)\n", lastErr, wait.Round(time.Millisecond), attempt+1, retries)
			if fleet.SleepCtx(ctx, wait) == nil {
				continue
			}
		}
		fmt.Fprintf(os.Stderr, "cmrun: %s\n", lastErr)
		return 1
	}
}

// postOnce issues a single POST and reads the full response body.
func postOnce(ctx context.Context, client *http.Client, url, apiKey string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+apiKey)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, payload, nil
}

func decodeRemoteError(payload []byte) server.ErrorResponse {
	var e server.ErrorResponse
	json.Unmarshal(payload, &e)
	return e
}
