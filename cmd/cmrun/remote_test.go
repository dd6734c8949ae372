// Client-side overload contract: runRemote must retry 429 sheds with
// backoff (honoring the server's hint), map an exhausted budget to
// exit code 5, and keep the local exit-code taxonomy for everything
// the server reports.
package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/server"
)

func program(src string) server.RunRequest {
	return server.RunRequest{Head: server.Head{Source: src}}
}

func TestRunRemoteRetriesShedThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/run" {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error": "run queue full", "retry_after_ms": 1}`)
			return
		}
		fmt.Fprint(w, `{"exit_code": 7, "stdout": ""}`)
	}))
	defer ts.Close()

	code := runRemote(context.Background(), ts.URL, "", program("int main() { return 7; }"), 2)
	if code != 7 {
		t.Fatalf("exit code %d, want the program's own 7", code)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want shed + retry", calls.Load())
	}
}

func TestRunRemoteExhaustedBudgetExitsFive(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error": "run queue full", "retry_after_ms": 1}`)
	}))
	defer ts.Close()

	if code := runRemote(context.Background(), ts.URL, "", program("int main() { return 0; }"), 2); code != 5 {
		t.Fatalf("exit code %d, want 5 after the retry budget", code)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 1 + 2 retries", calls.Load())
	}
	// The default budget is zero retries: one shed, straight to 5.
	calls.Store(0)
	if code := runRemote(context.Background(), ts.URL, "", program("x"), 0); code != 5 || calls.Load() != 1 {
		t.Fatalf("zero-retries: code=%d calls=%d", code, calls.Load())
	}
}

func TestRunRemoteCompileErrorExitsTwo(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error": "program does not compile", "diagnostics": ["t.xc:1:1: error: no"]}`)
	}))
	defer ts.Close()
	if code := runRemote(context.Background(), ts.URL, "", program("zzz"), 3); code != 2 {
		t.Fatalf("exit code %d, want 2 for a client error (no retries burned)", code)
	}
}

func TestRunRemoteTransportFailureRetriesThenExitsOne(t *testing.T) {
	ts := httptest.NewServer(nil)
	url := ts.URL
	ts.Close() // nothing listens: every attempt is a transport error
	if code := runRemote(context.Background(), url, "", program("x"), 1); code != 1 {
		t.Fatalf("exit code %d, want 1 for an unreachable server", code)
	}
}

func TestRunRemoteSendsBearerKeyAndNamesThrottledTenant(t *testing.T) {
	var gotAuth atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotAuth.Store(r.Header.Get("Authorization"))
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error": "tenant \"acme\" over rate limit", "retry_after_ms": 1, "tenant": "acme"}`)
	}))
	defer ts.Close()
	if code := runRemote(context.Background(), ts.URL, "k-acme", program("x"), 0); code != 5 {
		t.Fatalf("exit code %d, want 5 for a tenant throttle", code)
	}
	if gotAuth.Load() != "Bearer k-acme" {
		t.Fatalf("Authorization = %q, want the -key flag as a Bearer credential", gotAuth.Load())
	}
}

// TestRunRemoteBodyPassesShardDecoder: the body cmrun -server sends,
// every field set, is accepted by a real shard's strict
// (DisallowUnknownFields) decoder and the run's exit code comes back.
func TestRunRemoteBodyPassesShardDecoder(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	req := server.RunRequest{
		Head:    server.Head{Name: "seven.xc", Source: "int main() { return 7; }", Extensions: "matrix,cilk"},
		Threads: 2, TimeoutMS: 5000, MaxSteps: 100000, MaxCells: 1 << 20,
	}
	if code := runRemote(context.Background(), ts.URL, "", req, 0); code != 7 {
		t.Fatalf("exit code %d, want the program's own 7", code)
	}
}
