// The crash-only suite: every crash class — a panic injected into a
// pool worker, an allocation over the cell budget, an rc double free, a
// deadline busted inside a parallel with-loop — is thrown at a live
// server, which must answer each with a structured trap/error response
// while /healthz stays 200 and no goroutines leak.
package server_test

import (
	"context"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/rc"
	"repro/internal/server"
)

// parallelSrc runs a with-loop big enough to be released on the pool.
const parallelSrc = `
int main() {
	int n = 64;
	Matrix float <1> m;
	m = with ([0] <= [i] < [n]) genarray([n], (float)i);
	return 0;
}
`

// bigParallelSrc is a large parallel with-loop: 4M cells of a
// 400-trip nested fold take seconds even on the flat engine, far longer
// than the tight deadlines the tests set, so cancellation must be
// observed mid-construct.
const bigParallelSrc = `
int main() {
	int n = 2000;
	Matrix float <2> m;
	m = with ([0, 0] <= [i, j] < [n, n])
		genarray([n, n], with ([0] <= [k] < [400]) fold(+, 0.0, (float)(i * k) * 2.0 + j));
	return 0;
}
`

// mustHealthz asserts the liveness probe still answers 200.
func mustHealthz(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d after a crash-class request", resp.StatusCode)
	}
}

func TestCrashWorkerPanicIsTrapped(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	par.TestHookInjectPanic = func(worker int) {
		if worker == 1 {
			panic("injected worker crash")
		}
	}
	defer func() { par.TestHookInjectPanic = nil }()

	code, body := postJSON(t, ts.URL+"/v1/run",
		map[string]any{"source": parallelSrc, "threads": 4})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d body %v, want 422", code, body)
	}
	if body["trap"] != "panic" {
		t.Fatalf("trap = %v, want panic (body %v)", body["trap"], body)
	}
	if span, _ := body["span"].(string); span == "" {
		t.Errorf("trap response carries no source span: %v", body)
	}
	mustHealthz(t, ts.URL)

	// The same pool-backed path works once the fault is gone.
	par.TestHookInjectPanic = nil
	code, body = postJSON(t, ts.URL+"/v1/run",
		map[string]any{"source": parallelSrc, "threads": 4})
	if code != http.StatusOK {
		t.Fatalf("run after injected panic: %d %v", code, body)
	}
}

func TestCrashOversizedAllocationIsTrapped(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{MaxCells: 1000})
	code, body := postJSON(t, ts.URL+"/v1/run", map[string]any{"source": `
int main() {
	int n = 100;
	Matrix float <2> m;
	m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 1.0);
	return 0;
}`})
	if code != http.StatusUnprocessableEntity || body["trap"] != "oom" {
		t.Fatalf("oversized genarray: %d %v, want 422 trap oom", code, body)
	}
	if !strings.Contains(body["error"].(string), "budget") {
		t.Errorf("error = %v, want the budget in it", body["error"])
	}
	mustHealthz(t, ts.URL)

	// A request cannot raise its own cap above the server's: asking for
	// 2^40 cells is clamped back to the configured 1000.
	code, body = postJSON(t, ts.URL+"/v1/run", map[string]any{"source": `
int main() {
	int n = 100;
	Matrix float <2> m;
	m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 1.0);
	return 0;
}`, "max_cells": int64(1) << 40})
	if code != http.StatusUnprocessableEntity || body["trap"] != "oom" {
		t.Fatalf("max_cells clamp: %d %v, want 422 trap oom", code, body)
	}
	// But a request may lower the cap below the server's.
	ts2, _ := newTestServer(t, server.Config{})
	code, body = postJSON(t, ts2.URL+"/v1/run",
		map[string]any{"source": parallelSrc, "max_cells": 10})
	if code != http.StatusUnprocessableEntity || body["trap"] != "oom" {
		t.Fatalf("per-request budget: %d %v, want 422 trap oom", code, body)
	}
}

func TestCrashRCDoubleFreeIsTrapped(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	// The hook commits a real double free inside a pool worker; the
	// typed rc panic must come back as the rc trap.
	par.TestHookInjectPanic = func(worker int) {
		if worker == 0 {
			h := rc.NewHeap().Alloc()
			h.DecRef()
			h.DecRef()
		}
	}
	defer func() { par.TestHookInjectPanic = nil }()

	code, body := postJSON(t, ts.URL+"/v1/run",
		map[string]any{"source": parallelSrc, "threads": 4})
	if code != http.StatusUnprocessableEntity || body["trap"] != "rc" {
		t.Fatalf("double free: %d %v, want 422 trap rc", code, body)
	}
	if !strings.Contains(body["error"].(string), "double free") {
		t.Errorf("error = %v, want the violation in it", body["error"])
	}
	mustHealthz(t, ts.URL)
}

func TestCrashDeadlineInsideParallelConstruct(t *testing.T) {
	ts, d := newTestServer(t, server.Config{})
	start := time.Now()
	code, body := postJSON(t, ts.URL+"/v1/run",
		map[string]any{"source": bigParallelSrc, "threads": 4, "timeout_ms": 30})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d %v, want 504", code, body)
	}
	// The deadline is polled between rows of the with-loop, so the
	// response arrives promptly instead of after the full 4M-cell loop.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("mid-construct cancellation took %s", elapsed)
	}
	mustHealthz(t, ts.URL)
	if m := d.MetricsSnapshot(); m.RunsCancelled.Load() != 1 {
		t.Fatalf("RunsCancelled = %d", m.RunsCancelled.Load())
	}
	var ms struct {
		RunTimeouts int64 `json:"run_timeouts"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &ms); code != http.StatusOK || ms.RunTimeouts != 1 {
		t.Fatalf("run_timeouts = %d (status %d), want 1", ms.RunTimeouts, code)
	}
}

// TestCrashDeadlineInsideNestedFold: four cells, each a two-billion-trip
// fold, are a single strip of the flat engine — the deadline has to be
// seen inside it, or one request pins a worker for half a minute.
func TestCrashDeadlineInsideNestedFold(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	const src = `
int main() {
	Matrix int <1> m;
	m = with ([0] <= [i] < [4])
		genarray([4], with ([0] <= [k] < [2000000000]) fold(+, 0, i + k));
	return 0;
}
`
	for _, threads := range []int{1, 4} {
		start := time.Now()
		code, body := postJSON(t, ts.URL+"/v1/run",
			map[string]any{"source": src, "threads": threads, "timeout_ms": 30})
		if code != http.StatusGatewayTimeout {
			t.Fatalf("threads %d: status = %d %v, want 504", threads, code, body)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("threads %d: cancellation inside the fold took %s", threads, elapsed)
		}
		mustHealthz(t, ts.URL)
	}
}

// TestCrashDeadlineInsideChain: a loop of 2^20-cell fused chains spends
// all its time inside them, and a chain is one instruction of the VM —
// the deadline has to be seen between its strips, and the 504 says so:
// the error is anchored at the chain's expression, not at a statement.
func TestCrashDeadlineInsideChain(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{MaxCells: 1 << 40})
	const src = `
int main() {
	Matrix float <2> a = init(Matrix float <2>, 1024, 1024);
	Matrix float <2> b = init(Matrix float <2>, 1024, 1024);
	for (int r = 0; r < 100000; r++) {
		Matrix float <2> c = a .* b + a - b * 0.5;
	}
	return 0;
}
`
	for _, threads := range []int{1, 4} {
		// The deadline can also fall in the microseconds between two
		// chains, or in a cold compile: every attempt must time out
		// promptly, one must have timed out inside a chain.
		var seen []string
		inside := false
		for attempt := 0; attempt < 5 && !inside; attempt++ {
			start := time.Now()
			code, body := postJSON(t, ts.URL+"/v1/run",
				map[string]any{"source": src, "threads": threads, "timeout_ms": 100})
			if code != http.StatusGatewayTimeout {
				t.Fatalf("threads %d: status = %d %v, want 504", threads, code, body)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("threads %d: cancellation inside the chain took %s", threads, elapsed)
			}
			msg, _ := body["error"].(string)
			seen = append(seen, msg)
			inside = strings.Contains(msg, ":6:24:")
			mustHealthz(t, ts.URL)
		}
		if !inside {
			t.Errorf("threads %d: no deadline seen inside the chain at 6:24: %q", threads, seen)
		}
	}
}

func TestCrashTrapsCountedOnMetrics(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{MaxCells: 100})
	oversized := map[string]any{"source": `
int main() {
	Matrix float <2> m;
	m = with ([0, 0] <= [i, j] < [50, 50]) genarray([50, 50], 1.0);
	return 0;
}`}
	for k := 0; k < 3; k++ {
		if code, body := postJSON(t, ts.URL+"/v1/run", oversized); code != http.StatusUnprocessableEntity {
			t.Fatalf("request %d: %d %v", k, code, body)
		}
	}
	var m struct {
		RunTraps        int64            `json:"run_traps"`
		Traps           map[string]int64 `json:"traps"`
		PanicsRecovered int64            `json:"panics_recovered"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if m.RunTraps != 3 || m.Traps["oom"] != 3 {
		t.Fatalf("trap counters: %+v", m)
	}
	if m.PanicsRecovered != 0 {
		t.Errorf("panics_recovered = %d with no handler panics", m.PanicsRecovered)
	}
	mustHealthz(t, ts.URL)
}

// Graceful shutdown: Drain lets the in-flight run finish, sheds every
// queued run with a structured 429, refuses new arrivals, and leaves
// no goroutines behind — the daemon's SIGTERM path in miniature.
func TestCrashShutdownDrainsInflightShedsQueued(t *testing.T) {
	release := barrierHook(t)
	ts, srv, _ := newChaosServer(t, server.Config{
		MaxConcurrentRuns: 1, RunQueueSize: 4,
		DefaultTimeout: 30 * time.Second, MaxQueueWait: 30 * time.Second,
	})
	base := runtime.NumGoroutine()

	// One admitted run pinned at the barrier, two runs queued behind it.
	inflight := make(chan int, 1)
	go func() {
		code, _ := rawPost(ts.URL+"/v1/run", map[string]any{"source": parallelSrc, "threads": 2})
		inflight <- code
	}()
	waitMetrics(t, ts.URL, func(m queueMetrics) bool { return m.InflightRuns == 1 }, "slot held")
	queued := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, _ := rawPost(ts.URL+"/v1/run", map[string]any{"source": trivialSrc})
			queued <- code
		}()
	}
	waitMetrics(t, ts.URL, func(m queueMetrics) bool { return m.RunQueueDepth == 2 }, "queue filled")

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()

	// The queued runs are shed immediately — Drain does not wait for
	// them — and a fresh arrival is refused the same way.
	for i := 0; i < 2; i++ {
		select {
		case code := <-queued:
			if code != http.StatusTooManyRequests {
				t.Fatalf("queued run on drain: %d, want 429", code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued runs not shed by Drain")
		}
	}
	if code, err := rawPost(ts.URL+"/v1/run", map[string]any{"source": trivialSrc}); err != nil || code != http.StatusTooManyRequests {
		t.Fatalf("post-drain arrival: %d %v, want 429", code, err)
	}
	// Non-run endpoints still serve during the drain window.
	mustHealthz(t, ts.URL)

	// The in-flight run completes normally and Drain returns.
	release()
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight run finished %d during drain, want 200", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Idle keep-alive conns from the flood settle once closed; pool
	// workers exit cooperatively after each run.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+6 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d at start, %d after drain", base, runtime.NumGoroutine())
}

// A storm of crash-class requests must not leak goroutines: every
// interpreter (and its worker pool) is torn down when its request ends.
func TestCrashRequestsDoNotLeakGoroutines(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{MaxCells: 1000})
	base := runtime.NumGoroutine()
	for k := 0; k < 10; k++ {
		postJSON(t, ts.URL+"/v1/run", map[string]any{"source": `
int main() {
	int n = 100;
	Matrix float <2> m;
	m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 1.0);
	return 0;
}`, "threads": 8})
		postJSON(t, ts.URL+"/v1/run",
			map[string]any{"source": bigParallelSrc, "threads": 8, "timeout_ms": 20})
	}
	// Pool workers exit cooperatively after Close; idle HTTP conns also
	// settle. Allow slack for both.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+6 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d at start, %d after the crash storm", base, runtime.NumGoroutine())
}
