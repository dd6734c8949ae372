// The chaos harness: aggregate-load failure modes thrown at a live
// server. Where crash_test.go proves one request cannot crash the
// daemon, this suite proves a *crowd* of requests cannot: floods shed
// exactly the overflow with structured 429s, disconnecting queued
// clients release their queue slots, panics injected mid-flood stay
// contained, a restarted daemon comes back warm from the disk tier,
// and a corrupted cache object is quarantined — all while /healthz
// answers 200 and goroutines do not leak.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/par"
	"repro/internal/server"
)

const trivialSrc = `int main() { return 0; }`

// newChaosServer is newTestServer plus the *server.Server handle the
// drain and admission assertions need.
func newChaosServer(t *testing.T, cfg server.Config) (*httptest.Server, *server.Server, *driver.Driver) {
	t.Helper()
	if cfg.Driver == nil {
		cfg.Driver = driver.New()
	}
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s, cfg.Driver
}

// rawPost is postJSON without test plumbing, safe to call from helper
// goroutines (no t.Fatal off the test goroutine).
func rawPost(url string, body any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// queueMetrics is the /metrics subset the chaos assertions read.
type queueMetrics struct {
	InflightRuns  int64 `json:"inflight_runs"`
	RunQueueDepth int64 `json:"run_queue_depth"`
	RunQueueMax   int   `json:"run_queue_max"`
	RunsShed      int64 `json:"runs_shed"`
}

// waitMetrics polls /metrics until ok returns true or the deadline
// passes (then fails the test with the last snapshot).
func waitMetrics(t *testing.T, url string, ok func(queueMetrics) bool, what string) queueMetrics {
	t.Helper()
	var m queueMetrics
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if code := getJSON(t, url+"/metrics", &m); code == http.StatusOK && ok(m) {
			return m
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; last metrics %+v", what, m)
	return m
}

// healthz fetches the liveness document, asserting 200.
func healthz(t *testing.T, url string) (status string) {
	t.Helper()
	var h struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, url+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	return h.Status
}

// barrierHook installs a TestHookRunBarrier that blocks every admitted
// run until release is called (idempotent); the hook is removed on
// cleanup.
func barrierHook(t *testing.T) (release func()) {
	t.Helper()
	barrier := make(chan struct{})
	server.TestHookRunBarrier = func() { <-barrier }
	var once sync.Once
	release = func() { once.Do(func() { close(barrier) }) }
	t.Cleanup(func() {
		release()
		server.TestHookRunBarrier = nil
	})
	return release
}

// TestChaosFloodShedsExactlyTheOverflow is the acceptance flood: with
// one run slot and queue capacity K, N concurrent runs must yield
// exactly 1+K completions and N-1-K structured sheds — no hung
// connections, no unbounded waiters — while /healthz stays 200.
func TestChaosFloodShedsExactlyTheOverflow(t *testing.T) {
	const K, N = 3, 24
	release := barrierHook(t)
	ts, _, _ := newChaosServer(t, server.Config{
		MaxConcurrentRuns: 1,
		RunQueueSize:      K,
		DefaultTimeout:    30 * time.Second,
		MaxQueueWait:      30 * time.Second,
	})

	type result struct {
		code       int
		retryHdr   string
		retryMS    float64
		bodyStatus string
	}
	raw, _ := json.Marshal(map[string]any{"source": trivialSrc})
	results := make(chan result, N)
	for i := 0; i < N; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(raw))
			if err != nil {
				results <- result{code: -1}
				return
			}
			defer resp.Body.Close()
			var body struct {
				RetryAfterMS float64 `json:"retry_after_ms"`
			}
			json.NewDecoder(resp.Body).Decode(&body)
			results <- result{code: resp.StatusCode, retryHdr: resp.Header.Get("Retry-After"), retryMS: body.RetryAfterMS}
		}()
	}

	// While the barrier pins the slot-holder, exactly N-1-K arrivals
	// must be shed; the rest (1 running + K queued) stay admitted.
	var shed int
	collect := time.After(10 * time.Second)
	for shed < N-1-K {
		select {
		case r := <-results:
			if r.code != http.StatusTooManyRequests {
				t.Fatalf("pre-release response %d, want only 429s while the slot is pinned", r.code)
			}
			if r.retryHdr == "" || r.retryMS <= 0 {
				t.Fatalf("shed without backpressure signal: Retry-After=%q retry_after_ms=%v", r.retryHdr, r.retryMS)
			}
			shed++
		case <-collect:
			t.Fatalf("only %d/%d sheds arrived", shed, N-1-K)
		}
	}
	m := waitMetrics(t, ts.URL, func(m queueMetrics) bool {
		return m.RunQueueDepth == K && m.InflightRuns == 1
	}, "full queue")
	if m.RunsShed != N-1-K || m.RunQueueMax != K {
		t.Fatalf("runs_shed=%d run_queue_max=%d, want %d and %d", m.RunsShed, m.RunQueueMax, N-1-K, K)
	}
	// Degraded, not down: the daemon flags the elevated shed rate but
	// keeps serving (200).
	if status := healthz(t, ts.URL); status != "degraded" {
		t.Fatalf("healthz status = %q during a shedding flood, want degraded", status)
	}

	// Release: every admitted request completes successfully.
	release()
	for done := 0; done < 1+K; done++ {
		select {
		case r := <-results:
			if r.code != http.StatusOK {
				t.Fatalf("admitted run finished %d, want 200", r.code)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("admitted runs stalled after release (%d/%d done)", done, 1+K)
		}
	}
	waitMetrics(t, ts.URL, func(m queueMetrics) bool {
		return m.InflightRuns == 0 && m.RunQueueDepth == 0
	}, "quiesce")
}

// A slow consumer that gives up while queued must release its queue
// slot without being counted as a shed (the server refused nothing).
func TestChaosQueuedClientDisconnectReleasesSlot(t *testing.T) {
	release := barrierHook(t)
	ts, _, _ := newChaosServer(t, server.Config{
		MaxConcurrentRuns: 1, RunQueueSize: 4,
		DefaultTimeout: 30 * time.Second, MaxQueueWait: 30 * time.Second,
	})
	raw, _ := json.Marshal(map[string]any{"source": trivialSrc})

	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(raw))
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	waitMetrics(t, ts.URL, func(m queueMetrics) bool { return m.InflightRuns == 1 }, "slot held")

	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(raw))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		gone <- err
	}()
	waitMetrics(t, ts.URL, func(m queueMetrics) bool { return m.RunQueueDepth == 1 }, "client queued")
	cancel()
	if err := <-gone; err == nil {
		t.Fatal("cancelled client got a response")
	}
	m := waitMetrics(t, ts.URL, func(m queueMetrics) bool { return m.RunQueueDepth == 0 }, "queue slot released")
	if m.RunsShed != 0 {
		t.Fatalf("runs_shed = %d after a client disconnect, want 0", m.RunsShed)
	}
	if status := healthz(t, ts.URL); status != "ok" {
		t.Fatalf("healthz = %q with no sheds, want ok", status)
	}
	release()
	if code := <-first; code != http.StatusOK {
		t.Fatalf("pinned run finished %d", code)
	}
}

// Worker panics injected into a concurrent flood: every response is
// structured (422 trap or 200), the panic never escapes a request, and
// the goroutine count settles back.
func TestChaosPanicsUnderConcurrentLoad(t *testing.T) {
	ts, _, _ := newChaosServer(t, server.Config{
		MaxConcurrentRuns: 2, RunQueueSize: 32,
		DefaultTimeout: 30 * time.Second, MaxQueueWait: 30 * time.Second,
	})
	base := runtime.NumGoroutine()
	par.TestHookInjectPanic = func(worker int) {
		if worker == 1 {
			panic("chaos: injected worker crash")
		}
	}
	defer func() { par.TestHookInjectPanic = nil }()

	const n = 12
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// threads=4 exercises the pool (and the injected panic);
			// trivialSrc has no parallel construct and stays clean.
			src, threads := trivialSrc, 1
			if i%2 == 0 {
				src, threads = parallelSrc, 4
			}
			code, err := rawPost(ts.URL+"/v1/run", map[string]any{"source": src, "threads": threads})
			if err != nil {
				code = -1
			}
			codes[i] = code
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Hammer the liveness probe while the flood is in flight.
	for {
		select {
		case <-done:
			goto settled
		default:
			mustHealthz(t, ts.URL)
			time.Sleep(5 * time.Millisecond)
		}
	}
settled:
	for i, code := range codes {
		want := http.StatusOK
		if i%2 == 0 {
			want = http.StatusUnprocessableEntity // the injected panic, trapped
		}
		if code != want {
			t.Fatalf("request %d: code %d, want %d", i, code, want)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+8 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d at start, %d after the panic flood", base, runtime.NumGoroutine())
}

// diskObjectPath mirrors the driver's disk layout (objects/<k[:2]>/<k>).
func diskObjectPath(dir, key string) string {
	return filepath.Join(dir, "objects", key[:2], key)
}

// A "restarted daemon" (new server + new driver, same -cachedir) must
// serve a previously compiled program from the disk tier; a corrupted
// object must be quarantined and recompiled, never served.
func TestChaosRestartServesFromDiskAndQuarantinesCorruption(t *testing.T) {
	dir := t.TempDir()
	req := map[string]any{"source": okSrc, "par": "none"}

	ts1, _ := newTestServer(t, server.Config{Driver: driver.NewWith(driver.Config{CacheDir: dir})})
	code, first := postJSON(t, ts1.URL+"/v1/compile", req)
	if code != http.StatusOK || first["cached"] != false {
		t.Fatalf("cold compile: %d %v", code, first["cached"])
	}
	key := first["key"].(string)

	// Restart 1: warm from disk.
	ts2, d2 := newTestServer(t, server.Config{Driver: driver.NewWith(driver.Config{CacheDir: dir})})
	code, warm := postJSON(t, ts2.URL+"/v1/compile", req)
	if code != http.StatusOK || warm["cached"] != true || warm["output"] != first["output"] {
		t.Fatalf("restart compile: %d cached=%v", code, warm["cached"])
	}
	if m := d2.MetricsSnapshot(); m.DiskHits.Load() != 1 || m.CompileExecutions.Load() != 0 {
		t.Fatalf("restart metrics: hits=%d execs=%d", m.DiskHits.Load(), m.CompileExecutions.Load())
	}

	// Corrupt the object, restart again: quarantined + recompiled.
	path := diskObjectPath(dir, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ts3, d3 := newTestServer(t, server.Config{Driver: driver.NewWith(driver.Config{CacheDir: dir})})
	code, rec := postJSON(t, ts3.URL+"/v1/compile", req)
	if code != http.StatusOK || rec["cached"] != false || rec["output"] != first["output"] {
		t.Fatalf("post-corruption compile: %d cached=%v (must recompile, same artifact)", code, rec["cached"])
	}
	if m := d3.MetricsSnapshot(); m.DiskCorrupt.Load() != 1 || m.CompileExecutions.Load() != 1 {
		t.Fatalf("corruption metrics: corrupt=%d execs=%d", m.DiskCorrupt.Load(), m.CompileExecutions.Load())
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt object not quarantined: %v", err)
	}
	mustHealthz(t, ts3.URL)
}
