// Router behavior against scripted fake shards: placement stability,
// failover, 429 backoff, hedging, and the 503 of last resort. The
// full-stack kill/restart exercise lives in chaos_test.go.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeShard is a scriptable stand-in for cmserved.
type fakeShard struct {
	ts       *httptest.Server
	requests atomic.Int64
	delay    atomic.Int64 // ns to sleep before answering
	handler  atomic.Value // func(w http.ResponseWriter, r *http.Request)
}

func newFakeFleet(t *testing.T, n int, cfg Config) (*Router, []*fakeShard) {
	t.Helper()
	shards := make([]*fakeShard, n)
	urls := make([]string, n)
	for i := range shards {
		fs := &fakeShard{}
		idx := i
		fs.handler.Store(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"shard": %d}`, idx)
		})
		fs.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fs.requests.Add(1)
			if d := fs.delay.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			fs.handler.Load().(func(http.ResponseWriter, *http.Request))(w, r)
		}))
		t.Cleanup(fs.ts.Close)
		shards[i] = fs
		urls[i] = fs.ts.URL
	}
	cfg.Shards = urls
	// Replication would add background artifact traffic to these
	// scripted shards; the real-server chaos harness covers it.
	cfg.DisableReplication = true
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, shards
}

func compileBody(src string) string {
	b, _ := json.Marshal(map[string]string{"source": src})
	return string(b)
}

func gatePost(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func setFault(t *testing.T, hook func(shard int, op string) error) {
	t.Helper()
	TestHookShardFault = hook
	t.Cleanup(func() { TestHookShardFault = nil })
}

func TestRoutingIsStableByContent(t *testing.T) {
	rt, shards := newFakeFleet(t, 3, Config{HedgeDisabled: true})
	h := rt.Handler()
	body := compileBody("int main() { return 7; }")
	var servedBy int
	for i := 0; i < 8; i++ {
		w := gatePost(t, h, "/v1/compile", body)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, w.Code, w.Body)
		}
		var res struct {
			Shard int `json:"shard"`
		}
		json.Unmarshal(w.Body.Bytes(), &res)
		if i == 0 {
			servedBy = res.Shard
		} else if res.Shard != servedBy {
			t.Fatalf("identical program bounced from shard %d to %d", servedBy, res.Shard)
		}
	}
	total := int64(0)
	for _, fs := range shards {
		total += fs.requests.Load()
	}
	if total != 8 {
		t.Fatalf("fleet saw %d requests, want 8", total)
	}
}

func TestDistinctProgramsSpreadAcrossShards(t *testing.T) {
	rt, shards := newFakeFleet(t, 3, Config{HedgeDisabled: true})
	h := rt.Handler()
	for i := 0; i < 60; i++ {
		body := compileBody(fmt.Sprintf("int main() { return %d; }", i))
		if w := gatePost(t, h, "/v1/compile", body); w.Code != http.StatusOK {
			t.Fatalf("request %d: %d", i, w.Code)
		}
	}
	for i, fs := range shards {
		if fs.requests.Load() == 0 {
			t.Fatalf("shard %d saw no traffic across 60 distinct programs", i)
		}
	}
}

func TestFailoverOnTransportFault(t *testing.T) {
	rt, _ := newFakeFleet(t, 3, Config{HedgeDisabled: true})
	h := rt.Handler()
	body := compileBody("int main() { return 1; }")
	key := routeKeyFor([]byte(body))
	primary := rt.Primary(key)
	setFault(t, func(shard int, op string) error {
		if shard == primary {
			return errors.New("connection refused")
		}
		return nil
	})
	w := gatePost(t, h, "/v1/compile", body)
	if w.Code != http.StatusOK {
		t.Fatalf("failover request: %d %s", w.Code, w.Body)
	}
	var res struct {
		Shard int `json:"shard"`
	}
	json.Unmarshal(w.Body.Bytes(), &res)
	if res.Shard == primary {
		t.Fatalf("request served by the faulted primary %d", primary)
	}
	if rt.Metrics().FailoversTotal.Load() == 0 {
		t.Fatal("failovers_total not incremented")
	}
}

func TestRetryOn429SameShard(t *testing.T) {
	rt, shards := newFakeFleet(t, 3, Config{
		HedgeDisabled: true,
		Retry:         RetryPolicy{Max: 2, Base: time.Millisecond, Cap: 5 * time.Millisecond},
	})
	h := rt.Handler()
	body := compileBody("int main() { return 2; }")
	primary := rt.Primary(routeKeyFor([]byte(body)))
	var sheds atomic.Int64
	shards[primary].handler.Store(func(w http.ResponseWriter, r *http.Request) {
		if sheds.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error": "run queue full", "retry_after_ms": 2}`)
			return
		}
		fmt.Fprintf(w, `{"shard": %d}`, primary)
	})

	w := gatePost(t, h, "/v1/compile", body)
	if w.Code != http.StatusOK {
		t.Fatalf("after retry: %d %s", w.Code, w.Body)
	}
	var res struct {
		Shard int `json:"shard"`
	}
	json.Unmarshal(w.Body.Bytes(), &res)
	if res.Shard != primary {
		t.Fatalf("429 retry moved to shard %d; overload must not fail over (duplicate compiles)", res.Shard)
	}
	if got := rt.Metrics().RetriesTotal.Load(); got != 1 {
		t.Fatalf("retries_total = %d, want 1", got)
	}
}

func TestRetryBudgetExhaustedRelays429(t *testing.T) {
	rt, shards := newFakeFleet(t, 1, Config{
		HedgeDisabled: true,
		Retry:         RetryPolicy{Max: 1, Base: time.Millisecond, Cap: 2 * time.Millisecond},
	})
	shards[0].handler.Store(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error": "run queue full", "retry_after_ms": 1}`)
	})
	w := gatePost(t, rt.Handler(), "/v1/run", compileBody("int main() { return 0; }"))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("code = %d, want 429 relay", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("Retry-After header not relayed")
	}
	var e struct {
		Error string `json:"error"`
	}
	json.Unmarshal(w.Body.Bytes(), &e)
	if e.Error != "run queue full" {
		t.Fatalf("shard's structured error not relayed: %s", w.Body)
	}
}

func TestHedgeWinsOverSlowPrimary(t *testing.T) {
	rt, shards := newFakeFleet(t, 3, Config{
		HedgeAfterMin: 10 * time.Millisecond,
		HedgeAfterMax: 20 * time.Millisecond,
	})
	h := rt.Handler()
	body := compileBody("int main() { return 3; }")
	primary := rt.Primary(routeKeyFor([]byte(body)))
	shards[primary].delay.Store(int64(400 * time.Millisecond))

	w := gatePost(t, h, "/v1/compile", body)
	if w.Code != http.StatusOK {
		t.Fatalf("hedged request: %d %s", w.Code, w.Body)
	}
	var res struct {
		Shard int `json:"shard"`
	}
	json.Unmarshal(w.Body.Bytes(), &res)
	if res.Shard == primary {
		t.Fatalf("response came from the slow primary %d; hedge did not win", primary)
	}
	m := rt.Metrics()
	if m.HedgesFired.Load() != 1 || m.HedgesWon.Load() != 1 {
		t.Fatalf("hedges fired=%d won=%d, want 1/1", m.HedgesFired.Load(), m.HedgesWon.Load())
	}
}

func TestAllShardsUnreachableSheds503(t *testing.T) {
	rt, _ := newFakeFleet(t, 2, Config{
		HedgeDisabled: true,
		Retry:         RetryPolicy{Max: 1, Base: time.Millisecond, Cap: 2 * time.Millisecond},
	})
	setFault(t, func(int, string) error { return errors.New("down") })
	w := gatePost(t, rt.Handler(), "/v1/compile", compileBody("int main() { return 0; }"))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("code = %d, want 503", w.Code)
	}
	var e struct {
		Error        string `json:"error"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	json.Unmarshal(w.Body.Bytes(), &e)
	if e.Error == "" {
		t.Fatalf("no structured error: %s", w.Body)
	}
	if rt.Metrics().NoShardShed.Load() != 1 {
		t.Fatalf("no_shard_shed = %d", rt.Metrics().NoShardShed.Load())
	}
}

func TestGateMetricsEndpoint(t *testing.T) {
	rt, _ := newFakeFleet(t, 2, Config{HedgeDisabled: true})
	h := rt.Handler()
	gatePost(t, h, "/v1/compile", compileBody("int main() { return 9; }"))

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	var m MetricsDoc
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	if m.ShardTotal != 2 || m.ShardHealthy != 2 {
		t.Fatalf("shard counts: healthy=%d total=%d", m.ShardHealthy, m.ShardTotal)
	}
	if m.ForwardedTotal.Load() != 1 || len(m.Shards) != 2 {
		t.Fatalf("snapshot: %+v", m)
	}
	for _, s := range m.Shards {
		if s.Breaker != "closed" {
			t.Fatalf("shard breaker %q at rest", s.Breaker)
		}
	}
}

func TestGateHealthzDegraded(t *testing.T) {
	// The fault goes in before the fleet exists, so cleanup (last in,
	// first out) stops the probers before it clears the hook they read.
	setFault(t, func(shard int, op string) error {
		if shard == 0 {
			return errors.New("down")
		}
		return nil
	})
	// The probe timeout leaves the healthy shard room to answer under
	// the race detector on a loaded box; at 5 ms it was marked down too
	// and shard_healthy == 1 was never seen.
	rt, _ := newFakeFleet(t, 2, Config{
		HedgeDisabled: true,
		ProbeInterval: 100 * time.Millisecond,
		ProbeTimeout:  80 * time.Millisecond,
	})
	rt.Start()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, req)
		var h struct {
			Status  string `json:"status"`
			Healthy int    `json:"shard_healthy"`
		}
		json.Unmarshal(w.Body.Bytes(), &h)
		if h.Status == "degraded" && h.Healthy == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("gate never reported degraded with one shard down")
}

// TestProbeTimeoutValidation: a probe timeout at or above the probe
// interval would stack in-flight probes against a hung shard; New must
// refuse the config at startup rather than misbehave during an outage.
func TestProbeTimeoutValidation(t *testing.T) {
	bad := Config{
		Shards:        []string{"http://127.0.0.1:1"},
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  50 * time.Millisecond, // == interval: refused
	}
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "probe timeout") {
		t.Fatalf("New accepted probe timeout >= interval (err=%v)", err)
	}
	bad.ProbeTimeout = 80 * time.Millisecond // > interval: refused
	if _, err := New(bad); err == nil {
		t.Fatal("New accepted probe timeout above the probe interval")
	}
	// Unset timeout defaults to interval/2 and passes validation.
	bad.ProbeTimeout = 0
	rt, err := New(bad)
	if err != nil {
		t.Fatalf("defaulted probe timeout refused: %v", err)
	}
	rt.Close()
}
