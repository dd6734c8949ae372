// Fleet chaos harness: three REAL cmserved instances (full driver,
// admission control, disk cache) behind a Router, with faults injected
// through the TestHookShardFault seam — kill (every call errors),
// hang (calls stall past the probe deadline, then error), slow (calls
// delay, then proceed), and restart (a fresh server+driver over the
// same durable cache directory, i.e. a process restart).
//
// The headline invariants, asserted under flood:
//   - no lost runs: every request the gate accepts gets a real answer;
//   - no duplicate compiles: fleet-wide CompileExecutions stays at the
//     number of distinct programs, modulo declared hedge overlap, even
//     across a kill and restart — routing affinity, peer cache-fill
//     and successor replication close every recompile hole;
//   - convergence: after recovery every artifact is servable and the
//     restarted shard answers from its disk tier.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/server"
)

// chaos shard fault modes.
const (
	modeOK   = "ok"
	modeDown = "down"
	modeHang = "hang"
	modeSlow = "slow"
)

// chaosShard is one real cmserved instance with a swappable core: a
// "restart" builds a fresh server and driver over the same cache
// directory, exactly what a daemon restart does to its state.
type chaosShard struct {
	idx     int
	dir     string       // durable artifact cache, survives restarts
	mode    atomic.Value // modeOK/modeDown/modeHang/modeSlow
	handler atomic.Value // http.Handler of the current incarnation
	ts      *httptest.Server
	srvOpts []func(*server.Config) // per-incarnation config hooks (tenancy)

	mu      sync.Mutex
	drivers []*driver.Driver // every incarnation's driver, for metric sums
}

func (c *chaosShard) boot(t *testing.T) {
	t.Helper()
	d := driver.NewWith(driver.Config{CacheDir: c.dir})
	cfg := server.Config{
		Driver:            d,
		MaxConcurrentRuns: 8,
		RunQueueSize:      64,
		DefaultTimeout:    5 * time.Second,
		ShardID:           fmt.Sprintf("s%d", c.idx),
	}
	for _, opt := range c.srvOpts {
		opt(&cfg)
	}
	s := server.New(cfg)
	c.handler.Store(s.Handler())
	c.mu.Lock()
	c.drivers = append(c.drivers, d)
	c.mu.Unlock()
}

// compileExecutions sums real compile-pipeline runs across every
// incarnation this shard ever had.
func (c *chaosShard) compileExecutions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, d := range c.drivers {
		n += d.Metrics().CompileExecutions.Load()
	}
	return n
}

// chaosFleet is the whole test rig: shards, router, gate listener.
type chaosFleet struct {
	shards []*chaosShard
	rt     *Router
	gate   *httptest.Server
}

func newChaosFleet(t *testing.T, n int, cfg Config, srvOpts ...func(*server.Config)) *chaosFleet {
	t.Helper()
	// Registered FIRST so it runs LAST (cleanups are LIFO): after the
	// gate, router, and every shard have shut down, the goroutine count
	// must settle back near the baseline. A leaked prober, hedge
	// reaper, or replication goroutine fails the suite here rather
	// than accumulating silently across chaos runs.
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= base+8 {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutines: %d at fleet start, %d after teardown", base, runtime.NumGoroutine())
	})
	f := &chaosFleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		c := &chaosShard{idx: i, dir: t.TempDir(), srvOpts: srvOpts}
		c.mode.Store(modeOK)
		c.boot(t)
		c.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			c.handler.Load().(http.Handler).ServeHTTP(w, r)
		}))
		t.Cleanup(c.ts.Close)
		f.shards = append(f.shards, c)
		urls[i] = c.ts.URL
	}
	TestHookShardFault = func(shard int, op string) error {
		switch f.shards[shard].mode.Load() {
		case modeDown:
			return errors.New("injected: connection refused")
		case modeHang:
			time.Sleep(60 * time.Millisecond)
			return errors.New("injected: i/o timeout")
		case modeSlow:
			time.Sleep(120 * time.Millisecond)
		}
		return nil
	}
	t.Cleanup(func() { TestHookShardFault = nil })

	cfg.Shards = urls
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	rt.Start()
	f.gate = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		f.gate.Close()
		rt.Close()
	})
	return f
}

func (f *chaosFleet) compileExecutions() int64 {
	var n int64
	for _, c := range f.shards {
		n += c.compileExecutions()
	}
	return n
}

// post sends one JSON request through the gate and returns status and
// decoded body.
func (f *chaosFleet) post(t *testing.T, path string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(f.gate.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decoding: %v", path, err)
	}
	return resp.StatusCode, out
}

func (f *chaosFleet) gateMetrics(t *testing.T) MetricsDoc {
	t.Helper()
	resp, err := http.Get(f.gate.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// routeKeyFor is the ring placement key of a request body.
func routeKeyFor(body []byte) string {
	key, _ := server.KeysForBody(body, false)
	return key
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// chaosProgram returns the i-th distinct source; each compiles to a
// distinct artifact.
func chaosProgram(i int) string {
	return fmt.Sprintf("int main() {\n\tint x = %d;\n\treturn x;\n}\n", i)
}

func chaosBody(t *testing.T, fields map[string]any) string {
	t.Helper()
	b, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func chaosRouterConfig() Config {
	return Config{
		ProbeInterval:    25 * time.Millisecond,
		ProbeTimeout:     20 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
		Retry:            RetryPolicy{Max: 4, Base: 5 * time.Millisecond, Cap: 100 * time.Millisecond},
		HedgeAfterMin:    150 * time.Millisecond,
		HedgeAfterMax:    400 * time.Millisecond,
	}
}

// TestChaosKillRestartNoLostRunsNoDuplicateCompiles is the headline:
// a three-shard fleet under concurrent flood, one shard killed
// mid-flood and restarted with a fresh process over its durable cache.
// Every request must be answered, and the fleet as a whole must not
// recompile anything it already compiled (beyond declared hedges).
func TestChaosKillRestartNoLostRunsNoDuplicateCompiles(t *testing.T) {
	f := newChaosFleet(t, 3, chaosRouterConfig())
	const programs = 9

	// Phase A — warm: compile every distinct program through the gate.
	keys := make([]string, programs)
	for i := 0; i < programs; i++ {
		body := chaosBody(t, map[string]any{"source": chaosProgram(i)})
		code, res := f.post(t, "/v1/compile", body)
		if code != http.StatusOK {
			t.Fatalf("warm compile %d: %d %v", i, code, res)
		}
		_, key := server.KeysForBody([]byte(body), true)
		if key == "" {
			t.Fatalf("no compile key for program %d", i)
		}
		keys[i] = key
	}
	// Cold compiles pay one-time grammar composition and can outlast
	// the hedge delay, so the warm phase itself may hedge — that
	// overlap is declared in the metrics and allowed for here.
	warmHedges := f.gateMetrics(t).HedgesFired.Load()
	warmCompiles := f.compileExecutions()
	if warmCompiles > programs+warmHedges {
		t.Fatalf("fleet executed %d compiles for %d distinct programs (+%d hedges)",
			warmCompiles, programs, warmHedges)
	}
	// Replication makes the kill survivable: wait until every artifact
	// also lives on its ring successor.
	waitFor(t, 5*time.Second, "successor replication", func() bool {
		return f.gateMetrics(t).PeerReplicas.Load() >= programs
	})
	hedgesBefore := f.gateMetrics(t).HedgesFired.Load()

	// Phase B — flood, kill, restart. Workers hammer compile and run
	// for the same programs while shard 0 dies and comes back.
	var lost atomic.Int64
	var firstLoss atomic.Value
	var wg sync.WaitGroup
	stopFlood := make(chan struct{})
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopFlood:
					return
				default:
				}
				p := (w + i) % programs
				var path, body string
				if i%2 == 0 {
					path = "/v1/compile"
					body = chaosBody(t, map[string]any{"source": chaosProgram(p)})
				} else {
					path = "/v1/run"
					body = chaosBody(t, map[string]any{"source": chaosProgram(p), "threads": 1})
				}
				resp, err := http.Post(f.gate.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					lost.Add(1)
					firstLoss.CompareAndSwap(nil, fmt.Sprintf("worker %d: %v", w, err))
					continue
				}
				payload, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					lost.Add(1)
					firstLoss.CompareAndSwap(nil, fmt.Sprintf("worker %d: %s -> %d %s", w, path, resp.StatusCode, payload))
				}
			}
		}(w)
	}

	time.Sleep(150 * time.Millisecond)
	f.shards[0].mode.Store(modeDown) // kill
	time.Sleep(300 * time.Millisecond)
	f.shards[0].boot(t) // restart: fresh process, same disk
	f.shards[0].mode.Store(modeOK)
	time.Sleep(400 * time.Millisecond)
	close(stopFlood)
	wg.Wait()

	if lost.Load() != 0 {
		t.Fatalf("%d lost runs under kill/restart; first: %v", lost.Load(), firstLoss.Load())
	}
	hedges := f.gateMetrics(t).HedgesFired.Load() - hedgesBefore
	if got := f.compileExecutions(); got > warmCompiles+hedges {
		t.Fatalf("duplicate compiles: %d executions after flood, %d at warm (+%d flood hedges)",
			got, warmCompiles, hedges)
	}

	// Convergence: the breaker closes again, every artifact is
	// servable through the gate, and the restarted shard itself holds
	// its keys on disk.
	waitFor(t, 3*time.Second, "shard 0 breaker to close", func() bool {
		return f.rt.ShardBreaker(0) == BreakerClosed
	})
	for i, key := range keys {
		resp, err := http.Get(f.gate.URL + "/v1/artifact/" + key)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("artifact %d unreachable after recovery: %d", i, resp.StatusCode)
		}
	}
	restarted := f.shards[0].drivers[len(f.shards[0].drivers)-1]
	before := restarted.Metrics().CompileExecutions.Load()
	for i := 0; i < programs; i++ {
		code, _ := f.post(t, "/v1/compile", chaosBody(t, map[string]any{"source": chaosProgram(i)}))
		if code != http.StatusOK {
			t.Fatalf("post-recovery compile %d: %d", i, code)
		}
	}
	if after := restarted.Metrics().CompileExecutions.Load(); after != before {
		t.Fatalf("restarted shard recompiled %d artifacts its disk tier already had", after-before)
	}
}

// TestChaosHungShardBreakerOpensAndRecovers: a hung shard (probes and
// requests stall past their deadlines) must trip its breaker within a
// few probe intervals, traffic must keep flowing via the ring, and
// when the shard unhangs the half-open trial must close the breaker
// with no operator involved.
func TestChaosHungShardBreakerOpensAndRecovers(t *testing.T) {
	f := newChaosFleet(t, 3, chaosRouterConfig())

	f.shards[1].mode.Store(modeHang)
	// threshold 2, probe interval 25ms, hang 60ms: the breaker must
	// open within a few probe cycles.
	waitFor(t, 2*time.Second, "breaker to open on the hung shard", func() bool {
		return f.rt.ShardBreaker(1) == BreakerOpen
	})
	if f.gateMetrics(t).BreakerOpens.Load() == 0 {
		t.Fatal("breaker_open_total still zero")
	}

	// The fleet still answers everything while shard 1 hangs.
	for i := 0; i < 12; i++ {
		code, res := f.post(t, "/v1/compile", chaosBody(t, map[string]any{"source": chaosProgram(100 + i)}))
		if code != http.StatusOK {
			t.Fatalf("compile %d during hang: %d %v", i, code, res)
		}
	}

	f.shards[1].mode.Store(modeOK)
	waitFor(t, 3*time.Second, "breaker to close after recovery", func() bool {
		return f.rt.ShardBreaker(1) == BreakerClosed
	})
	if f.gateMetrics(t).ShardHealthy != 3 {
		waitFor(t, 2*time.Second, "all shards healthy", func() bool {
			return f.gateMetrics(t).ShardHealthy == 3
		})
	}
}

// TestChaosSlowShardHedgeWins: a shard that responds — slowly — never
// trips the breaker, so hedging is what saves its keys' tail latency:
// the duplicate fired after the hedge delay is answered by the next
// ring shard first.
func TestChaosSlowShardHedgeWins(t *testing.T) {
	cfg := chaosRouterConfig()
	cfg.HedgeAfterMin = 30 * time.Millisecond
	cfg.HedgeAfterMax = 60 * time.Millisecond
	f := newChaosFleet(t, 3, cfg)

	body := chaosBody(t, map[string]any{"source": chaosProgram(7777)})
	primary := f.rt.Primary(routeKeyFor([]byte(body)))
	f.shards[primary].mode.Store(modeSlow) // +120ms per call, then proceeds

	resp, err := http.Post(f.gate.URL+"/v1/compile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged compile: %d %s", resp.StatusCode, payload)
	}
	if served := resp.Header.Get("X-CM-Routed"); served == fmt.Sprint(primary) {
		t.Fatalf("slow primary %d served the request; hedge should have won", primary)
	}
	m := f.gateMetrics(t)
	if m.HedgesFired.Load() == 0 || m.HedgesWon.Load() == 0 {
		t.Fatalf("hedges fired=%d won=%d, want both > 0", m.HedgesFired.Load(), m.HedgesWon.Load())
	}
	// The slow shard answered eventually (reaped off-path); its breaker
	// must still be closed — slowness is not death.
	waitFor(t, 2*time.Second, "slow shard breaker to stay closed", func() bool {
		return f.rt.ShardBreaker(primary) == BreakerClosed
	})
}

// TestChaosClientDisconnectDoesNotPinFleet: a client that gives up
// while its request is stuck behind a down fleet must not keep the
// gate retrying on its behalf.
func TestChaosClientDisconnectDoesNotPinFleet(t *testing.T) {
	cfg := chaosRouterConfig()
	cfg.Retry = RetryPolicy{Max: 50, Base: 50 * time.Millisecond, Cap: time.Second}
	f := newChaosFleet(t, 3, cfg)
	for _, c := range f.shards {
		c.mode.Store(modeDown)
	}

	client := &http.Client{Timeout: 150 * time.Millisecond}
	body := chaosBody(t, map[string]any{"source": chaosProgram(1)})
	_, err := client.Post(f.gate.URL+"/v1/compile", "application/json", strings.NewReader(body))
	if err == nil {
		t.Fatal("expected the client's own timeout")
	}
	waitFor(t, 2*time.Second, "gate to drop the abandoned forward", func() bool {
		m := f.gateMetrics(t)
		return m.ClientGoneTotal.Load() > 0 && m.InflightGauge.Load() == 0
	})
}
