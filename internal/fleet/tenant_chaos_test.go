// Noisy-neighbor chaos: one tenant floods the gate at well over 10×
// its configured rate limit while a well-behaved tenant keeps its
// steady cadence. The isolation contract, asserted under race:
//
//   - the flood is stopped at the front door: the noisy tenant
//     receives structured 429s naming itself, with a non-zero
//     per-tenant retry_after_ms, before any shard sees the excess;
//   - the quiet tenant suffers ZERO quota-induced sheds, gate or
//     shard side, and its tail latency stays within 2× its solo
//     baseline (plus a small absolute floor for CI timer noise);
//   - breakers are a transport-health mechanism and tenant 429s are
//     not transport failures: no breaker opens during the flood.
package fleet

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/tenant"
)

const chaosKeys = `{
  "tenants": [
    {"name": "noisy", "keys": ["k-noisy"], "rate_per_sec": 100, "burst": 10,
     "max_concurrent_runs": 2, "queue_share": 4},
    {"name": "quiet", "keys": ["k-quiet"]}
  ]
}`

// tenantPost sends one keyed run request through the gate.
func (f *chaosFleet) tenantPost(t *testing.T, key, body string) (int, map[string]any, time.Duration) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, f.gate.URL+"/v1/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+key)
	t0 := time.Now()
	resp, err := http.DefaultClient.Do(req)
	el := time.Since(t0)
	if err != nil {
		t.Fatalf("tenant POST: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("tenant POST: decoding: %v", err)
	}
	return resp.StatusCode, out, el
}

// quietCadence sends n sequential quiet-tenant runs and returns the
// observed latencies.
func (f *chaosFleet) quietCadence(t *testing.T, n int, body string) []time.Duration {
	t.Helper()
	lats := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		code, res, el := f.tenantPost(t, "k-quiet", body)
		if code != http.StatusOK {
			t.Fatalf("quiet run %d: %d %v — the well-behaved tenant must never be refused", i, code, res)
		}
		lats = append(lats, el)
		time.Sleep(10 * time.Millisecond)
	}
	return lats
}

func p99(lats []time.Duration) time.Duration {
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)*99/100]
}

func TestChaosNoisyNeighborIsolation(t *testing.T) {
	reg, err := tenant.NewRegistry([]byte(chaosKeys))
	if err != nil {
		t.Fatal(err)
	}
	shardReg, err := tenant.NewRegistry([]byte(chaosKeys))
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosRouterConfig()
	// The flood saturates CPU under the race detector; the aggressive
	// 20ms probe deadline the fault-injection tests want would read
	// scheduler stalls as shard death. Tenancy, not probe sensitivity,
	// is under test here — so probe on a human timescale.
	cfg.ProbeInterval = 100 * time.Millisecond
	cfg.ProbeTimeout = 80 * time.Millisecond
	cfg.Tenants = reg
	f := newChaosFleet(t, 3, cfg, func(sc *server.Config) {
		// Shards trust the gate's identity stamp and partition their
		// admission rings by it — the second enforcement layer behind
		// the gate's token buckets.
		sc.Tenants = shardReg
		sc.TrustGateHeader = true
	})
	body := chaosBody(t, map[string]any{"source": "int main() {\n\treturn 0;\n}\n"})

	// Warm the fleet: the first request pays one-time grammar
	// composition; measuring it into the solo baseline would inflate
	// the 2× isolation bound into meaninglessness.
	if code, res, _ := f.tenantPost(t, "k-quiet", body); code != http.StatusOK {
		t.Fatalf("warm-up run: %d %v", code, res)
	}

	// Phase 1 — solo baseline: the quiet tenant alone on the fleet.
	solo := p99(f.quietCadence(t, 40, body))

	// Phase 2 — flood: four noisy workers, each pacing ~500 req/s, for
	// ~2000/s against a 100/s limit — 20× over — so the overwhelming
	// majority must come back as structured per-tenant 429s.
	var (
		wg           sync.WaitGroup
		noisyOK      atomic.Int64
		noisySheds   atomic.Int64
		badShedBody  atomic.Int64
		floodingDone = time.Now().Add(1500 * time.Millisecond)
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(floodingDone) {
				code, res, _ := f.tenantPost(t, "k-noisy", body)
				switch code {
				case http.StatusOK:
					noisyOK.Add(1)
				case http.StatusTooManyRequests:
					noisySheds.Add(1)
					retry, _ := res["retry_after_ms"].(float64)
					if res["tenant"] != "noisy" || retry <= 0 {
						badShedBody.Add(1)
					}
				default:
					t.Errorf("noisy request: unexpected status %d %v", code, res)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	// The quiet tenant keeps its cadence through the flood.
	flooded := p99(f.quietCadence(t, 40, body))
	wg.Wait()

	if noisySheds.Load() == 0 {
		t.Fatal("a 10×-rate flood produced zero 429s — the rate limit did not bite")
	}
	if badShedBody.Load() > 0 {
		t.Fatalf("%d noisy 429s lacked tenant=%q or a positive retry_after_ms", badShedBody.Load(), "noisy")
	}
	if noisyOK.Load() == 0 {
		t.Fatal("the noisy tenant was starved outright — rate limiting must throttle, not blackhole")
	}

	// Tail-latency isolation: the quiet tenant's p99 under flood stays
	// within 2× its solo baseline plus a small absolute floor (CI
	// schedulers make sub-millisecond baselines noisy).
	if limit := 2*solo + 150*time.Millisecond; flooded > limit {
		t.Fatalf("quiet p99 under flood = %s, solo = %s — noisy neighbor leaked through (limit %s)",
			flooded, solo, limit)
	}
	t.Logf("quiet p99: solo %s, under flood %s; noisy: %d ok, %d shed",
		solo, flooded, noisyOK.Load(), noisySheds.Load())

	// The quiet tenant must show zero quota sheds everywhere: on the
	// gate's ledger and on every shard's admission rings.
	gm := f.gateMetrics(t)
	for _, row := range gm.Tenants {
		if row.Tenant == "quiet" && row.RateLimited != 0 {
			t.Fatalf("gate rate-limited the quiet tenant %d times", row.RateLimited)
		}
		if row.Tenant == "noisy" && row.RateLimited == 0 {
			t.Fatal("gate ledger shows no noisy rate-limiting despite 429s")
		}
	}
	for _, c := range f.shards {
		var m struct {
			Tenants []server.TenantAdmissionRow `json:"tenants"`
		}
		resp, err := http.Get(c.ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range m.Tenants {
			if row.Tenant == "quiet" && (row.QuotaSheds != 0 || row.Sheds != 0) {
				t.Fatalf("shard %d shed the quiet tenant: %+v", c.idx, row)
			}
		}
	}

	// Tenant 429s are not transport failures: no breaker may have
	// opened, and every shard must still be closed and healthy.
	if gm.BreakerOpens.Load() != 0 {
		t.Fatalf("%d breaker opens during a pure-overload flood", gm.BreakerOpens.Load())
	}
	for i := range f.shards {
		if st := f.rt.ShardBreaker(i); st != BreakerClosed {
			t.Fatalf("shard %d breaker %v after flood, want closed", i, st)
		}
	}
}

// TestChaosTenantKeyRotationLive: a SIGHUP-style registry reload swaps
// a tenant's key on the running gate; requests on the old key start
// failing 401, the new key works immediately, and the generation
// counter on /metrics records the reload.
func TestChaosTenantKeyRotationLive(t *testing.T) {
	keyPath := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(keyPath, []byte(chaosKeys), 0o600); err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.LoadFile(keyPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosRouterConfig()
	cfg.Tenants = reg
	f := newChaosFleet(t, 2, cfg)
	body := chaosBody(t, map[string]any{"source": "int main() {\n\treturn 7;\n}\n"})

	if code, res, _ := f.tenantPost(t, "k-quiet", body); code != http.StatusOK {
		t.Fatalf("pre-rotation run: %d %v", code, res)
	}
	rotated := strings.ReplaceAll(chaosKeys, "k-quiet", "k-quiet-2")
	if err := os.WriteFile(keyPath, []byte(rotated), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err != nil { // what the daemons do on SIGHUP
		t.Fatal(err)
	}
	if code, _, _ := f.tenantPost(t, "k-quiet", body); code != http.StatusUnauthorized {
		t.Fatalf("rotated-out key: %d, want 401", code)
	}
	if code, res, _ := f.tenantPost(t, "k-quiet-2", body); code != http.StatusOK {
		t.Fatalf("rotated-in key: %d %v", code, res)
	}
	if gen := f.gateMetrics(t).TenantGeneration; gen != 2 {
		t.Fatalf("tenant generation = %d after one reload, want 2", gen)
	}
}
