// End-to-end HTTP tests: the full compile service over httptest —
// cache hits reflected in /metrics, run timeouts honored via context
// cancellation, malformed source rejected with diagnostics, and
// concurrent identical requests coalesced into one compilation.
package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/server"
)

const okSrc = `
int main() {
	Matrix float <2> m;
	m = with ([0, 0] <= [i, j] < [8, 8]) genarray([8, 8], 1.0 * i + j);
	float s = with ([0] <= [k] < [8]) fold(+, 0.0, m[k, k]);
	print(s);
	return 0;
}
`

const spinSrc = `
int main() {
	int i = 0;
	while (i < 2000000000)
		i = i + 1;
	return 0;
}
`

func newTestServer(t *testing.T, cfg server.Config) (*httptest.Server, *driver.Driver) {
	t.Helper()
	if cfg.Driver == nil {
		cfg.Driver = driver.New()
	}
	ts := httptest.NewServer(server.New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts, cfg.Driver
}

func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestCompileMissThenHitReflectedInMetrics(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	req := map[string]any{"source": okSrc, "par": "none"}

	code, first := postJSON(t, ts.URL+"/v1/compile", req)
	if code != http.StatusOK {
		t.Fatalf("first compile: %d %v", code, first)
	}
	if first["cached"] != false || !strings.Contains(first["output"].(string), "u_main") {
		t.Fatalf("first compile response: %v", first["cached"])
	}

	code, second := postJSON(t, ts.URL+"/v1/compile", req)
	if code != http.StatusOK || second["cached"] != true {
		t.Fatalf("second compile: %d cached=%v", code, second["cached"])
	}
	if second["output"] != first["output"] || second["key"] != first["key"] {
		t.Fatal("cached artifact differs")
	}

	// The document type decodes its own JSON; the histograms (which only
	// marshal) are read through their snapshot shape laid over it.
	var m struct {
		server.MetricsDoc
		Driver struct {
			driver.MetricsDoc
			ParseLatency   obs.HistogramSnapshot `json:"parse_latency"`
			EmitLatency    obs.HistogramSnapshot `json:"emit_latency"`
			CompileLatency obs.HistogramSnapshot `json:"compile_latency"`
		} `json:"driver"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if m.CompileRequests.Load() != 2 || m.Driver.CompileHits.Load() != 1 || m.Driver.CompileMisses.Load() != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	// The warm request skipped every pipeline stage: stage histograms
	// saw exactly one parse/check/emit, while the whole-compile
	// histogram saw both requests.
	if m.Driver.ParseLatency.Count != 1 || m.Driver.EmitLatency.Count != 1 ||
		m.Driver.CompileLatency.Count != 2 {
		t.Fatalf("stage counts: parse=%d emit=%d compile=%d",
			m.Driver.ParseLatency.Count, m.Driver.EmitLatency.Count, m.Driver.CompileLatency.Count)
	}
}

func TestConcurrentIdenticalRequestsCompileOnce(t *testing.T) {
	ts, d := newTestServer(t, server.Config{})
	const n = 12
	raw, _ := json.Marshal(map[string]any{"source": okSrc})
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := d.MetricsSnapshot()
	if m.CompileExecutions.Load() != 1 {
		t.Fatalf("pipeline executed %d times for %d identical concurrent requests", m.CompileExecutions.Load(), n)
	}
	if m.CompileMisses.Load() != 1 || m.CompileHits.Load()+m.CompileCoalesced.Load() != n-1 {
		t.Fatalf("cache accounting: %+v", m)
	}
}

func TestRunTimeoutKeepsServerHealthy(t *testing.T) {
	ts, d := newTestServer(t, server.Config{DefaultTimeout: 30 * time.Second})
	start := time.Now()
	code, body := postJSON(t, ts.URL+"/v1/run",
		map[string]any{"source": spinSrc, "timeout_ms": 150})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("runaway run: status %d body %v", code, body)
	}
	if !strings.Contains(body["error"].(string), "timed out") {
		t.Fatalf("error = %v", body["error"])
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout response took %s", elapsed)
	}

	// The server stays healthy and can still run programs.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after timeout: %v %v", err, resp)
	}
	resp.Body.Close()
	code, ok := postJSON(t, ts.URL+"/v1/run", map[string]any{"source": okSrc, "threads": 2})
	if code != http.StatusOK || ok["exit_code"] != float64(0) {
		t.Fatalf("run after timeout: %d %v", code, ok)
	}
	if got := strings.TrimSpace(ok["stdout"].(string)); got != "56" {
		t.Fatalf("stdout = %q, want 56", got)
	}
	if m := d.MetricsSnapshot(); m.RunsCancelled.Load() != 1 {
		t.Fatalf("RunsCancelled = %d", m.RunsCancelled.Load())
	}
}

func TestMalformedSourceIs4xxWithDiagnostics(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	// A scan-level parse error: the context-aware scanner reports the
	// position and offending text.
	code, body := postJSON(t, ts.URL+"/v1/compile",
		map[string]any{"name": "oops.xc", "source": "int main() { return 0 0; }"})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("parse error: status %d", code)
	}
	diags, _ := body["diagnostics"].([]any)
	if len(diags) == 0 || !strings.Contains(diags[0].(string), "oops.xc:1:") {
		t.Fatalf("diagnostics = %v", body["diagnostics"])
	}

	// A semantic error carries the checker's diagnostics.
	code, body = postJSON(t, ts.URL+"/v1/compile",
		map[string]any{"source": "int main() { return zzz; }"})
	if code != http.StatusUnprocessableEntity || !strings.Contains(fmt.Sprint(body["diagnostics"]), "undeclared") {
		t.Fatalf("semantic error: %d %v", code, body)
	}

	// Unparseable JSON is a plain 400.
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", resp.StatusCode)
	}

	// The run endpoint rejects bad source the same way.
	code, _ = postJSON(t, ts.URL+"/v1/run", map[string]any{"source": "int main() { return zzz; }"})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("run of bad source: status %d", code)
	}
}

func TestAnalysesEndpointMatchesDriverReport(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	var rep driver.AnalysisReport
	if code := getJSON(t, ts.URL+"/v1/analyses", &rep); code != http.StatusOK {
		t.Fatalf("/v1/analyses: %d", code)
	}
	if rep.Unexpected != 0 || !rep.CompositionOK || !rep.SemCompositionOK {
		t.Fatalf("served report: %+v", rep)
	}
	if len(rep.MDA) != 6 || len(rep.MWDA) != 3 {
		t.Fatalf("served report shape: %d MDA, %d MWDA", len(rep.MDA), len(rep.MWDA))
	}
	want := driver.Analyses()
	got, _ := json.Marshal(rep)
	exp, _ := json.Marshal(want)
	if !bytes.Equal(got, exp) {
		t.Fatal("served analyses differ from driver.Analyses()")
	}
}

func TestMethodAndValidationErrors(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	resp, err := http.Get(ts.URL + "/v1/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/compile: %d", resp.StatusCode)
	}
	code, body := postJSON(t, ts.URL+"/v1/compile", map[string]any{"source": okSrc, "extensions": "bogus"})
	if code != http.StatusBadRequest || !strings.Contains(body["error"].(string), "unknown extension") {
		t.Fatalf("bad extensions: %d %v", code, body)
	}
	code, _ = postJSON(t, ts.URL+"/v1/compile", map[string]any{"source": okSrc, "par": "bogus"})
	if code != http.StatusBadRequest {
		t.Fatalf("bad par: %d", code)
	}
	code, _ = postJSON(t, ts.URL+"/v1/compile", map[string]any{"par": "none"})
	if code != http.StatusBadRequest {
		t.Fatalf("missing source: %d", code)
	}
	// The service runs one engine: the request has no field to pick another.
	code, body = postJSON(t, ts.URL+"/v1/run", map[string]any{"source": okSrc, "engine": "tree"})
	if code != http.StatusBadRequest || !strings.Contains(body["error"].(string), "engine") {
		t.Fatalf("engine in a run request: %d %v", code, body)
	}
}
