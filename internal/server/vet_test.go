// HTTP tests for POST /v1/vet: the static-analysis endpoint must
// return structured findings with exact spans, reject programs with
// error findings via 422, serve warm results from the vet cache, and
// account for itself on /metrics.
package server_test

import (
	"net/http"
	"testing"

	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/vet"
)

const vetMismatchSrc = `
int main() {
	Matrix float <2> a = init(Matrix float <2>, 3, 4);
	Matrix float <2> b = init(Matrix float <2>, 5, 6);
	Matrix float <2> c = a * b;
	print(c);
	return 0;
}
`

func TestVetRejectsShapeMismatchWithStructuredFinding(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	req := map[string]any{"name": "mm.xc", "source": vetMismatchSrc}

	code, body := postJSON(t, ts.URL+"/v1/vet", req)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("vet of mismatched matmul: %d %v, want 422", code, body)
	}
	if body["ok"] != false || body["errors"] != float64(1) {
		t.Fatalf("response: ok=%v errors=%v", body["ok"], body["errors"])
	}
	findings, ok := body["findings"].([]any)
	if !ok || len(findings) != 1 {
		t.Fatalf("findings: %v", body["findings"])
	}
	f := findings[0].(map[string]any)
	if f["code"] != vet.CodeShapeMismatch || f["severity"] != "error" {
		t.Fatalf("finding: code=%v severity=%v", f["code"], f["severity"])
	}
	span := f["span"].(map[string]any)
	start := span["start"].(map[string]any)
	// The `a * b` expression sits on line 5 column 23 of the request
	// source; clients rely on these spans to mark the editor buffer.
	if span["file"] != "mm.xc" || start["line"] != float64(5) {
		t.Fatalf("finding span: %v", span)
	}

	// Same program again: served from the vet cache, same verdict.
	code, warm := postJSON(t, ts.URL+"/v1/vet", req)
	if code != http.StatusUnprocessableEntity || warm["cached"] != true {
		t.Fatalf("warm vet: %d cached=%v", code, warm["cached"])
	}
	if warm["key"] != body["key"] {
		t.Fatal("warm vet returned a different content address")
	}

	var m struct {
		server.MetricsDoc
		Driver struct {
			driver.MetricsDoc
			VetLatency  obs.HistogramSnapshot `json:"vet_latency"`
			VetAnalysis obs.HistogramSnapshot `json:"vet_analysis_latency"`
		} `json:"driver"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if m.VetRequests.Load() != 2 || m.ClientErrors.Load() != 2 {
		t.Fatalf("vet_requests=%d client_errors=%d, want 2 and 2", m.VetRequests.Load(), m.ClientErrors.Load())
	}
	if m.Driver.VetRuns.Load() != 2 || m.Driver.VetHits.Load() != 1 || m.Driver.VetMisses.Load() != 1 {
		t.Fatalf("driver vet metrics: runs=%d hits=%d misses=%d",
			m.Driver.VetRuns.Load(), m.Driver.VetHits.Load(), m.Driver.VetMisses.Load())
	}
	if m.Driver.VetFindings.Load() != 1 {
		t.Fatalf("vet_findings_total = %d, want 1", m.Driver.VetFindings.Load())
	}
	if m.Driver.VetLatency.Count != 2 || m.Driver.VetAnalysis.Count != 1 {
		t.Fatalf("vet latency counts: whole=%d analysis=%d",
			m.Driver.VetLatency.Count, m.Driver.VetAnalysis.Count)
	}
}

func TestVetCleanProgramIsOK(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	code, body := postJSON(t, ts.URL+"/v1/vet", map[string]any{"source": okSrc})
	if code != http.StatusOK {
		t.Fatalf("vet of clean program: %d %v", code, body)
	}
	if body["ok"] != true || body["errors"] != float64(0) {
		t.Fatalf("response: ok=%v errors=%v", body["ok"], body["errors"])
	}
	if findings, ok := body["findings"].([]any); !ok || len(findings) != 0 {
		t.Fatalf("findings must be a present empty array, got %v", body["findings"])
	}
}

func TestVetWarningsDoNotReject(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	src := `
int main() {
	int dead = 3;
	return 0;
}
`
	code, body := postJSON(t, ts.URL+"/v1/vet", map[string]any{"source": src})
	if code != http.StatusOK {
		t.Fatalf("warnings-only program: %d %v, want 200", code, body)
	}
	findings := body["findings"].([]any)
	if len(findings) != 1 {
		t.Fatalf("findings: %v", findings)
	}
	f := findings[0].(map[string]any)
	if f["code"] != vet.CodeUnusedVar || f["severity"] != "warning" {
		t.Fatalf("finding: %v", f)
	}
}

func TestVetValidation(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})

	if code, body := postJSON(t, ts.URL+"/v1/vet", map[string]any{}); code != http.StatusBadRequest {
		t.Fatalf("missing source: %d %v", code, body)
	}
	if code, body := postJSON(t, ts.URL+"/v1/vet", map[string]any{
		"source": okSrc, "extensions": "bogus",
	}); code != http.StatusBadRequest {
		t.Fatalf("bad extensions: %d %v", code, body)
	}
	resp, err := http.Get(ts.URL + "/v1/vet")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/vet: %d, want 405", resp.StatusCode)
	}

	// Frontend failures surface the parse/check diagnostics.
	code, body := postJSON(t, ts.URL+"/v1/vet", map[string]any{"source": "int main() { return 0 0; }"})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("unparsable program: %d %v, want 422", code, body)
	}
	if diags, ok := body["diagnostics"].([]any); !ok || len(diags) == 0 {
		t.Fatalf("diagnostics: %v", body["diagnostics"])
	}
}
