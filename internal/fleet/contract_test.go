// The service contract, pinned: which keys the three metrics documents
// carry (cmserved /metrics, cmgate /metrics, Driver.MetricsSnapshot),
// with which JSON kind, and that gate-written and shard-written
// refusals are one wire body.
package fleet

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/server"
	"repro/internal/tenant"
)

var updateMetricsKeys = flag.Bool("update-metrics-keys", false,
	"rewrite testdata/metrics_keys_golden.txt (only when a /metrics key change is intended)")

const contractKeys = `{"tenants": [
  {"name": "acme", "keys": ["k-acme"], "rate_per_sec": 1000, "burst": 1000},
  {"name": "drip", "keys": ["k-drip"], "rate_per_sec": 0.001, "burst": 1}]}`

// contractFleet is one keyed gate over one gate-trusting shard; the
// shard's listener is also reachable directly, as a keyed cmserved.
type contractFleet struct {
	d           *driver.Driver
	shard, gate *httptest.Server
}

func newContractFleet(t *testing.T) *contractFleet {
	t.Helper()
	gateReg, err := tenant.NewRegistry([]byte(contractKeys))
	if err != nil {
		t.Fatal(err)
	}
	shardReg, err := tenant.NewRegistry([]byte(contractKeys))
	if err != nil {
		t.Fatal(err)
	}
	f := &contractFleet{d: driver.New()}
	f.shard = httptest.NewServer(server.New(server.Config{
		Driver: f.d, Tenants: shardReg, TrustGateHeader: true,
	}).Handler())
	t.Cleanup(f.shard.Close)
	rt, err := New(Config{Shards: []string{f.shard.URL}, Tenants: gateReg, ProbeInterval: time.Hour, ProbeTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	f.gate = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		f.gate.Close()
		rt.Close()
	})
	return f
}

// do issues one request and returns the status, the response header
// and the raw body.
func (f *contractFleet) do(t *testing.T, method, url, key, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// flattenKeys lists every node of a decoded JSON document as
// "path kind"; array elements share the path "[]", so the list does
// not depend on how many rows or buckets a run produced.
func flattenKeys(path string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		out[path+" object"] = true
		for k, e := range x {
			flattenKeys(path+"."+k, e, out)
		}
	case []any:
		out[path+" array"] = true
		for _, e := range x {
			flattenKeys(path+"[]", e, out)
		}
	case float64:
		out[path+" number"] = true
	case string:
		out[path+" string"] = true
	case bool:
		out[path+" bool"] = true
	default:
		out[path+" null"] = true
	}
}

func TestMetricsDocumentKeys(t *testing.T) {
	f := newContractFleet(t)
	const src = `int main() { Matrix float <1> v = with ([0] <= [i] < [8]) genarray([8], 1.0); print(dimSize(v, 0)); return 0; }`
	post := func(path, body string, want int) {
		t.Helper()
		if code, _, raw := f.do(t, http.MethodPost, f.gate.URL+path, "k-acme", body); code != want {
			t.Fatalf("POST %s: %d, want %d: %s", path, code, want, raw)
		}
	}
	// One of everything that fills an optional key: each stage
	// histogram, a trap, a tenant row on either side, a gate refusal.
	post("/v1/compile", fmt.Sprintf(`{"source": %q}`, src), http.StatusOK)
	post("/v1/run", fmt.Sprintf(`{"source": %q}`, src), http.StatusOK)
	post("/v1/vet", fmt.Sprintf(`{"source": %q}`, src), http.StatusOK)
	post("/v1/run", fmt.Sprintf(`{"source": %q, "max_cells": 1}`, src), http.StatusUnprocessableEntity)
	f.do(t, http.MethodPost, f.gate.URL+"/v1/run", "k-drip", fmt.Sprintf(`{"source": %q}`, src))
	if code, _, raw := f.do(t, http.MethodPost, f.gate.URL+"/v1/run", "k-drip", fmt.Sprintf(`{"source": %q}`, src)); code != http.StatusTooManyRequests {
		t.Fatalf("drip's second request: %d, want 429: %s", code, raw)
	}

	driverDoc, err := json.Marshal(f.d.MetricsSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	_, _, shardDoc := f.do(t, http.MethodGet, f.shard.URL+"/metrics", "", "")
	_, _, gateDoc := f.do(t, http.MethodGet, f.gate.URL+"/metrics", "", "")

	keys := map[string]bool{}
	for _, doc := range []struct {
		name string
		raw  []byte
	}{{"cmserved", shardDoc}, {"cmgate", gateDoc}, {"driver", driverDoc}} {
		var v any
		if err := json.Unmarshal(doc.raw, &v); err != nil {
			t.Fatalf("%s: %v", doc.name, err)
		}
		flattenKeys(doc.name, v, keys)
	}
	lines := make([]string, 0, len(keys))
	for k := range keys {
		lines = append(lines, k)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	const golden = "testdata/metrics_keys_golden.txt"
	if *updateMetricsKeys {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("metrics documents changed shape (a renamed, dropped, added or re-typed key):\n%s", lineDiff(string(want), got))
	}
}

// lineDiff reports the lines only one side has.
func lineDiff(want, got string) string {
	have := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		have[l] |= 1
	}
	for _, l := range strings.Split(got, "\n") {
		have[l] |= 2
	}
	var out []string
	for l, side := range have {
		switch side {
		case 1:
			out = append(out, "- "+l)
		case 2:
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestRefusalBodiesAreOneWireType: a 401 and a tenant 429 decode
// strictly into server.ErrorResponse and say the same thing whether the
// gate or a directly addressed shard wrote them.
func TestRefusalBodiesAreOneWireType(t *testing.T) {
	f := newContractFleet(t)
	const body = `{"source": "int main() { return 0; }"}`
	refusal := func(url, key string, want int) server.ErrorResponse {
		t.Helper()
		code, hdr, raw := f.do(t, http.MethodPost, url+"/v1/run", key, body)
		if code != want {
			t.Fatalf("%s as %s: %d, want %d: %s", url, key, code, want, raw)
		}
		var e server.ErrorResponse
		dec := json.NewDecoder(strings.NewReader(string(raw)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("%d body %s does not decode into server.ErrorResponse: %v", code, raw, err)
		}
		if want == http.StatusTooManyRequests {
			if e.RetryAfterMS <= 0 || hdr.Get("Retry-After") == "" {
				t.Errorf("429 without a backoff hint: body %s, Retry-After %q", raw, hdr.Get("Retry-After"))
			}
			e.RetryAfterMS = 0 // a clock reading, not part of the comparison
		}
		return e
	}
	for _, target := range []string{f.gate.URL, f.shard.URL} {
		f.do(t, http.MethodPost, target+"/v1/run", "k-drip", body) // spends drip's one-token burst there
	}
	for _, c := range []struct {
		key  string
		want int
	}{{"k-bogus", http.StatusUnauthorized}, {"k-drip", http.StatusTooManyRequests}} {
		gate, shard := refusal(f.gate.URL, c.key, c.want), refusal(f.shard.URL, c.key, c.want)
		if fmt.Sprint(gate) != fmt.Sprint(shard) || gate.Error == "" {
			t.Errorf("%d: gate wrote %+v, shard wrote %+v", c.want, gate, shard)
		}
	}
}
