package driver_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/parser"
	"repro/internal/server"
)

// Engine selection, the vm program cache, and the vm_* observability
// counters. Semantic equivalence between engines lives in the
// dual-engine differential suite at the repository root; here we only
// care that the driver routes, caches, and counts correctly.

func TestRunEngineSelectionAndVMCache(t *testing.T) {
	d := driver.New()
	src := `int main() { int s = 0; for (int i = 0; i < 10; i++) { s = s + i; } print(s); return 0; }`

	run := func(engine string) *driver.RunResult {
		t.Helper()
		var out bytes.Buffer
		res, err := d.Run(context.Background(), driver.RunRequest{
			Name: "eng.xc", Source: src, Exts: parser.AllExtensions(),
			Engine: engine, Stdout: &out,
		})
		if err != nil || !res.OK {
			t.Fatalf("Run(engine=%q): ok=%v err=%v diags=%v", engine, res.OK, err, res.Diagnostics)
		}
		if out.String() != "45\n" {
			t.Fatalf("Run(engine=%q): stdout=%q, want \"45\\n\"", engine, out.String())
		}
		return res
	}

	// Default ("") and explicit "vm" both take the bytecode engine; the
	// second vm run must hit the compiled-program cache.
	if res := run(""); res.Engine != "vm" {
		t.Errorf("default engine = %q, want vm", res.Engine)
	}
	if res := run("vm"); res.Engine != "vm" {
		t.Errorf("engine vm ran as %q", res.Engine)
	}
	if res := run("tree"); res.Engine != "tree" {
		t.Errorf("engine tree ran as %q", res.Engine)
	}

	m := d.MetricsSnapshot()
	if m.VMCompileTotal.Load() != 1 {
		t.Errorf("vm_compile_total = %d, want 1 (one source, compiled once)", m.VMCompileTotal.Load())
	}
	if m.VMCacheMisses.Load() != 1 || m.VMCacheHits.Load() != 1 {
		t.Errorf("vm cache hits/misses = %d/%d, want 1/1", m.VMCacheHits.Load(), m.VMCacheMisses.Load())
	}
	if m.VMExecTotal.Load() != 2 {
		t.Errorf("vm_exec_total = %d, want 2 (tree run must not count)", m.VMExecTotal.Load())
	}
	if m.VMDispatchNS.Load() <= 0 {
		t.Errorf("vm_dispatch_ns = %d, want > 0", m.VMDispatchNS.Load())
	}
}

func TestRunUnknownEngineRejected(t *testing.T) {
	d := driver.New()
	_, err := d.Run(context.Background(), driver.RunRequest{
		Name: "eng.xc", Source: "int main() { return 0; }",
		Exts: parser.AllExtensions(), Engine: "jit",
	})
	if err == nil || !strings.Contains(err.Error(), `unknown engine "jit"`) {
		t.Fatalf("err = %v, want unknown-engine error", err)
	}
}

func TestRunVMPreservesTraps(t *testing.T) {
	// A trapping program must report the identical error string and a
	// non-OK exit through the vm engine (exercised exhaustively by the
	// root differential suite; this is the driver-level smoke).
	d := driver.New()
	src := `int main() { int z = 0; return 1 / z; }`
	resV, errV := d.Run(context.Background(), driver.RunRequest{
		Name: "trap.xc", Source: src, Exts: parser.AllExtensions(), Engine: "vm",
	})
	resT, errT := d.Run(context.Background(), driver.RunRequest{
		Name: "trap.xc", Source: src, Exts: parser.AllExtensions(), Engine: "tree",
	})
	if errV == nil || errT == nil {
		t.Fatalf("expected traps, got vm=%v tree=%v", errV, errT)
	}
	if errV.Error() != errT.Error() {
		t.Errorf("trap text diverged:\n  vm:   %s\n  tree: %s", errV, errT)
	}
	if resV.Engine != "vm" || resT.Engine != "tree" {
		t.Errorf("engines = %q/%q, want vm/tree", resV.Engine, resT.Engine)
	}
}

// TestServerAnswersABail500: a shard answers a bytecode compiler bail
// with 500 and the bail's text — the service's failure, not a 422 — and
// does not count it among client errors. (It lives here because only
// the driver's tests can provoke a bail.)
func TestServerAnswersABail500(t *testing.T) {
	const src = `int unused() { return 1; } int main() { print(7); return 0; }`
	d := driver.New()
	driver.BreakBytecode(d, "bail.xc", src, "unused")
	s := server.New(server.Config{Driver: d})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(server.RunRequest{Head: server.Head{Name: "bail.xc", Source: src}})
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var got server.ErrorResponse
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusInternalServerError ||
		!strings.Contains(got.Error, `vm: function "unused" missing from checker info`) {
		t.Fatalf("status %d, body %+v (%v), want 500 with the bail's text", resp.StatusCode, got, err)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		ClientErrors int64 `json:"client_errors"`
		RunTraps     int64 `json:"run_traps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.ClientErrors != 0 || m.RunTraps != 0 {
		t.Errorf("client_errors %d, run_traps %d, want 0 and 0", m.ClientErrors, m.RunTraps)
	}
}
