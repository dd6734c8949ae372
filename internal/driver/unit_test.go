// A program unit is the one thing the driver keeps per (name, source,
// extension set): Run, Vet and Compile of one source share its frontend
// result, the bytecode and the findings are computed once on it, an
// extension-set change is a different unit, and a unit is charged once
// and evicted whole.
package driver_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/driver"
	"repro/internal/parser"
)

const fusedChainSrc = `
int main() {
	Matrix float <1> a = [0 :: 7] * 1.0;
	Matrix float <1> b = [1 :: 8] * 1.0;
	Matrix float <1> r = a .* b + a - b;
	print(r[end]);
	return 0;
}`

// TestUnitKeysOnExtensionSet: the same source parsed under a different
// grammar is a different AST, so the facts proven against one (and the
// bytecode compiled from them) must never serve the other.
func TestUnitKeysOnExtensionSet(t *testing.T) {
	d := driver.New()
	run := func(exts string) *driver.RunResult {
		t.Helper()
		o, err := driver.ParseExtensions(exts)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		res, err := d.Run(context.Background(), driver.RunRequest{
			Name: "chain.xc", Source: fusedChainSrc, Exts: o, Threads: 1, Stdout: &out,
		})
		if err != nil || !res.OK {
			t.Fatalf("run(-ext %s): err=%v res=%+v diags=%v", exts, err, res, res.Diagnostics)
		}
		if res.Engine != "vm" {
			t.Fatalf("run(-ext %s): engine = %q, want vm", exts, res.Engine)
		}
		return res
	}
	m := d.Metrics()

	first := run("matrix")
	// Three sites: the chain, and the two range-scaling initializers.
	if got := m.VMFusedSites.Load(); got != 3 {
		t.Fatalf("after first run: VMFusedSites = %d, want 3 (chains must be proven and emitted)", got)
	}

	// Identical request: the unit, and the program compiled on it, are
	// reused.
	if again := run("matrix"); again.Key != first.Key || !again.Cached {
		t.Fatalf("identical rerun: key %s cached %v, want key %s from the cache", again.Key, again.Cached, first.Key)
	}
	if got := m.VMCompileTotal.Load(); got != 1 {
		t.Fatalf("after identical rerun: VMCompileTotal = %d, want 1", got)
	}

	// Same source, different -ext set: a different unit, parsed, analyzed
	// and compiled afresh.
	if other := run("all"); other.Key == first.Key || other.Cached {
		t.Fatalf("-ext change: key %s cached %v, want a new unit", other.Key, other.Cached)
	}
	if got := m.VMCompileTotal.Load(); got != 2 {
		t.Fatalf("after -ext change: VMCompileTotal = %d, want 2 (must not share across ext sets)", got)
	}
	if got := m.VMFusedSites.Load(); got != 6 {
		t.Fatalf("after -ext change: VMFusedSites = %d, want 6 (recompiled with fresh facts)", got)
	}

	s := d.MetricsSnapshot()
	if s.CacheEntries != 2 || s.FrontendExecutions.Load() != 2 {
		t.Errorf("entries = %d, frontend executions = %d, want 2 units", s.CacheEntries, s.FrontendExecutions.Load())
	}
	if s.VMFusedLoops == 0 {
		t.Errorf("snapshot vm_fused_loops = 0, want > 0 (three fused executions ran)")
	}
}

// TestRunVetCompileShareOneUnit: every kind of request for one source,
// from many goroutines at once, parses it once, compiles its bytecode
// once, analyzes it once, and leaves one unit and one artifact behind.
func TestRunVetCompileShareOneUnit(t *testing.T) {
	d := driver.New()
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				var out bytes.Buffer
				res, err := d.Run(context.Background(), driver.RunRequest{
					Name: "t.xc", Source: okSrc, Exts: parser.AllExtensions(), Threads: 1, Stdout: &out})
				if err != nil || !res.OK || res.Engine != "vm" || out.String() != "56\n" {
					t.Errorf("run %d: err=%v res=%+v stdout=%q", i, err, res, out.String())
				}
			case 1:
				if res := d.Vet(driver.VetRequest{Name: "t.xc", Source: okSrc, Exts: parser.AllExtensions()}); !res.OK {
					t.Errorf("vet %d: %+v", i, res)
				}
			case 2:
				if res := d.Compile(context.Background(), driver.CompileRequest{
					Name: "t.xc", Source: okSrc, Exts: parser.AllExtensions()}); !res.OK {
					t.Errorf("compile %d: %v", i, res.Diagnostics)
				}
			}
		}(i)
	}
	wg.Wait()
	s := d.MetricsSnapshot()
	if s.FrontendExecutions.Load() != 1 || s.VMCompileTotal.Load() != 1 || s.VetAnalysisLatency.Snapshot().Count != 1 || s.CompileExecutions.Load() != 1 {
		t.Errorf("frontend %d, bytecode %d, analysis %d, emit %d executions, want 1 each",
			s.FrontendExecutions.Load(), s.VMCompileTotal.Load(), s.VetAnalysisLatency.Snapshot().Count, s.CompileExecutions.Load())
	}
	if s.CacheEntries != 2 {
		t.Errorf("cache_entries = %d, want 2 (one unit, one artifact)", s.CacheEntries)
	}
	if got := s.VMCacheHits.Load() + s.VMCacheMisses.Load(); got != (n+2)/3 {
		t.Errorf("bytecode lookups = %d, want one per run (%d)", got, (n+2)/3)
	}
	if got := s.VetHits.Load() + s.VetCoalesced.Load() + s.VetMisses.Load(); got != s.VetRuns.Load() {
		t.Errorf("vet outcomes = %d, want one per vet request (%d)", got, s.VetRuns.Load())
	}
}

// TestUnitEvictsWhole: a unit is charged once — source and diagnostics,
// plus its findings once analyzed — and leaves the ledger whole, so the
// bytes in use always equal the surviving unit's own charge.
func TestUnitEvictsWhole(t *testing.T) {
	// use runs and vets src on d and returns the cache gauges after.
	use := func(d *driver.Driver, name, src string) driver.MetricsDoc {
		t.Helper()
		if _, err := d.Run(context.Background(), driver.RunRequest{
			Name: name, Source: src, Exts: parser.AllExtensions(), Threads: 1, Stdout: &bytes.Buffer{}}); err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
		d.Vet(driver.VetRequest{Name: name, Source: src, Exts: parser.AllExtensions()})
		return d.MetricsSnapshot()
	}
	// alone is what src costs a driver that has seen nothing else.
	alone := func(name, src string) int64 { return use(driver.New(), name, src).CacheBytes }

	d := driver.NewWith(driver.Config{MaxCacheEntries: 1})
	first := d.Vet(driver.VetRequest{Name: "mm.xc", Source: mismatchSrc, Exts: parser.AllExtensions()})
	if len(first.Findings) != 1 {
		t.Fatalf("findings = %v, want the shape mismatch", first.Findings)
	}
	if got := d.MetricsSnapshot().CacheBytes; got <= int64(len(mismatchSrc)) {
		t.Fatalf("cache_bytes = %d: the findings were not charged to the unit (source is %d)", got, len(mismatchSrc))
	}

	s := use(d, "t.xc", okSrc)
	if s.CacheEntries != 1 || s.CacheEvictions != 1 {
		t.Fatalf("entries %d, evictions %d after a second program under an entry cap of 1, want 1 and 1",
			s.CacheEntries, s.CacheEvictions)
	}
	if want := alone("t.xc", okSrc); s.CacheBytes != want {
		t.Fatalf("cache_bytes = %d, want the survivor's own charge %d", s.CacheBytes, want)
	}
	if s.CacheBytes != int64(len(okSrc)) {
		t.Fatalf("cache_bytes = %d, want the source length %d (a clean unit is charged once)", s.CacheBytes, len(okSrc))
	}

	// Churn: the ledger never goes negative and never accumulates.
	var name, src string
	for i := 0; i < 1000; i++ {
		name = fmt.Sprintf("churn%d.xc", i)
		src = fmt.Sprintf("int main() { int unused%d = %d; print(%d); return 0; }", i, i, i)
		s = use(d, name, src)
		if s.CacheEntries != 1 || s.CacheBytes < int64(len(src)) || s.CacheBytes > int64(len(src))+1024 {
			t.Fatalf("after %s: entries %d, bytes %d (source %d)", name, s.CacheEntries, s.CacheBytes, len(src))
		}
	}
	if want := alone(name, src); s.CacheBytes != want {
		t.Fatalf("cache_bytes after churn = %d, want the survivor's own charge %d", s.CacheBytes, want)
	}
	if s.CacheEvictions != 1001 {
		t.Fatalf("evictions = %d, want 1001", s.CacheEvictions)
	}
}
