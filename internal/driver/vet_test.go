package driver_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/driver"
	"repro/internal/parser"
	"repro/internal/vet"
)

const mismatchSrc = `
int main() {
	Matrix float <2> a = init(Matrix float <2>, 3, 4);
	Matrix float <2> b = init(Matrix float <2>, 5, 6);
	Matrix float <2> c = a * b;
	print(c);
	return 0;
}
`

func TestVetCachesResults(t *testing.T) {
	d := driver.New()
	req := driver.VetRequest{Name: "t.xc", Source: okSrc, Exts: parser.AllExtensions()}

	first := d.Vet(req)
	if !first.OK || first.Cached {
		t.Fatalf("first vet: OK=%v Cached=%v diags=%v findings=%v",
			first.OK, first.Cached, first.Diagnostics, first.Findings)
	}
	if first.Stages.VetNS <= 0 {
		t.Errorf("cold vet reported no analysis time: %+v", first.Stages)
	}

	second := d.Vet(req)
	if !second.OK || !second.Cached {
		t.Fatalf("second vet: OK=%v Cached=%v", second.OK, second.Cached)
	}
	if second.Key != first.Key || second.Errors != first.Errors ||
		len(second.Findings) != len(first.Findings) {
		t.Fatalf("cached vet result differs: first=%+v second=%+v", first, second)
	}

	m := d.MetricsSnapshot()
	if m.VetRuns.Load() != 2 || m.VetHits.Load() != 1 || m.VetMisses.Load() != 1 {
		t.Fatalf("vet metrics: runs=%d hits=%d misses=%d", m.VetRuns.Load(), m.VetHits.Load(), m.VetMisses.Load())
	}
	if m.VetLatency.Snapshot().Count != 2 || m.VetAnalysisLatency.Snapshot().Count != 1 {
		t.Fatalf("vet latency observed %d times (want 2), analysis %d (want 1)",
			m.VetLatency.Snapshot().Count, m.VetAnalysisLatency.Snapshot().Count)
	}

	// The vet key is a distinct content address from the compile key for
	// the same source (different artifact kinds must not collide).
	comp := d.Compile(context.Background(), driver.CompileRequest{Name: "t.xc", Source: okSrc, Exts: parser.AllExtensions()})
	if comp.Key == first.Key {
		t.Fatal("vet and compile share a cache key")
	}
}

func TestVetFindingsSurviveTheCache(t *testing.T) {
	d := driver.New()
	req := driver.VetRequest{Name: "mm.xc", Source: mismatchSrc, Exts: parser.AllExtensions()}

	first := d.Vet(req)
	if first.OK || first.Errors != 1 || len(first.Findings) != 1 {
		t.Fatalf("first vet: OK=%v Errors=%d Findings=%v", first.OK, first.Errors, first.Findings)
	}
	f := first.Findings[0]
	if f.Code != vet.CodeShapeMismatch {
		t.Fatalf("finding code = %q, want %q", f.Code, vet.CodeShapeMismatch)
	}
	if f.Span.File != "mm.xc" || f.Span.Start.Line != 5 {
		t.Fatalf("finding span = %v, want mm.xc line 5", f.Span)
	}

	second := d.Vet(req)
	if !second.Cached || second.OK {
		t.Fatalf("second vet: Cached=%v OK=%v", second.Cached, second.OK)
	}
	if len(second.Findings) != 1 || second.Findings[0].String() != f.String() {
		t.Fatalf("cached findings differ: %v vs %v", second.Findings, first.Findings)
	}

	m := d.MetricsSnapshot()
	if m.VetFindings.Load() != 1 {
		t.Fatalf("vet_findings_total = %d, want 1 (hits must not re-count)", m.VetFindings.Load())
	}
}

func TestVetReusesCachedFrontend(t *testing.T) {
	d := driver.New()
	// Compile first: parse+check results land in the frontend cache.
	if res := d.Compile(context.Background(), driver.CompileRequest{Name: "t.xc", Source: okSrc, Exts: parser.AllExtensions()}); !res.OK {
		t.Fatalf("compile failed: %v", res.Diagnostics)
	}
	if res := d.Vet(driver.VetRequest{Name: "t.xc", Source: okSrc, Exts: parser.AllExtensions()}); !res.OK {
		t.Fatalf("vet failed: %v", res.Diagnostics)
	}
	m := d.MetricsSnapshot()
	if m.FrontendExecutions.Load() != 1 {
		t.Fatalf("frontend ran %d times, want 1 (vet should reuse the compile's parse+check)", m.FrontendExecutions.Load())
	}
}

func TestVetOnFrontendErrorsReportsDiagnostics(t *testing.T) {
	d := driver.New()
	res := d.Vet(driver.VetRequest{Name: "bad.xc", Source: badSrc, Exts: parser.AllExtensions()})
	if res.OK || len(res.Diagnostics) == 0 {
		t.Fatalf("vet of unparsable source: OK=%v diags=%v", res.OK, res.Diagnostics)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("no analysis should run on a failed parse, got findings %v", res.Findings)
	}
}

func TestConcurrentIdenticalVetsAnalyzeOnce(t *testing.T) {
	d := driver.New()
	req := driver.VetRequest{Name: "mm.xc", Source: mismatchSrc, Exts: parser.AllExtensions()}
	const n = 16
	var wg sync.WaitGroup
	results := make([]*driver.VetResult, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = d.Vet(req)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.OK || len(r.Findings) != 1 {
			t.Fatalf("result %d: OK=%v findings=%v", i, r.OK, r.Findings)
		}
	}
	m := d.MetricsSnapshot()
	if m.VetMisses.Load() != 1 {
		t.Fatalf("analysis executed %d times, want 1 (coalesced: %d, hits: %d)",
			m.VetMisses.Load(), m.VetCoalesced.Load(), m.VetHits.Load())
	}
	if m.VetHits.Load()+m.VetCoalesced.Load() != n-1 {
		t.Fatalf("hits %d + coalesced %d != %d", m.VetHits.Load(), m.VetCoalesced.Load(), n-1)
	}
}
