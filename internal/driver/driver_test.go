package driver_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cgen"
	"repro/internal/driver"
	"repro/internal/parser"
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

const badSrc = `int main() { return 0 0; }`

const spinSrc = `
int main() {
	int i = 0;
	while (i < 2000000000)
		i = i + 1;
	return 0;
}
`

func TestParseExtensions(t *testing.T) {
	cases := []struct {
		in   string
		want parser.Options
		err  bool
	}{
		{"matrix,transform,rc", parser.Options{Matrix: true, Transform: true, Rc: true}, false},
		{"matrix, cilk", parser.Options{Matrix: true, Cilk: true}, false},
		{"all", parser.AllExtensions(), false},
		{"", parser.Options{}, false},
		{"none", parser.Options{}, false},
		{"matrix,bogus", parser.Options{}, true},
	}
	for _, c := range cases {
		got, err := driver.ParseExtensions(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseExtensions(%q): want error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseExtensions(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("ParseExtensions(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	// Round trip through the canonical form.
	if s := driver.FormatExtensions(parser.AllExtensions()); s != "matrix,transform,rc,cilk" {
		t.Errorf("FormatExtensions(all) = %q", s)
	}
	if s := driver.FormatExtensions(parser.Options{}); s != "none" {
		t.Errorf("FormatExtensions(none) = %q", s)
	}
}

func TestCompileCacheHitAndKeying(t *testing.T) {
	d := driver.New()
	req := driver.CompileRequest{
		Name: "t.xc", Source: okSrc, Exts: parser.AllExtensions(),
		Codegen: cgen.Options{Par: cgen.ParNone, Optimize: true},
	}
	first := d.Compile(context.Background(), req)
	if !first.OK || first.Cached {
		t.Fatalf("first compile: OK=%v Cached=%v diags=%v", first.OK, first.Cached, first.Diagnostics)
	}
	second := d.Compile(context.Background(), req)
	if !second.OK || !second.Cached {
		t.Fatalf("second compile: OK=%v Cached=%v", second.OK, second.Cached)
	}
	if second.Output != first.Output || second.Key != first.Key {
		t.Fatal("cached artifact differs from original")
	}
	m := d.MetricsSnapshot()
	if m.CompileHits.Load() != 1 || m.CompileMisses.Load() != 1 || m.CompileExecutions.Load() != 1 {
		t.Fatalf("metrics after hit: %+v", m)
	}

	// A flag change is a different content address...
	req.Codegen.Par = cgen.ParOMP
	third := d.Compile(context.Background(), req)
	if third.Cached || third.Key == first.Key {
		t.Fatalf("flag change reused cache: Cached=%v", third.Cached)
	}
	// ...but shares the cached frontend (parse+check) result.
	if got := d.MetricsSnapshot(); got.FrontendExecutions.Load() != 1 {
		t.Fatalf("frontend ran %d times, want 1", got.FrontendExecutions.Load())
	}
}

func TestCompileErrorsAreCachedWithDiagnostics(t *testing.T) {
	d := driver.New()
	req := driver.CompileRequest{Name: "bad.xc", Source: badSrc, Exts: parser.AllExtensions()}
	first := d.Compile(context.Background(), req)
	if first.OK {
		t.Fatal("bad source compiled")
	}
	// The context-aware scanner reports the offending position and the
	// token it could not accept (the front end's error recovery).
	joined := strings.Join(first.Diagnostics, "\n")
	if len(first.Diagnostics) == 0 ||
		!strings.Contains(joined, "bad.xc:1:") || !strings.Contains(joined, "error") {
		t.Fatalf("diagnostics = %v, want a positioned parse error", first.Diagnostics)
	}
	second := d.Compile(context.Background(), req)
	if second.OK || !second.Cached {
		t.Fatalf("second compile of bad source: OK=%v Cached=%v", second.OK, second.Cached)
	}
	if strings.Join(second.Diagnostics, "\n") != strings.Join(first.Diagnostics, "\n") {
		t.Fatal("cached diagnostics differ")
	}
}

func TestConcurrentIdenticalCompilesExecuteOnce(t *testing.T) {
	d := driver.New()
	req := driver.CompileRequest{
		Name: "t.xc", Source: okSrc, Exts: parser.AllExtensions(),
		Codegen: cgen.Options{Par: cgen.ParPthread, Optimize: true},
	}
	const n = 16
	var wg sync.WaitGroup
	results := make([]*driver.CompileResult, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = d.Compile(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if !r.OK || r.Output != results[0].Output {
			t.Fatalf("request %d: OK=%v or output mismatch", i, r.OK)
		}
	}
	m := d.MetricsSnapshot()
	if m.CompileExecutions.Load() != 1 {
		t.Fatalf("pipeline executed %d times for %d identical requests", m.CompileExecutions.Load(), n)
	}
	if m.CompileHits.Load()+m.CompileCoalesced.Load() != n-1 || m.CompileMisses.Load() != 1 {
		t.Fatalf("hit accounting: %+v", m)
	}
}

func TestRunExecutesAndReusesFrontend(t *testing.T) {
	d := driver.New()
	var out bytes.Buffer
	req := driver.RunRequest{Name: "t.xc", Source: okSrc, Exts: parser.AllExtensions(),
		Threads: 2, Stdout: &out}
	res, err := d.Run(context.Background(), req)
	if err != nil || !res.OK || res.ExitCode != 0 {
		t.Fatalf("run: err=%v res=%+v", err, res)
	}
	if strings.TrimSpace(out.String()) != "56" { // sum of the 8x8 diagonal values 2k
		t.Fatalf("stdout = %q, want 56", out.String())
	}
	if res.Cached {
		t.Fatal("first run claims a frontend cache hit")
	}
	out.Reset()
	res2, err := d.Run(context.Background(), driver.RunRequest{
		Name: "t.xc", Source: okSrc, Exts: parser.AllExtensions(), Threads: -3, Stdout: &out})
	if err != nil || !res2.OK {
		t.Fatalf("second run: err=%v OK=%v", err, res2.OK)
	}
	if !res2.Cached {
		t.Fatal("second run did not reuse the cached frontend")
	}
}

func TestRunHonorsContextDeadline(t *testing.T) {
	d := driver.New()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := d.Run(ctx, driver.RunRequest{
		Name: "spin.xc", Source: spinSrc, Exts: parser.AllExtensions(), Threads: 1})
	if err == nil {
		t.Fatal("runaway program completed without a deadline error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
	if got := d.MetricsSnapshot(); got.RunsCancelled.Load() != 1 {
		t.Fatalf("RunsCancelled = %d, want 1", got.RunsCancelled.Load())
	}
}

func TestAnalysesMemoizedAndMatchPaper(t *testing.T) {
	a := driver.Analyses()
	if a != driver.Analyses() {
		t.Fatal("Analyses is not memoized")
	}
	if a.Unexpected != 0 {
		t.Fatalf("analyses report %d unexpected results", a.Unexpected)
	}
	if len(a.MDA) != 6 || len(a.MWDA) != 3 {
		t.Fatalf("report shape: %d MDA rows, %d MWDA rows", len(a.MDA), len(a.MWDA))
	}
	if !a.CompositionOK || !a.SemCompositionOK {
		t.Fatalf("composition checks failed: %+v", a)
	}
	var buf bytes.Buffer
	a.Render(&buf)
	for _, want := range []string{
		"matrix vs CMINUS             PASS",
		"tuple (standalone) vs CMINUS FAIL",
		"0 conflicts",
		"all analyses match the paper's reported results",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered report missing %q", want)
		}
	}
}

// quickstartSrc is the Fig 1 temporal-mean program from
// examples/quickstart — the acceptance workload for warm-vs-cold
// compile latency. Compare with:
//
//	go test ./internal/driver -bench=BenchmarkCompileService -benchtime=100x | benchstat -
func BenchmarkCompileService(b *testing.B) {
	const quickstartSrc = `
int main() {
	Matrix float <3> mat = readMatrix("ssh.data");
	int m = dimSize(mat, 0);
	int n = dimSize(mat, 1);
	int p = dimSize(mat, 2);
	Matrix float <2> means;
	means = with ([0, 0] <= [i, j] < [m, n])
		genarray([m, n],
			with ([0] <= [k] < [p])
				fold(+, 0.0, mat[i, j, k]) / p);
	writeMatrix("means.data", means);
	return 0;
}
`
	req := driver.CompileRequest{
		Name: "quickstart.xc", Source: quickstartSrc, Exts: parser.AllExtensions(),
		Codegen: cgen.Options{Par: cgen.ParPthread, Optimize: true},
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res := driver.New().Compile(context.Background(), req); !res.OK {
				b.Fatal(res.Diagnostics)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		d := driver.New()
		if res := d.Compile(context.Background(), req); !res.OK {
			b.Fatal(res.Diagnostics)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := d.Compile(context.Background(), req); !res.OK || !res.Cached {
				b.Fatal("warm request missed the cache")
			}
		}
	})
}
