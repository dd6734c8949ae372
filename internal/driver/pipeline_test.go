// The one-shot pipeline contract (parse, check, emit or run, with the
// extension set and the codegen options chosen per request), formerly
// pinned on internal/core; driver.Compile and driver.Run are the only
// pipeline now.
package driver_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cgen"
	"repro/internal/driver"
	"repro/internal/matrix"
	"repro/internal/parser"
)

const pipelineProg = `
int add(int a, int b) { return a + b; }
int main() {
	Matrix int <1> v = [1 :: 4];
	int s = with ([0] <= [i] < [4]) fold(+, 0, v[i]);
	return add(s, 32);
}
`

func compileSrc(src string, exts parser.Options, cg cgen.Options) *driver.CompileResult {
	return driver.New().Compile(context.Background(), driver.CompileRequest{
		Name: "p.xc", Source: src, Exts: exts, Codegen: cg})
}

func runSrc(src, engine string, files map[string]*matrix.Matrix) (*driver.RunResult, error) {
	return driver.New().Run(context.Background(), driver.RunRequest{
		Name: "p.xc", Source: src, Exts: parser.AllExtensions(), Threads: 1, Files: files, Engine: engine})
}

func TestCheckCompileRun(t *testing.T) {
	if res := driver.New().Vet(driver.VetRequest{Name: "p.xc", Source: pipelineProg, Exts: parser.AllExtensions()}); !res.OK {
		t.Fatalf("check failed: %v %v", res.Diagnostics, res.Findings)
	}
	cres := compileSrc(pipelineProg, parser.AllExtensions(), cgen.DefaultOptions())
	if !cres.OK || !strings.Contains(cres.Output, "u_main") {
		t.Fatalf("compile failed:\n%s", strings.Join(cres.Diagnostics, "\n"))
	}
	for _, engine := range []string{"vm", "tree"} {
		res, err := runSrc(pipelineProg, engine, nil)
		if err != nil || !res.OK {
			t.Fatalf("%s: %v %v", engine, err, res.Diagnostics)
		}
		if res.ExitCode != 42 || res.Engine != engine { // 1+2+3+4 + 32
			t.Fatalf("%s: exit = %d on engine %q, want 42", engine, res.ExitCode, res.Engine)
		}
	}
}

func TestCompileReportsParseErrors(t *testing.T) {
	res := compileSrc("int main() { return }", parser.AllExtensions(), cgen.DefaultOptions())
	if res.OK || len(res.Diagnostics) == 0 {
		t.Fatal("expected parse errors")
	}
	if res.Output != "" {
		t.Fatal("no C should be produced on errors")
	}
}

func TestCompileReportsSemErrors(t *testing.T) {
	res := compileSrc("int main() { return zzz; }", parser.AllExtensions(), cgen.DefaultOptions())
	if res.OK {
		t.Fatal("expected semantic errors")
	}
	if diags := strings.Join(res.Diagnostics, "\n"); !strings.Contains(diags, "undeclared") {
		t.Fatalf("diags = %s", diags)
	}
}

func TestRunReportsErrorsWithoutPanic(t *testing.T) {
	for _, engine := range []string{"vm", "tree"} {
		res, err := runSrc("int main() { return 1 / 0; }", engine, nil)
		if err == nil && res.OK {
			t.Fatalf("%s: division by zero should surface as an error", engine)
		}
	}
}

func TestConfigSelectsExtensions(t *testing.T) {
	// Without the matrix extension, with-loops are a syntax error.
	if res := compileSrc(pipelineProg, parser.Options{}, cgen.DefaultOptions()); res.OK {
		t.Fatal("matrix syntax should not parse without the matrix extension")
	}
}

func TestConfigCodegenOptions(t *testing.T) {
	src := `
int main() {
	Matrix float <1> v;
	v = with ([0] <= [i] < [8]) genarray([8], 1.0);
	return dimSize(v, 0);
}`
	res := compileSrc(src, parser.AllExtensions(), cgen.Options{Par: cgen.ParOMP, Optimize: true})
	if !res.OK {
		t.Fatal(strings.Join(res.Diagnostics, "\n"))
	}
	if !strings.Contains(res.Output, "#pragma omp parallel for") {
		t.Fatal("omp mode should emit pragmas")
	}
}

func TestRunWithFiles(t *testing.T) {
	src := `
int main() {
	Matrix float <1> v = readMatrix("in.data");
	writeMatrix("out.data", v * 2.0);
	return 0;
}`
	for _, engine := range []string{"vm", "tree"} {
		files := map[string]*matrix.Matrix{
			"in.data": matrix.FromFloats([]float64{1, 2, 3}, 3),
		}
		if res, err := runSrc(src, engine, files); err != nil || !res.OK {
			t.Fatalf("%s: %v", engine, err)
		}
		out := files["out.data"]
		if out == nil || out.Floats()[2] != 6 {
			t.Fatalf("%s: out = %v", engine, out)
		}
	}
}
