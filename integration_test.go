// End-to-end integration tests: the programs in testdata/ run through
// the full pipeline — scan, parse with the composed grammars, check
// with the composed attribute-grammar semantics, execute on the
// parallel interpreter — with their printed output verified, RC
// accounting leak-checked, and results identical across thread counts.
package repro_test

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cgen"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/parser"
	"repro/internal/rc"
	"repro/internal/sem"
	"repro/internal/source"
)

// sshCube builds a deterministic SSH input for the testdata programs.
func sshCube(m, n, p int, seed int64) *matrix.Matrix {
	cube := matrix.New(matrix.Float, m, n, p)
	r := rand.New(rand.NewSource(seed))
	fl := cube.Floats()
	for k := range fl {
		fl[k] = float64(int(r.Float64()*1000)) / 100 // short decimals print cleanly
	}
	return cube
}

func runTestdata(t *testing.T, file string, files map[string]*matrix.Matrix, threads int) (string, *rc.Heap) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	heap := rc.NewHeap()
	// The tree walker on a heap the test owns, for the leak assertions;
	// driver.Run (the production path) takes no heap.
	var diags source.Diagnostics
	prog := parser.ParseFile(file, string(src), parser.AllExtensions(), &diags)
	if prog == nil {
		t.Fatalf("%s:\n%s", file, diags.String())
	}
	info := sem.Check(prog, &diags)
	if diags.HasErrors() {
		t.Fatalf("%s:\n%s", file, diags.String())
	}
	code, err := interp.New(prog, info, interp.Options{
		Files: files, Threads: threads, Stdout: &out, Heap: heap, MaxSteps: 50_000_000,
	}).Run()
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	if code != 0 {
		t.Fatalf("%s: exit code %d", file, code)
	}
	return out.String(), heap
}

func TestIntegrationIndexing(t *testing.T) {
	out, heap := runTestdata(t, "indexing.xc", nil, 1)
	want := "9\n5\n4\n5\n12\n2\n"
	if out != want {
		t.Fatalf("output = %q, want %q", out, want)
	}
	if err := heap.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

func TestIntegrationTuplesRc(t *testing.T) {
	out, heap := runTestdata(t, "tuples_rc.xc", nil, 1)
	want := "9\n2\nfalse\n92\n"
	if out != want {
		t.Fatalf("output = %q, want %q", out, want)
	}
	if err := heap.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

func TestIntegrationCilkFib(t *testing.T) {
	out, heap := runTestdata(t, "cilk_fib.xc", nil, 1)
	if strings.TrimSpace(out) != "377" {
		t.Fatalf("output = %q, want 377", out)
	}
	if err := heap.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

func TestIntegrationFig1AcrossThreadCounts(t *testing.T) {
	ssh := sshCube(6, 7, 8, 11)
	var ref *matrix.Matrix
	var refOut string
	for _, threads := range []int{1, 2, 4} {
		files := map[string]*matrix.Matrix{"ssh.data": ssh}
		out, heap := runTestdata(t, "fig1_temporalmean.xc", files, threads)
		if err := heap.CheckLeaks(); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		means := files["means.data"]
		if means == nil {
			t.Fatalf("threads=%d: no output matrix", threads)
		}
		if ref == nil {
			ref, refOut = means, out
			continue
		}
		if !matrix.Equal(ref, means) {
			t.Fatalf("threads=%d: result differs from single-threaded run", threads)
		}
		if out != refOut {
			t.Fatalf("threads=%d: stdout differs", threads)
		}
	}
}

func TestIntegrationTransformedMeanMatchesPlain(t *testing.T) {
	// The §V transformations must not change the computed result —
	// the transformed program and the plain Fig 1 program agree.
	ssh := sshCube(5, 8, 6, 23)
	plain := map[string]*matrix.Matrix{"ssh.data": ssh}
	runTestdata(t, "fig1_temporalmean.xc", plain, 1)
	transformed := map[string]*matrix.Matrix{"ssh.data": ssh}
	runTestdata(t, "transform_mean.xc", transformed, 2)
	if !matrix.Equal(plain["means.data"], transformed["means.data"]) {
		t.Fatal("transformed with-loop computed a different result")
	}
}

// Every testdata program must also translate to C without errors in
// every parallelization mode (compilation by gcc is covered in
// internal/cgen's tests).
func TestIntegrationAllProgramsTranslate(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".xc") {
			continue
		}
		src, err := os.ReadFile(filepath.Join("testdata", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		res := driver.New().Compile(context.Background(), driver.CompileRequest{
			Name: e.Name(), Source: string(src), Exts: parser.AllExtensions(), Codegen: cgen.DefaultOptions()})
		if !res.OK {
			t.Errorf("%s: %s", e.Name(), strings.Join(res.Diagnostics, "\n"))
		}
		if !strings.Contains(res.Output, "u_main") {
			t.Errorf("%s: no main emitted", e.Name())
		}
	}
}
