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

// Every checked program translates to C at every -par and -O: sem
// decided everything translation depends on, so cgen rejects nothing
// (testdata/, bench/programs/ and the checked VM corpus).
func TestIntegrationAllProgramsTranslate(t *testing.T) {
	var progs []corpusProgram
	for _, pat := range []string{"testdata/*.xc", "bench/programs/*.xc"} {
		files, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, corpusProgram{name: file, src: string(src)})
		}
	}
	for _, tc := range vmCorpus {
		if tc.unchecked == "" {
			progs = append(progs, corpusProgram{name: tc.name + ".xc", src: tc.src})
		}
	}
	d := driver.New()
	for _, p := range progs {
		for _, par := range []cgen.ParMode{cgen.ParNone, cgen.ParPthread, cgen.ParOMP} {
			for _, opt := range []bool{false, true} {
				res := d.Compile(context.Background(), driver.CompileRequest{Name: p.name, Source: p.src,
					Exts: parser.AllExtensions(), Codegen: cgen.Options{Par: par, Optimize: opt}})
				if !res.OK {
					t.Errorf("%s at -par %s, -O=%v: %s", p.name, par, opt, strings.Join(res.Diagnostics, "\n"))
				} else if !strings.Contains(res.Output, "u_main") {
					t.Errorf("%s at -par %s, -O=%v: no main emitted", p.name, par, opt)
				}
			}
		}
	}
}

// releaseProbes exercise the references the generated C releases
// beyond a statement's temporaries: spawn targets of rc-pointer type
// (and, in the VM corpus's tuple_ret_spawn, of tuple type), the owned
// results of untargeted spawns, an rc-pointer argument the spawned
// thread holds past its owner's scope (and the matrix in it, past its
// own owner's), and the block locals a break or a continue leaves.
var releaseProbes = []corpusProgram{
	{name: "spawn_rc_target", src: `
refcounted int * mk(int n) { return rcnew(n); }
int main() {
	refcounted int * c = rcnew(1);
	spawn c = mk(5);
	sync;
	print(rcget(c));
	return 0;
}`},
	{name: "spawn_untargeted", src: `
refcounted int * mk(int n) { return rcnew(n); }
(int, Matrix int <1>) tm(int n) { return (n * 2, [0 :: n]); }
int main() {
	spawn mk(5);
	spawn tm(4);
	sync;
	print(1);
	return 0;
}`},
	{name: "spawn_rc_argument", src: `
int get(refcounted int * c) {
	int s = 0;
	for (int k = 0; k < 100000; k = k + 1) { s = s + 1; }
	return s + rcget(c);
}
int main() {
	int r = 0;
	{ refcounted int * c = rcnew(5); spawn r = get(c); }
	sync;
	print(r);
	return 0;
}`},
	{name: "spawn_rc_matrix_cell", src: `
float total(refcounted Matrix float <1> * c) {
	float s = 0.0;
	for (int k = 0; k < 100000; k = k + 1) { s = s + 1.0; }
	Matrix float <1> m = rcget(c);
	return s + m[2];
}
int main() {
	float r = 0.0;
	{ Matrix float <1> m = [0 :: 3] * 1.5; refcounted Matrix float <1> * c = rcnew(m); spawn r = total(c); }
	sync;
	print(r);
	return 0;
}`},
	{name: "early_exits", src: `
int main() {
	int s = 0;
	for (int k = 0; k < 5; k = k + 1) {
		Matrix int <1> a = [0 :: 3];
		if (k == 1) { continue; }
		if (k == 3) { break; }
		s = s + a[end];
	}
	print(s);
	int k = 0;
	while (k < 5) {
		k = k + 1;
		Matrix int <1> b = [0 :: k];
		if (k == 2) { continue; }
		if (k == 4) { break; }
		s = s + b[end];
	}
	print(s);
	return 0;
}`},
}

// The release probes and tuple_ret_spawn, compiled at -par pthread and
// run at two pool threads, print what the VM prints and exit 0 under
// ASan+UBSan, whose leak check is on, and under TSan.
func TestCompiledReleasesUnderSanitizers(t *testing.T) {
	if !haveGCC() {
		t.Skip("gcc not available")
	}
	progs := releaseProbes
	for _, tc := range vmCorpus {
		if tc.name == "tuple_ret_spawn" {
			progs = append(progs, corpusProgram{name: tc.name, src: tc.src})
		}
	}
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			var vmOut bytes.Buffer
			res, err := driver.New().Run(context.Background(), driver.RunRequest{Name: "t.xc", Source: p.src,
				Exts: parser.AllExtensions(), Threads: 1, Stdout: &vmOut})
			if err != nil || !res.OK {
				t.Fatalf("VM: %v %q", err, res.Diagnostics)
			}
			csrc := compileC(t, p.src)
			for _, san := range []string{"address,undefined", "thread"} {
				got := runC(t, csrc, t.TempDir(), nil, "-g", "-fsanitize="+san, "-fno-sanitize-recover=all")
				if got != vmOut.String() {
					t.Errorf("-fsanitize=%s: generated C printed %q, the VM %q", san, got, vmOut.String())
				}
			}
		})
	}
}
