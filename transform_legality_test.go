// The §V transform clauses are judged in one place, sem's TransformAG:
// every probe below goes through the check cmrun and cmvet run
// (driver.Run) and through cmc (driver.Compile), and both must give
// the same verdict and the same diagnostics. A rejection names the
// clause's line:col in source names; an accepted program, compiled by
// gcc when it is installed, prints what the VM prints. Then the split
// and tile remainders: the cells past the last full tile are computed
// in C.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cgen"
	"repro/internal/driver"
	"repro/internal/matio"
	"repro/internal/matrix"
	"repro/internal/parser"
)

// legalityProg wraps statements in a main with an int n = 6, a float
// vector v of 16 cells and a user function twice in scope.
func legalityProg(stmts string) string {
	return "float twice(float x) { return x * 2.0; }\nint main() {\n\tint n = 6;\n" +
		"\tMatrix float <1> v = with ([0] <= [i] < [16]) genarray([16], (float)i * 0.5);\n\t" +
		stmts + "\n\treturn 0;\n}\n"
}

var legalityProbes = []struct {
	name, stmts string
	clause      string // the rejected clause as written; "" when the program is accepted
	want        string // in the rejection's text
}{
	// Accepted.
	{name: "fig9_schedule", stmts: `Matrix float <2> m = with ([0, 0] <= [i, j] < [3, n]) genarray([3, n], with ([0] <= [k] < [4]) fold(+, 0.0, v[i + j + k]) / 4) transform split j by 4, jin, jout. vectorize jin. parallelize i; print(m[2, 5]); print(m[1, 1]);`},
	{name: "tile_then_parallelize_xout", stmts: `Matrix float <2> m = with ([0, 0] <= [x, y] < [n, 7]) genarray([n, 7], (float)(x * 10 + y)) transform tile x by 4, y by 4. parallelize xout; print(m[5, 6]); print(m[3, 2]);`},
	{name: "reorder_perfect", stmts: `Matrix float <2> m = with ([0, 0] <= [i, j] < [3, n]) genarray([3, n], v[i * 2 + j]) transform reorder (j, i); print(m[2, 5]);`},
	{name: "unroll_innermost_then_reorder", stmts: `Matrix float <2> m = with ([0, 0] <= [i, j] < [3, 8]) genarray([3, 8], v[i + j]) transform unroll j by 2. reorder (j, i); print(m[2, 7]);`},
	{name: "split_dynamic_vectorize_inner", stmts: `Matrix float <1> r = with ([0] <= [i] < [n]) genarray([n], v[i] + 1.0) transform split i by 4, iin, iout. vectorize iin; print(r[5]);`},
	{name: "vectorize_index_arithmetic", stmts: `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], v[i % 6] * 2.0 + (float)i) transform vectorize i; print(r[7]);`},
	{name: "vectorize_nested_fold", stmts: `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], with ([0] <= [k] < [n]) fold(max, 0.0, v[i + k])) transform vectorize i; print(r[7]);`},
	{name: "parallelize_genarray_inner", stmts: `Matrix float <2> m = with ([0, 0] <= [i, j] < [3, n]) genarray([3, n], v[j]) transform parallelize j; print(m[2, 5]);`},
	{name: "unroll_literal", stmts: `Matrix float <1> r = with ([0] <= [i] < [12]) genarray([12], v[i]) transform unroll i by 4; print(r[11]);`},
	{name: "unroll_nested_fold", stmts: `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], with ([0] <= [k] < [4]) fold(+, 0.0, v[i + k])) transform unroll i by 2; print(r[5]); print(r[6]);`},
	// A with-loop nested in a body that runs general C reads the outer
	// loop's index like any scalar.
	{name: "vectorize_reads_outer_index", stmts: `Matrix float <1> r = with ([0] <= [i] < [4]) genarray([4], (with ([0] <= [k] < [8]) genarray([8], v[k] + (float)i) transform vectorize k)[0]); print(r[3]);`},
	{name: "split_reads_outer_index", stmts: `Matrix float <1> r = with ([0] <= [i] < [4]) genarray([4], (with ([0] <= [k] < [6]) genarray([6], v[k] * (float)i) transform split k by 4, kin, kout)[5]); print(r[3]);`},
	{name: "nested_fold_own_clauses", stmts: `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], with ([0] <= [k] < [8]) fold(+, 0.0, v[i + k]) transform unroll k by 2. split k by 4, kin, kout); print(r[7]); print(r[2]);`},
	{name: "nested_fold_clause_names_like_outer_split", stmts: `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], with ([0] <= [k] < [8]) fold(+, 0.0, v[i + k]) transform split k by 4, kin, kout) transform split i by 4, kin, iout; print(r[5]);`},
	{name: "split_nested_fold_rebinds_index", stmts: `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], with ([0] <= [i] < [4]) fold(+, 0.0, v[i]) + (float)i) transform split i by 4, iin, iout; print(r[5]);`},

	// The probes the C back end used to reject at 1:1 in mangled names.
	{"split_nonzero_lower", `Matrix float <1> r = with ([1] <= [i] < [n]) genarray([n], (float)i) transform split i by 4, iin, iout; print(r[5]);`,
		"split i by 4, iin, iout", "split i: the loop must start at a literal 0"},
	{"vectorize_dynamic_extent", `Matrix float <1> r = with ([0] <= [i] < [n]) genarray([n], (float)i) transform vectorize i; print(r[5]);`,
		"vectorize i", "vectorize i: needs a literal trip count divisible by 4, has one known only at run time"},
	{"unroll_dynamic_extent", `Matrix float <1> r = with ([0] <= [i] < [n]) genarray([n], (float)i) transform unroll i by 4; print(r[5]);`,
		"unroll i by 4", "unroll i by 4: needs a literal trip count divisible by 4"},
	{"unroll_then_reorder", `Matrix float <2> m = with ([0, 0] <= [i, j] < [4, 4]) genarray([4, 4], (float)(i * 4 + j)) transform unroll i by 2. reorder (j, i); print(m[3, 1]);`,
		"reorder (j, i)", "reorder: the nest is not perfect below i"},
	{"tile_renames_its_loops", `Matrix float <2> m = with ([0, 0] <= [x, y] < [n, n]) genarray([n, n], 1.0) transform tile x by 4, y by 4. parallelize x; print(m[3, 1]);`,
		"parallelize x", `parallelize: no loop index "x" in this with-loop (have xout, yout, xin, yin)`},
	{"vectorize_fold_bound_reads_index", `Matrix float <2> m = with ([0, 0] <= [i, j] < [4, 8]) genarray([4, 8], with ([0] <= [k] < [j]) fold(+, 0.0, (float)k)) transform vectorize j; print(m[3, 5]);`,
		"vectorize j", "vectorize j: a nested fold's bound depends on j"},
	{"vectorize_user_call", `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], twice((float)i)) transform vectorize i; print(r[5]);`,
		"vectorize i", "vectorize i: twice((float)i) does not lower to scalar C"},
	{"vectorize_load_of_expression", `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], (v * 2.0)[i]) transform vectorize i; print(r[5]);`,
		"vectorize i", "vectorize i: (v * 2.0)[i] does not lower to scalar C"},
	{"vectorize_int_mod", `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], 1.0 * (i % 3)) transform vectorize i; print(r[5]);`,
		"vectorize i", "vectorize i: (i % 3) is int arithmetic; only float arithmetic vectorizes"},
	{"vectorize_fold", `float s = with ([0] <= [i] < [8]) fold(+, 0.0, v[i]) transform vectorize i; print(s);`,
		"vectorize i", "vectorize i: a fold does not vectorize"},

	// The probes the C back end used to compile to wrong values.
	{"parallelize_fold", `Matrix float <1> o = with ([0] <= [i] < [100000]) genarray([100000], 1.0); float s = with ([0] <= [i] < [100000]) fold(+, 0.0, o[i]) transform parallelize i; print(s);`,
		"parallelize i", "parallelize i: a fold runs serially in the generated C (§III-C)"},
	{"vectorize_int_cells", `Matrix int <1> a = with ([0] <= [i] < [8]) genarray([8], i * 3 + 1) transform vectorize i; print(a[5]);`,
		"vectorize i", "vectorize i: the genarray's cells are int; only float cells vectorize"},
	{"vectorize_int_cast", `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], (float)((int)(v[i] + 3.25))) transform vectorize i; print(r[5]);`,
		"vectorize i", "vectorize i: (int)(v[i] + 3.25) is int arithmetic"},
	{"vectorize_int_div", `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], 1.0 * (i / 2)) transform vectorize i; print(r[5]);`,
		"vectorize i", "vectorize i: (i / 2) is int arithmetic"},

	// The error cases loopir's own tests checked before its rewrites
	// stopped checking (split and reorder's are in loopir's errors_test.go).
	{"vectorize_split_outer", `Matrix float <1> r = with ([0] <= [i] < [16]) genarray([16], v[i]) transform split i by 4, iin, iout. vectorize iout; print(r[5]);`,
		"vectorize iout", "vectorize iout: needs a literal trip count divisible by 4, has one known only at run time"},
	{"unroll_not_dividing", `Matrix float <1> r = with ([0] <= [i] < [12]) genarray([12], v[i]) transform unroll i by 5; print(r[5]);`,
		"unroll i by 5", "unroll i by 5: needs a literal trip count divisible by 5, has 12"},

	// The rest of the rule table.
	{"reorder_not_adjacent", `Matrix float <3> m = with ([0, 0, 0] <= [i, j, k] < [2, 2, 2]) genarray([2, 2, 2], 0.0) transform reorder (k, i); print(m[1, 1, 1]);`,
		"reorder (k, i)", "reorder: the loops must be adjacent in one nest, have i, j, k"},
	{"reorder_twice", `Matrix float <2> m = with ([0, 0] <= [i, j] < [4, 4]) genarray([4, 4], 0.0) transform reorder (i, i); print(m[3, 1]);`,
		"reorder (i, i)", `reorder lists "i" twice`},
	{"vectorize_parallel_loop", `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], v[i]) transform parallelize i. vectorize i; print(r[5]);`,
		"vectorize i", "vectorize i: the loop is parallelized; a loop is vectorized or parallelized, not both"},
	{"parallelize_vector_loop", `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], v[i]) transform vectorize i. parallelize i; print(r[5]);`,
		"parallelize i", "parallelize i: the loop is vectorized"},
	{"split_user_call", `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], twice((float)i)) transform split i by 4, iin, iout; print(r[5]);`,
		"split i by 4, iin, iout", "split i: twice((float)i) does not lower to scalar C"},
	{"unroll_user_call", `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], twice((float)i)) transform unroll i by 2; print(r[5]);`,
		"unroll i by 2", "unroll i: twice((float)i) does not lower to scalar C"},
	{"tile_not_adjacent", `Matrix float <3> m = with ([0, 0, 0] <= [i, j, k] < [2, 2, 2]) genarray([2, 2, 2], 0.0) transform tile i by 2, k by 2; print(m[1, 1, 1]);`,
		"tile i by 2, k by 2", "tile: i and k must be adjacent in one nest, have i, j, k"},
	{"tile_name_collision", `Matrix float <3> m = with ([0, 0, 0] <= [x, y, xin] < [2, 2, 2]) genarray([2, 2, 2], 0.0) transform tile x by 2, y by 2; print(m[1, 1, 1]);`,
		"tile x by 2, y by 2", `tile name "xin" collides with an existing loop index`},
	{"split_names_nested_fold_index", `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], with ([0] <= [k] < [4]) fold(+, 0.0, v[i + k])) transform split i by 4, k, iout; print(r[5]);`,
		"split i by 4, k, iout", `split name "k" collides with a nested fold's index`},
	{"vectorize_nested_fold_rebinds_index", `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], with ([0] <= [i] < [4]) fold(+, 0.0, v[i])) transform vectorize i; print(r[5]);`,
		"vectorize i", "vectorize i: a nested fold rebinds i"},
	{"split_shadows_variable", `int k = 100; Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], (float)(i + k)) transform split i by 4, k, iout; print(r[5]);`,
		"split i by 4, k, iout", `split name "k" collides with a name in scope`},
	{"tile_nonzero_lower", `Matrix float <2> m = with ([0, 1] <= [x, y] < [n, n]) genarray([n, n], 0.0) transform tile x by 2, y by 2; print(m[1, 1]);`,
		"tile x by 2, y by 2", "tile y: the loop must start at a literal 0"},
	{"tile_after_unroll", `Matrix float <2> m = with ([0, 0] <= [x, y] < [4, 4]) genarray([4, 4], 0.0) transform unroll x by 2. tile x by 2, y by 2; print(m[1, 1]);`,
		"tile x by 2, y by 2", "tile: the nest is not perfect below x"},
}

func TestTransformLegality(t *testing.T) {
	gcc := haveGCC()
	for _, p := range legalityProbes {
		t.Run(p.name, func(t *testing.T) {
			src := legalityProg(p.stmts)
			d := driver.New()
			var vmOut bytes.Buffer
			run, err := d.Run(context.Background(), driver.RunRequest{Name: "t.xc", Source: src,
				Exts: parser.AllExtensions(), Threads: 1, Stdout: &vmOut})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			comp := d.Compile(context.Background(), driver.CompileRequest{Name: "t.xc", Source: src,
				Exts: parser.AllExtensions(), Codegen: cgen.Options{Par: cgen.ParPthread, Optimize: true}})
			if run.OK != comp.OK || strings.Join(run.Diagnostics, "\n") != strings.Join(comp.Diagnostics, "\n") {
				t.Fatalf("verdicts differ:\ncmrun: ok=%v %q\ncmc:   ok=%v %q", run.OK, run.Diagnostics, comp.OK, comp.Diagnostics)
			}
			if p.clause == "" {
				if !run.OK {
					t.Fatalf("rejected: %q", run.Diagnostics)
				}
				if gcc {
					if got := runC(t, comp.Output, t.TempDir(), nil); got != vmOut.String() {
						t.Fatalf("generated C printed %q, the VM %q", got, vmOut.String())
					}
				}
				return
			}
			if run.OK {
				t.Fatalf("accepted; want a rejection at %q", p.clause)
			}
			at := strings.Index(src, p.clause)
			line := strings.Count(src[:at], "\n") + 1
			col := at - strings.LastIndex(src[:at], "\n")
			pos := fmt.Sprintf("t.xc:%d:%d: error: ", line, col)
			for _, d := range run.Diagnostics {
				if !strings.HasPrefix(d, pos) {
					t.Errorf("diagnostic %q is not at the clause, %s", d, pos)
				}
			}
			diags := strings.Join(run.Diagnostics, "\n")
			if !strings.HasPrefix(diags, pos+p.want) {
				t.Errorf("diagnostics %q, want them to start %q", diags, pos+p.want)
			}
			for _, bad := range []string{"u_", "loopir:", ":1:1:"} {
				if strings.Contains(diags, bad) {
					t.Errorf("diagnostics %q contain %q", diags, bad)
				}
			}
		})
	}
}

func haveGCC() bool {
	_, err := exec.LookPath("gcc")
	return err == nil
}

// runC compiles generated C with gcc and flags, runs it at two pool
// threads in dir after writing files there, and returns its stdout.
func runC(t *testing.T, csrc, dir string, files map[string]*matrix.Matrix, flags ...string) string {
	t.Helper()
	for name, m := range files {
		if err := matio.WriteFile(filepath.Join(dir, name), m); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(gccBuild(t, csrc, flags...), "-t", "2")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("compiled program: %v\n%s", err, stderr.String())
	}
	return string(out)
}

// compileC translates src at -par pthread through the driver.
func compileC(t *testing.T, src string) string {
	t.Helper()
	res := driver.New().Compile(context.Background(), driver.CompileRequest{Name: "t.xc", Source: src,
		Exts: parser.AllExtensions(), Codegen: cgen.Options{Par: cgen.ParPthread, Optimize: true}})
	if !res.OK {
		t.Fatalf("cmc: %q", res.Diagnostics)
	}
	return res.Output
}

// Fig 9 on the corpus's 9×10×12 cube: split j by 4 leaves columns 8
// and 9, which the remainder nest computes. Every mean equals the VM's
// bit for bit (the generated C sums in the VM's doubles).
func TestSplitRemainderCompiledMatchesVM(t *testing.T) {
	if !haveGCC() {
		t.Skip("gcc not available")
	}
	cube := sshCube(9, 10, 12, 5)
	vmFiles := map[string]*matrix.Matrix{"ssh.data": cube}
	res, err := driver.New().Run(context.Background(), driver.RunRequest{Name: "t.xc",
		Source: fig9TransformMeanSrc, Exts: parser.AllExtensions(), Threads: 1, Files: vmFiles, Stdout: &bytes.Buffer{}})
	if err != nil || !res.OK {
		t.Fatalf("VM: %v %q", err, res.Diagnostics)
	}
	dir := t.TempDir()
	runC(t, compileC(t, fig9TransformMeanSrc), dir, map[string]*matrix.Matrix{"ssh.data": cube})
	got, err := matio.ReadFile(filepath.Join(dir, "means.data"))
	if err != nil {
		t.Fatal(err)
	}
	want := vmFiles["means.data"]
	if !got.SameShape(want) {
		t.Fatalf("C wrote shape %v, the VM %v", got.Shape(), want.Shape())
	}
	for k := 0; k < want.Size(); k++ {
		if got.GetFloat(k) != want.GetFloat(k) {
			t.Errorf("means cell %d (row %d, column %d): C %v, VM %v", k, k/10, k%10, got.GetFloat(k), want.GetFloat(k))
		}
	}
}

// tile x by 4, y by 4 at n = 6: the full 4×4 tile, then the rows past
// it, then the columns past it under the full rows — 36 cells of 5.
func TestTileRemainderCompiled(t *testing.T) {
	if !haveGCC() {
		t.Skip("gcc not available")
	}
	src := legalityProg(`Matrix float <2> r = with ([0, 0] <= [x, y] < [n, n]) genarray([n, n], 5.0) transform tile x by 4, y by 4;
	print(with ([0, 0] <= [x, y] < [n, n]) fold(+, 0.0, r[x, y]));`)
	if got := runC(t, compileC(t, src), t.TempDir(), nil); got != "180\n" {
		t.Fatalf("generated C printed %q, want 180", got)
	}
}
