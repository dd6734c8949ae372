// Split and Reorder apply what the transform extension's semantic
// rules accepted and check nothing themselves, so the clauses they
// cannot apply are rejected before they run: by the check cmrun and
// cmvet run (driver.Run) and by cmc (driver.Compile), with the same
// diagnostics, at the clause's line:col and in source names.
package loopir_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cgen"
	"repro/internal/driver"
	"repro/internal/parser"
)

// rejects checks that a main holding stmts is rejected at clause, and
// that the first diagnostic starts with want.
func rejects(t *testing.T, stmts, clause, want string) {
	t.Helper()
	src := "int main() {\n\tMatrix float <1> v = with ([0] <= [i] < [16]) genarray([16], (float)i);\n\t" +
		stmts + "\n\treturn 0;\n}\n"
	d := driver.New()
	run, err := d.Run(context.Background(), driver.RunRequest{Name: "t.xc", Source: src,
		Exts: parser.AllExtensions(), Threads: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	comp := d.Compile(context.Background(), driver.CompileRequest{Name: "t.xc", Source: src,
		Exts: parser.AllExtensions(), Codegen: cgen.Options{Par: cgen.ParPthread}})
	if run.OK || comp.OK {
		t.Fatalf("%s: accepted (cmrun ok=%v, cmc ok=%v); want a rejection", clause, run.OK, comp.OK)
	}
	diags := strings.Join(run.Diagnostics, "\n")
	if cdiags := strings.Join(comp.Diagnostics, "\n"); cdiags != diags {
		t.Fatalf("%s: diagnostics differ:\ncmrun: %q\ncmc:   %q", clause, diags, cdiags)
	}
	at := strings.Index(src, clause)
	line := strings.Count(src[:at], "\n") + 1
	col := at - strings.LastIndex(src[:at], "\n")
	if pos := fmt.Sprintf("t.xc:%d:%d: error: ", line, col); !strings.HasPrefix(diags, pos+want) {
		t.Errorf("diagnostics %q, want them to start %q", diags, pos+want)
	}
}

func TestSplitErrors(t *testing.T) {
	rejects(t, `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], 0.0) transform split q by 4, a, b; print(r[5]);`,
		"split q by 4, a, b", `split: no loop index "q" in this with-loop (have i)`)
	rejects(t, `Matrix float <1> r = with ([0] <= [i] < [8]) genarray([8], 0.0) transform split i by 0, a, b; print(r[5]);`,
		"split i by 0, a, b", "split factor must be a positive integer")
}

func TestReorderErrors(t *testing.T) {
	// The Fig 9 nest: k is a nested fold's index, not one of the
	// genarray's loops, so (k, j) is not a perfect nest to permute.
	rejects(t, `Matrix float <2> m = with ([0, 0] <= [i, j] < [4, 4]) genarray([4, 4], with ([0] <= [k] < [3]) fold(+, 0.0, v[k])) transform reorder (k, j); print(m[3, 1]);`,
		"reorder (k, j)", `reorder: no loop index "k" in this with-loop (have i, j)`)
	rejects(t, `Matrix float <2> m = with ([0, 0] <= [i, j] < [4, 4]) genarray([4, 4], 0.0) transform reorder (i); print(m[3, 1]);`,
		"reorder (i)", "reorder needs at least two loop indices")
	rejects(t, `Matrix float <2> m = with ([0, 0] <= [i, j] < [4, 4]) genarray([4, 4], 0.0) transform reorder (a, b); print(m[3, 1]);`,
		"reorder (a, b)", `reorder: no loop index "a" in this with-loop (have i, j)`)
}
