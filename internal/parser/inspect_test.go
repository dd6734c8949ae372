package parser_test

import (
	goast "go/ast"
	goparser "go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

// everyKind uses the node kinds, clauses and types the shipped programs
// do not: it need only parse.
const everyKind = `
(int, refcounted float *) pair(refcounted int * p, Matrix float <2> m) { return (rcget(p), rcnew(1.5)); }
Matrix float <2> g = init(Matrix float <2>, 4, 4);
int main() {
	Matrix float <2> m = with ([0, 0] <= [i, j] < [8, 8]) genarray([8, 8], (float)(i + j))
		transform tile i by 2, j by 4. unroll j by 2. reorder (j, i). split i by 2, ii, io. vectorize j. parallelize i;
	Matrix float <1> r = m[1:end, 0] + m[:, -1];
	refcounted float * y = rcnew(0.5);
	(x, y) = pair(rcnew(1), readMatrix("m.dat"));
	for (int k = 0; k < 3; k = k + 1) { if (!(k == 1)) continue; else break; }
	while (false) { spawn x = fib(1); sync; }
	print(matrixMapG(f, m, [0]) .* [0 :: 3]);
	return with ([0] <= [i] < [4]) fold(max, 0, i);
}
`

// reachable counts the paths from n to every non-nil node through
// struct fields, slices and interfaces: the children Inspect must list.
// A node has more than one path where the parser shares it: x++ is
// x = x + 1 with one x.
func reachable(n ast.Node) map[ast.Node]int {
	nodeT := reflect.TypeOf((*ast.Node)(nil)).Elem()
	paths := map[ast.Node]int{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Pointer:
			if !v.IsNil() && v.Type().Implements(nodeT) {
				paths[v.Interface().(ast.Node)]++
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i))
			}
		case reflect.Slice:
			for i := range v.Len() {
				walk(v.Index(i))
			}
		}
	}
	walk(reflect.ValueOf(n))
	return paths
}

// checkInspect fails t unless ast.Inspect visits every node reachable
// from prog once for each path to it, and nothing else.
func checkInspect(t *testing.T, name string, prog *ast.Program) {
	t.Helper()
	want := reachable(prog)
	visits := map[ast.Node]int{}
	ast.Inspect(prog, func(n ast.Node) bool {
		visits[n]++
		return true
	})
	for n, k := range visits {
		if k != want[n] {
			t.Errorf("%s: Inspect visits %T at %s %d times, want %d", name, n, n.Span().Start, k, want[n])
		}
	}
	for n := range want {
		if visits[n] == 0 {
			t.Errorf("%s: Inspect misses %T at %s", name, n, n.Span().Start)
		}
	}
}

// TestInspectVisitsEveryNode holds ast.Inspect to the trees of the
// shipped programs and of everyKind, before and after the checker runs
// over them: a field an extension adds without teaching Inspect fails.
func TestInspectVisitsEveryNode(t *testing.T) {
	srcs := map[string]string{"everyKind.xc": everyKind}
	for _, glob := range []string{"../../testdata/*.xc", "../../bench/programs/*.xc"} {
		paths, _ := filepath.Glob(glob)
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			srcs[p] = string(raw)
		}
	}
	if len(srcs) < 20 {
		t.Fatalf("only %d programs found", len(srcs))
	}
	kinds := map[string]bool{}
	for name, src := range srcs {
		var diags source.Diagnostics
		prog := parser.ParseFile(name, src, parser.AllExtensions(), &diags)
		if prog == nil {
			t.Fatalf("%s: %s", name, diags.String())
		}
		checkInspect(t, name, prog)
		sem.Check(prog, &diags)
		checkInspect(t, name, prog)
		for n := range reachable(prog) {
			kinds[reflect.TypeOf(n).Elem().Name()] = true
		}
	}
	for _, kind := range nodeKinds(t) {
		if !kinds[kind] {
			t.Errorf("no program has an ast.%s: add one to everyKind", kind)
		}
	}
}

// nodeKinds lists the node types internal/ast declares: the structs
// that embed Base.
func nodeKinds(t *testing.T) []string {
	f, err := goparser.ParseFile(token.NewFileSet(), "../ast/ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	goast.Inspect(f, func(n goast.Node) bool {
		if ts, ok := n.(*goast.TypeSpec); ok {
			if st, ok := ts.Type.(*goast.StructType); ok && slices.ContainsFunc(st.Fields.List, func(f *goast.Field) bool {
				id, ok := f.Type.(*goast.Ident)
				return len(f.Names) == 0 && ok && id.Name == "Base"
			}) {
				out = append(out, ts.Name.Name)
			}
		}
		return true
	})
	if len(out) < 40 {
		t.Fatalf("found only %d node types in ast.go", len(out))
	}
	return out
}
