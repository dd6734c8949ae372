package sem

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/attr"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/types"
)

// checkSrc parses and checks a program, returning the info and diags.
func checkSrc(t *testing.T, src string) (*ast.Program, *Info, *source.Diagnostics) {
	t.Helper()
	var d source.Diagnostics
	prog := parser.ParseFile("t.xc", src, parser.AllExtensions(), &d)
	if prog == nil {
		t.Fatalf("parse failed:\n%s", d.String())
	}
	info := Check(prog, &d)
	return prog, info, &d
}

func mustCheck(t *testing.T, src string) (*ast.Program, *Info) {
	t.Helper()
	prog, info, d := checkSrc(t, src)
	if d.HasErrors() {
		t.Fatalf("unexpected errors:\n%s", d.String())
	}
	return prog, info
}

func mustFail(t *testing.T, src, wantSubstr string) {
	t.Helper()
	_, _, d := checkSrc(t, src)
	if !d.HasErrors() {
		t.Fatalf("expected error containing %q, got none", wantSubstr)
	}
	if !strings.Contains(d.String(), wantSubstr) {
		t.Fatalf("expected error containing %q, got:\n%s", wantSubstr, d.String())
	}
}

const fig1 = `
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

func TestFig1TypeChecks(t *testing.T) {
	prog, info := mustCheck(t, fig1)
	fn := prog.Decls[0].(*ast.FuncDecl)
	var w *ast.WithLoop
	for _, s := range fn.Body.Stmts {
		if a, ok := s.(*ast.AssignStmt); ok {
			if wl, ok := a.RHS.(*ast.WithLoop); ok {
				w = wl
			}
		}
	}
	got := info.TypeOf(w)
	if !types.Equal(got, types.MatrixOf(types.FloatT, 2)) {
		t.Errorf("with-loop type = %s, want Matrix float <2>", got)
	}
	// The fold body mat[i,j,k] is a scalar float.
	fo := w.Op.(*ast.GenArrayOp).Body.(*ast.BinaryExpr).L.(*ast.WithLoop).Op.(*ast.FoldOp)
	if ty := info.TypeOf(fo.Body); !types.Equal(ty, types.FloatT) {
		t.Errorf("fold body type = %s, want float", ty)
	}
}

const fig8 = `
(Matrix float <1>, int, int) getTrough(Matrix float <1> ts, int i) {
	int beginning = i;
	int n = dimSize(ts, 0);
	while (i + 1 < n && ts[i] >= ts[i + 1])
		i = i + 1;
	while (i + 1 < n && ts[i] < ts[i + 1])
		i = i + 1;
	return (ts[beginning :: i], beginning, i);
}

Matrix float <1> computeArea(Matrix float <1> areaOfInterest) {
	float y1 = areaOfInterest[0];
	float y2 = areaOfInterest[end];
	int x1 = 0;
	int x2 = dimSize(areaOfInterest, 0) - 1;
	float m = (y1 - y2) / (float)(x1 - x2);
	float b = y1 - m * x1;
	Matrix float <1> Line = [x1 :: x2] * m + b;
	float area = with ([0] <= [i] < [dimSize(Line, 0)])
		fold(+, 0.0, Line[i] - areaOfInterest[i]);
	return with ([0] <= [i] < [dimSize(Line, 0)])
		genarray([dimSize(Line, 0)], area);
}

Matrix float <1> scoreTS(Matrix float <1> ts) {
	Matrix float <1> scores = init(Matrix float <1>, dimSize(ts, 0));
	int i = 0;
	while (ts[i] < ts[i + 1])
		i = i + 1;
	int n = dimSize(ts, 0);
	int beginning = 0;
	Matrix float <1> trough;
	while (i < n - 1) {
		(trough, beginning, i) = getTrough(ts, i);
		scores[beginning : i] = computeArea(trough);
	}
	return scores;
}

int main() {
	Matrix float <3> data = readMatrix("ssh.data");
	Matrix float <3> scores;
	scores = matrixMap(scoreTS, data, [2]);
	writeMatrix("temporalScores.data", scores);
	return 0;
}
`

func TestFig8TypeChecks(t *testing.T) {
	_, info := mustCheck(t, fig8)
	if sig, ok := info.Funcs["getTrough"]; !ok {
		t.Error("getTrough signature missing")
	} else if sig.Type.Ret.Kind != types.Tuple {
		t.Errorf("getTrough returns %s, want tuple", sig.Type.Ret)
	}
}

func TestMatrixMapTyping(t *testing.T) {
	prog, info := mustCheck(t, `
Matrix int <2> connComp(Matrix float <2> s) {
	return init(Matrix int <2>, dimSize(s, 0), dimSize(s, 1));
}
int main() {
	Matrix float <3> ssh = readMatrix("x");
	Matrix int <3> labels = matrixMap(connComp, ssh, [0, 1]);
	return 0;
}
`)
	main := prog.Decls[1].(*ast.FuncDecl)
	d := main.Body.Stmts[1].(*ast.DeclStmt)
	got := info.TypeOf(d.Init)
	// element type from connComp's result, rank from the argument.
	if !types.Equal(got, types.MatrixOf(types.IntT, 3)) {
		t.Errorf("matrixMap type = %s, want Matrix int <3>", got)
	}
}

func TestIndexingTypes(t *testing.T) {
	prog, info := mustCheck(t, `
int main() {
	Matrix float <3> d = readMatrix("x");
	float a = d[6, 4, 1];
	Matrix float <3> b = d[0:4, end-4:end, 0:4];
	Matrix float <1> c = d[0, end, :];
	Matrix int <1> v = [0 :: 9];
	Matrix float <2> e = d[v % 2 == 1, :, 0];
	return 0;
}
`)
	main := prog.Decls[0].(*ast.FuncDecl)
	wants := []struct {
		i    int
		want *types.Type
	}{
		{1, types.FloatT},
		{2, types.MatrixOf(types.FloatT, 3)},
		{3, types.MatrixOf(types.FloatT, 1)},
		{4, types.MatrixOf(types.IntT, 1)},
		{5, types.MatrixOf(types.FloatT, 2)},
	}
	for _, w := range wants {
		d := main.Body.Stmts[w.i].(*ast.DeclStmt)
		if got := info.TypeOf(d.Init); !types.Equal(got, w.want) {
			t.Errorf("stmt %d init type = %s, want %s", w.i, got, w.want)
		}
	}
}

func TestSemanticErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undeclared", `int main() { return x; }`, "undeclared variable"},
		{"undeclared func", `int main() { return f(); }`, "undeclared function"},
		{"bad arity", `int f(int a) { return a; } int main() { return f(); }`, "expects 1 argument"},
		{"rank mismatch add", `int main() {
			Matrix float <2> a = init(Matrix float <2>, 2, 2);
			Matrix float <3> b = init(Matrix float <3>, 2, 2, 2);
			Matrix float <2> c = a + b;
			return 0; }`, "equal rank"},
		{"matmul rank", `int main() {
			Matrix float <3> a = init(Matrix float <3>, 2, 2, 2);
			Matrix float <3> c = a * a;
			return 0; }`, "rank-2"},
		{"with arity", `int main() {
			Matrix float <2> m;
			m = with ([0, 0] <= [i] < [4, 4]) genarray([4, 4], 0.0);
			return 0; }`, "arity mismatch"},
		{"genarray dims", `int main() {
			Matrix float <1> m;
			m = with ([0] <= [i] < [4]) genarray([4, 4], 0.0);
			return 0; }`, "genarray shape"},
		{"index count", `int main() {
			Matrix float <2> m = init(Matrix float <2>, 2, 2);
			float x = m[0];
			return 0; }`, "requires 2 index"},
		{"end outside", `int main() { int x = end; return x; }`, "'end' is only valid"},
		{"assign mismatch", `int main() {
			Matrix int <1> m = init(Matrix int <1>, 3);
			Matrix float <1> f = init(Matrix float <1>, 3);
			m = f;
			return 0; }`, "cannot assign"},
		{"destructure arity", `(int, int) f() { return (1, 2); }
			int main() { int a; int b; int c; (a, b, c) = f(); return 0; }`, "destructure"},
		{"cond not bool", `int main() { if (1) { return 0; } return 1; }`, "must be bool"},
		{"break outside", `int main() { break; return 0; }`, "outside a loop"},
		{"dup decl", `int main() { int x = 1; int x = 2; return x; }`, "already declared"},
		{"void var", `int main() { void v; return 0; }`, "void type"},
		{"return mismatch", `int main() { return 1.5; }`, "cannot return"},
		{"void return value", `void f() { return 3; } int main() { return 0; }`, "void function"},
		{"split bad index", `int main() {
			Matrix float <1> m;
			m = with ([0] <= [i] < [4]) genarray([4], 0.0) transform split q by 4, a, b;
			return 0; }`, "no loop index"},
		{"vectorize after split", `int main() {
			Matrix float <1> m;
			m = with ([0] <= [i] < [8]) genarray([8], 0.0)
				transform split i by 4, iin, iout. vectorize i;
			return 0; }`, "no loop index"},
		{"split name collision", `int main() {
			Matrix float <2> m;
			m = with ([0,0] <= [i,j] < [4,4]) genarray([4,4], 0.0) transform split i by 2, j, iout;
			return 0; }`, "collides"},
		{"matrixMap bad dim", `Matrix float <1> f(Matrix float <1> x) { return x; }
			int main() {
			Matrix float <2> m = init(Matrix float <2>, 2, 2);
			Matrix float <2> r = matrixMap(f, m, [5]);
			return 0; }`, "out of range"},
		{"matrixMap bad sig", `int g(int x) { return x; }
			int main() {
			Matrix float <2> m = init(Matrix float <2>, 2, 2);
			Matrix float <2> r = matrixMap(g, m, [0]);
			return 0; }`, "must take exactly one"},
		{"init wrong dims", `int main() {
			Matrix float <2> m = init(Matrix float <2>, 4);
			return 0; }`, "dimension size"},
		{"logical index rank", `int main() {
			Matrix float <2> m = init(Matrix float <2>, 2, 2);
			Matrix bool <2> b = m > 0.0;
			Matrix float <1> r = m[b, 0];
			return 0; }`, "logical index"},
		{"mod float", `int main() { float f = 1.5; int x = f % 2; return x; }`, "requires int"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { mustFail(t, c.src, c.want) })
	}
}

func TestValidPrograms(t *testing.T) {
	srcs := []string{
		// rc extension end to end
		`int main() { refcounted int * p = rcnew(41); rcset(p, rcget(p) + 1); return rcget(p); }`,
		// matrix/scalar broadcast and promotion
		`int main() {
			Matrix int <1> v = [0 :: 9];
			Matrix float <1> f = v * 2 + 0.5;
			return 0; }`,
		// bool matrix ops
		`int main() {
			Matrix float <2> m = init(Matrix float <2>, 3, 3);
			Matrix bool <2> b = (m > 1.0) && (m < 2.0);
			Matrix bool <2> c = !b;
			return 0; }`,
		// fold min/max over ints
		`int main() {
			Matrix int <1> v = [0 :: 9];
			int mx = with ([0] <= [i] < [10]) fold(max, 0, v[i]);
			int mn = with ([0] <= [i] < [10]) fold(min, 0, v[i]);
			return mx + mn; }`,
		// nested with-loop scoping: i and j visible in inner loop
		fig1,
		// shadowing in nested blocks
		`int main() { int x = 1; { int x = 2; x = 3; } return x; }`,
		// matrix elementwise .* at rank 3
		`int main() {
			Matrix float <3> a = init(Matrix float <3>, 2, 2, 2);
			Matrix float <3> b = a .* a;
			return 0; }`,
		// global variables
		`int g = 3; float h = 2.5; int main() { h = h + g; return g; }`,
	}
	for i, src := range srcs {
		_, _, d := checkSrc(t, src)
		if d.HasErrors() {
			t.Errorf("program %d should check:\n%s", i, d.String())
		}
	}
}

// TestTypesRecordedForAllExprs: the checker types every expression of
// every shipped program, with two exemptions, literals it reads as
// syntax and never types: matrixMap's dimensions and the factors of
// transform clauses.
func TestTypesRecordedForAllExprs(t *testing.T) {
	var paths []string
	for _, glob := range []string{"../../testdata/*.xc", "../../bench/programs/*.xc"} {
		more, _ := filepath.Glob(glob)
		paths = append(paths, more...)
	}
	if len(paths) < 20 {
		t.Fatalf("only %d programs found", len(paths))
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, info := mustCheck(t, string(raw))
		dims := map[ast.Expr]bool{}
		ast.Inspect(prog, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && !dims[e] && info.Types[e] == nil {
				t.Errorf("%s:%s: no type recorded for %s", path, e.Span().Start, ast.ExprString(e))
			}
			if m, ok := n.(*ast.MatrixMap); ok {
				for _, d := range m.Dims {
					dims[d] = true
				}
			}
			_, clause := n.(ast.TransformClause)
			return !clause
		})
	}
}

// --- MWDA over the real language specs (§VI-B: "All extensions
// described above pass this analysis.") ---

func TestRealSpecsPassMWDA(t *testing.T) {
	host := HostAG(hostBuiltins())
	if r := attr.CheckWellDefined(host, MatrixAG()); !r.Passed {
		t.Errorf("matrix semantic spec must pass MWDA: %s", r)
	}
	// The transform extension builds on host ∪ matrix.
	merged := HostAG(hostBuiltins())
	m := MatrixAG()
	merged.NTs = append(merged.NTs, m.NTs...)
	merged.Attrs = append(merged.Attrs, m.Attrs...)
	merged.Occurs = append(merged.Occurs, m.Occurs...)
	merged.Prods = append(merged.Prods, m.Prods...)
	merged.SynEqs = append(merged.SynEqs, m.SynEqs...)
	merged.InhEqs = append(merged.InhEqs, m.InhEqs...)
	for i := range merged.Prods {
		merged.Prods[i].Owner = ""
	}
	if r := attr.CheckWellDefined(merged, TransformAG()); !r.Passed {
		t.Errorf("transform semantic spec must pass MWDA: %s", r)
	}
}

func TestComposedSemanticGrammarComplete(t *testing.T) {
	g, err := Grammar()
	if err != nil {
		t.Fatal(err)
	}
	if missing := g.CheckComplete(); len(missing) != 0 {
		t.Errorf("composed semantic grammar incomplete:\n%s", strings.Join(missing, "\n"))
	}
}

// A check allocates per tree node: the node, its slot values, the
// child slice, the occasional boxed attribute value and scope — 3.7 per
// node on fig1 (64 nodes, 237 allocations; the map-per-node evaluator
// paid 1099 for the same check, composition included). The bound leaves
// a third of headroom and is below what one lazily made map per node
// would add (two allocations: header and first bucket).
func TestCheckAllocsPerNode(t *testing.T) {
	prog, _ := mustCheck(t, fig1)
	g, err := Grammar()
	if err != nil {
		t.Fatal(err)
	}
	var count func(n *attr.Tree) int
	count = func(n *attr.Tree) int {
		total := 1
		for i := 0; i < n.NumChildren(); i++ {
			total += count(n.Child(i))
		}
		return total
	}
	root, _ := BuildTree(g, prog)
	nodes := count(root)
	allocs := testing.AllocsPerRun(50, func() {
		var d source.Diagnostics
		Check(prog, &d)
	})
	perNode := allocs / float64(nodes)
	t.Logf("%d nodes, %.0f allocations per check, %.2f per node", nodes, allocs, perNode)
	const bound = 5.0
	if perNode > bound {
		t.Errorf("%.2f allocations per attr.Tree node (%d nodes, %.0f allocations), want <= %.1f",
			perNode, nodes, allocs, bound)
	}
}
