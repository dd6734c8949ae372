// Tests for the with-loop compilation proofs: bodies inside the flat
// language must produce plans with the right leaf slots and fold
// kinds, and every construct the legality rules exclude must prove
// nothing.
package vet

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/matrix"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

// factsFor parses + checks src and computes the facts side table.
func factsFor(t *testing.T, src string) *Facts {
	t.Helper()
	var diags source.Diagnostics
	prog := parser.ParseFile("test.xc", src, parser.AllExtensions(), &diags)
	if prog == nil {
		t.Fatalf("parse failed: %v", diags.All())
	}
	info := sem.Check(prog, &diags)
	if diags.HasErrors() {
		t.Fatalf("unexpected sem errors: %v", diags.All())
	}
	return ComputeFacts(prog, info)
}

// sitesFor parses + checks src and lists its sites.
func sitesFor(t *testing.T, src string) []WithSite {
	t.Helper()
	var diags source.Diagnostics
	prog := parser.ParseFile("test.xc", src, parser.AllExtensions(), &diags)
	info := sem.Check(prog, &diags)
	if diags.HasErrors() {
		t.Fatalf("unexpected diagnostics: %v", diags.All())
	}
	return WithSites(prog, info)
}

// withs and chains split the table's plans by site.
func withs(f *Facts) map[*ast.WithLoop]*WithPlan {
	m := map[*ast.WithLoop]*WithPlan{}
	for e, p := range f.plans {
		if w, ok := e.(*ast.WithLoop); ok {
			m[w] = p
		}
	}
	return m
}

func chains(f *Facts) []*WithPlan {
	var ps []*WithPlan
	for e, p := range f.plans {
		if _, ok := e.(*ast.WithLoop); !ok {
			ps = append(ps, p)
		}
	}
	return ps
}

// names lists a slot file's leaves as the source writes them.
func names(leaves []ast.Expr) string {
	var s []string
	for _, l := range leaves {
		s = append(s, ast.ExprString(l))
	}
	return strings.Join(s, " ")
}

// onlyPlan asserts exactly one with-loop was proven and returns its plan.
func onlyPlan(t *testing.T, f *Facts) *WithPlan {
	t.Helper()
	if len(withs(f)) != 1 {
		t.Fatalf("with-loop plans = %d, want 1", len(withs(f)))
	}
	for _, wp := range withs(f) {
		return wp
	}
	panic("unreachable")
}

func TestWithPlanGenarrayBody(t *testing.T) {
	f := factsFor(t, `
int main() {
	int n = 8;
	int bias = 2;
	Matrix float <2> m;
	m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], (float)(i * n + j + bias) * 0.5);
	print(m[0, 0]);
	return 0;
}`)
	wp := onlyPlan(t, f)
	if wp.Fold {
		t.Fatal("genarray proven as fold")
	}
	if !wp.Float {
		t.Fatal("float body not marked Float")
	}
	// Scalar leaves n and bias intern into distinct int slots; n appears
	// twice in the source but once in the slot list.
	if got := names(wp.ScalarI); got != "n bias" {
		t.Fatalf("ScalarI = %s, want n bias", got)
	}
	if len(wp.Mats) != 0 || len(wp.ScalarF) != 0 {
		t.Fatalf("unexpected leaves: mats %s floats %s", names(wp.Mats), names(wp.ScalarF))
	}
}

func TestWithPlanFoldKindsAndLoads(t *testing.T) {
	for name, kind := range map[string]matrix.FoldKind{
		"+": matrix.FoldAdd, "*": matrix.FoldMul,
		"min": matrix.FoldMin, "max": matrix.FoldMax,
	} {
		f := factsFor(t, `
int main() {
	int n = 4;
	Matrix int <2> m;
	m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], i + j);
	int s = with ([0, 0] <= [i, j] < [n, n]) fold(`+name+`, 1, m[i, j]);
	print(s);
	return 0;
}`)
		if len(withs(f)) != 2 {
			t.Fatalf("%s: with-loop plans = %d, want 2", name, len(withs(f)))
		}
		var fold *WithPlan
		for _, wp := range withs(f) {
			if wp.Fold {
				fold = wp
			}
		}
		if fold == nil || fold.Kind != kind {
			t.Fatalf("%s: fold plan %+v, want kind %v", name, fold, kind)
		}
		if names(fold.Mats) != "m" || len(fold.MatElem) != 1 || fold.MatElem[0] != matrix.Int {
			t.Fatalf("%s: matrix leaves %s / %v", name, names(fold.Mats), fold.MatElem)
		}
	}
}

func TestWithPlanShiftedLoadIndices(t *testing.T) {
	f := factsFor(t, `
int main() {
	int n = 8;
	Matrix float <2> m;
	m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 1.0);
	float s = with ([1, 1] <= [i, j] < [7, 7])
		fold(+, 0.0, m[i - 1, j] + m[i + 1, j] + m[i, j - 1] + m[i, j + 1]);
	print(s);
	return 0;
}`)
	if len(withs(f)) != 2 {
		t.Fatalf("with-loop plans = %d, want 2 (stencil indices are in the index language)", len(withs(f)))
	}
}

func TestWithPlanDeclines(t *testing.T) {
	for name, body := range map[string]string{
		"modulo_zero":        "i % 0",
		"modulo_variable":    "i % d",
		"division_zero":      "i / 0",
		"division_variable":  "i / d",
		"index_modulo_var":   "v[i % d]",
		"comparison":         "i", // placeholder; replaced below
		"call":               "(int)f(i)",
		"float_index":        "(int)g[(int)(0.5 * i)]", // cast inside index language
		"end_keyword":        "(int)g[end - i]",
		"nested_genarray":    "dimSize(with ([0] <= [k] < [3]) genarray([3], k + i), 0)",
		"nested_strip_bound": "with ([0] <= [k] < [i]) fold(+, 0, k)",
		"nested_call_bound":  "with ([0] <= [k] < [dimSize(v, 0)]) fold(+, 0, k)",
		"nested_call_body":   "with ([0] <= [k] < [3]) fold(+, 0, (int)f(k))",
	} {
		// f prints: a call of it is no pure scalar function's.
		src := `
float f(int i) { print(i); return (float)i; }
int main() {
	int d = 3;
	Matrix int <1> v = [0 :: 7];
	Matrix float <1> g = [0 :: 7] * 1.0;
	Matrix int <1> m;
	m = with ([0] <= [i] < [8]) genarray([8], ` + body + `);
	print(m[0] + v[0] + d);
	print(g[0]);
	return 0;
}`
		if name == "comparison" {
			src = `
int main() {
	Matrix bool <1> m;
	m = with ([0] <= [i] < [8]) genarray([8], i < 4);
	print(1);
	return 0;
}`
		}
		t.Run(name, func(t *testing.T) {
			f := factsFor(t, src)
			for w, wp := range withs(f) {
				if !wp.Fold && len(w.Ids) == 1 && w.Ids[0] == "i" {
					t.Errorf("body %q proved a genarray plan: %+v", body, wp)
				}
			}
		})
	}
}

// TestWithPlanLiteralDivisors pins what `%` and int `/` admit: a
// non-zero integer literal, negated or not, in bodies and in indices.
func TestWithPlanLiteralDivisors(t *testing.T) {
	f := factsFor(t, `
int main() {
	Matrix int <1> v = [0 :: 7];
	Matrix int <1> m;
	m = with ([0] <= [i] < [8]) genarray([8], (i - 4) % 3 + (i - 4) / -2 + i % 1 + v[(i * 5) % 8] + v[i / 2]);
	print(m[0]);
	return 0;
}`)
	wp := onlyPlan(t, f)
	var divs, mods []int64
	for _, in := range wp.Code {
		switch in.Op {
		case matrix.WDivI:
			divs = append(divs, in.K)
		case matrix.WModI:
			mods = append(mods, in.K)
		}
	}
	if len(divs) != 2 || divs[0] != -2 || divs[1] != 2 {
		t.Errorf("WDivI literals = %v, want [-2 2]", divs)
	}
	if len(mods) != 3 || mods[0] != 3 || mods[1] != 1 || mods[2] != 8 {
		t.Errorf("WModI literals = %v, want [3 1 8]", mods)
	}
}

// TestWithPlanNestedFold pins the bracket encoding of a fold nested in
// a genarray body: the paper's Fig 1 shape proves as one outer plan,
// and the inner fold keeps a plan of its own for the closure path.
func TestWithPlanNestedFold(t *testing.T) {
	f := factsFor(t, `
int main() {
	int p = 4;
	Matrix float <3> mat = init(Matrix float <3>, 2, 3, 4);
	Matrix float <2> means;
	means = with ([0, 0] <= [i, j] < [2, 3])
		genarray([2, 3], with ([0] <= [k] < [p]) fold(+, 0, mat[i, j, k]) / p);
	print(means[0, 0]);
	return 0;
}`)
	if len(withs(f)) != 2 {
		t.Fatalf("with-loop plans = %d, want 2 (outer genarray and inner fold)", len(withs(f)))
	}
	var outer *WithPlan
	for _, wp := range withs(f) {
		if !wp.Fold {
			outer = wp
		}
	}
	if outer == nil {
		t.Fatal("outer genarray not proven")
	}
	begin, end := -1, -1
	for pc, in := range outer.Code {
		switch in.Op {
		case matrix.WFoldF:
			begin = pc
			if in.A != 1 || in.B != 2 || in.Kind != matrix.FoldAdd {
				t.Errorf("bracket %+v, want 1 id numbered from 2, kind +", in)
			}
		case matrix.WFoldI:
			t.Errorf("int bracket for a float fold at pc %d", pc)
		case matrix.WFoldEnd:
			end = pc
		}
	}
	if begin < 0 || end < begin || int(outer.Code[begin].K) != end || int(outer.Code[end].A) != begin {
		t.Fatalf("brackets at %d/%d do not point at each other: %+v", begin, end, outer.Code)
	}
	// The int base is promoted before the bracket opens, and the body
	// reads the fold's own id as id 2.
	if outer.Code[0].Op != matrix.WPushInt || outer.Code[1].Op != matrix.WI2F {
		t.Errorf("base not promoted up front: %+v", outer.Code[:2])
	}
	sawInnerID := false
	for _, in := range outer.Code[begin:end] {
		if in.Op == matrix.WPushID && in.A == 2 {
			sawInnerID = true
		}
	}
	if !sawInnerID {
		t.Error("bracketed body never pushes the fold's id")
	}
	if got := names(outer.ScalarI); got != "p" {
		t.Errorf("ScalarI = %s, want p (bound and divisor share the slot)", got)
	}
}

// TestWithPlanNestedMinMaxPromotes: a nested min or max of an int body
// from a float base is a float fold like any other — its int body
// promoted per element, the value the closure path computes — so it is
// proven, not declined.
func TestWithPlanNestedMinMaxPromotes(t *testing.T) {
	for _, kind := range []string{"min", "max"} {
		f := factsFor(t, `
int main() {
	Matrix int <1> m;
	m = with ([0] <= [i] < [8]) genarray([8], (int)(with ([0] <= [k] < [3]) fold(`+kind+`, 9.5, k + i)));
	print(m[0]);
	return 0;
}`)
		var outer *WithPlan
		for _, wp := range withs(f) {
			if !wp.Fold {
				outer = wp
			}
		}
		if outer == nil {
			t.Fatalf("%s: the genarray is not proven", kind)
		}
		end := slices.IndexFunc(outer.Code, func(in matrix.WithInstr) bool { return in.Op == matrix.WFoldEnd })
		if end < 1 {
			t.Fatalf("%s: no fold bracket in %+v", kind, outer.Code)
		}
		open := outer.Code[outer.Code[end].A]
		if open.Op != matrix.WFoldF || open.Kind.String() != kind || outer.Code[end-1].Op != matrix.WI2F {
			t.Errorf("%s: bracket %+v, body ends %+v: want a float %s fold promoting its body", kind, open, outer.Code[end-1], kind)
		}
	}
}

// TestWithPlanTransformsRunFlat: transform clauses rewrite only the C
// back end's loop nest, so they are no reason to decline — Fig 9's site
// is flat.
func TestWithPlanTransformsRunFlat(t *testing.T) {
	f := factsFor(t, `
int main() {
	int n = 4;
	Matrix float <2> m;
	m = with ([0, 0] <= [i, j] < [n, n])
		genarray([n, n], (float)(i + j))
		transform
			parallelize i;
	print(m[0, 0]);
	return 0;
}`)
	if wp := onlyPlan(t, f); wp.Fold || !wp.Float {
		t.Errorf("plan %+v, want a float genarray", wp)
	}
}

// TestWithPlanUnboundGlobalDeclines: in a global initializer a leaf may
// name an earlier global, and not a later one or the global being
// initialized — they are not bound yet, and the closure path fails
// "undeclared" there. A with-loop in a function reads any global.
func TestWithPlanUnboundGlobalDeclines(t *testing.T) {
	sites := sitesFor(t, `
int n = 4;
Matrix float <1> early = [0 :: 3] * 0.5;
Matrix float <1> a = with ([0] <= [i] < [n]) genarray([n], early[i] * 2.0);
Matrix float <1> b = with ([0] <= [i] < [n]) genarray([n], a[i] + late[i]);
float self = with ([0] <= [i] < [0]) fold(+, 1.5, (float)i * self);
int k = with ([0] <= [i] < [2]) fold(+, 0, with ([0] <= [j] < [later]) fold(+, i, j));
Matrix float <1> late = [0 :: 3] * 1.0;
int later = 2;
float f() { return with ([0] <= [i] < [n]) fold(+, 0.0, late[i] * (float)later); }
int main() {
	print(f());
	return 0;
}`)
	var got []string
	for _, s := range sites {
		if _, ok := s.At.(*ast.WithLoop); ok {
			got = append(got, fmt.Sprintf("%s %s %s", s.At.Span().Start, s.Decline.Rule, s.Decline.Span.Start))
		}
	}
	want := []string{
		"4:22  0:0",
		"5:22 global not bound yet 5:67",
		"6:14 global not bound yet 6:62",
		"7:44  0:0", // its own bound is no leaf of its plan
		"7:9 global not bound yet 7:64",
		"10:20  0:0",
	}
	if !slices.Equal(got, want) {
		t.Errorf("sites:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestChainPlanUnboundGlobalDeclines: a chain's leaves are interned as a
// with-loop's are, so in a global initializer, or in a function one
// calls, a leaf naming the global being initialized or a later one
// declines, and the finder tries the root's operands in turn. In a
// function only main reaches, a chain reads any global.
func TestChainPlanUnboundGlobalDeclines(t *testing.T) {
	var got []string
	for _, s := range sitesFor(t, `
Matrix float <1> early = [0 :: 3] * 0.5;
Matrix float <1> c = early * 2.0 + late;
Matrix float <1> d = h();
Matrix float <1> late = [0 :: 3] * 1.0;
Matrix float <1> f() { return early * 2.0 + late; }
Matrix float <1> g() { return early * 2.0 + late; }
Matrix float <1> h() { return g(); }
int main() {
	print(c[0] + d[0] + f()[0]);
	return 0;
}`) {
		got = append(got, fmt.Sprintf("%s %s %s", s.At.Span().Start, s.Decline.Rule, s.Decline.Span.Start))
	}
	want := []string{
		"2:26  0:0",
		"3:22 global not bound yet 3:36",
		"3:22 one stage of identifiers 3:22",
		"5:25  0:0",
		"6:31  0:0",
		"7:31 global not bound yet 7:45",
		"7:31 one stage of identifiers 7:31",
	}
	if !slices.Equal(got, want) {
		t.Errorf("sites:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestWithPlanShapeArityDeclines: a genarray whose shape has not one
// extent an id — a program the checker rejects — proves nothing.
func TestWithPlanShapeArityDeclines(t *testing.T) {
	var diags source.Diagnostics
	prog := parser.ParseFile("test.xc", `
int main() {
	Matrix int <1> m;
	m = with ([0, 0] <= [i, j] < [2, 2]) genarray([4], i + j);
	return 0;
}`, parser.AllExtensions(), &diags)
	sites := WithSites(prog, sem.Check(prog, &diags))
	if len(sites) != 1 || sites[0].Plan != nil || sites[0].Decline.Rule != "shape arity" || sites[0].Decline.Span.Start.String() != "4:39" {
		t.Errorf("sites %+v, want one declined for its shape arity at 4:39", sites)
	}
}

func TestWithPlanVerifyRoundTrip(t *testing.T) {
	// Every proven plan must compile on the flat engine — the two layers
	// implement the same language, fold brackets included.
	f := factsFor(t, `
int main() {
	int n = 6;
	Matrix int <2> a;
	a = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], (i * 10 + j) % 7);
	Matrix int <2> tr;
	tr = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], a[j, i]);
	int s = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0, a[i, j] * tr[j, i]);
	print(s);
	Matrix float <1> rows;
	rows = with ([0] <= [i] < [n])
		genarray([n], with ([0, 0] <= [j, k] < [n, 2])
			fold(+, 0.5, a[i, j] * 1.0 + with ([0] <= [l] < [j + 1]) fold(max, 0, tr[l, j] / 2 + k)));
	print(rows[0]);
	int deep = with ([0] <= [i] < [n]) fold(*, 1, with ([0] <= [j] < [n]) fold(min, 9, a[i, j] - j));
	print(deep);
	return 0;
}`)
	if len(withs(f)) != 8 {
		t.Fatalf("with-loop plans = %d, want 8", len(withs(f)))
	}
	for w, wp := range withs(f) {
		_, ok := matrix.CompileWith(matrix.WithSpec{
			Code: wp.Code, Rank: len(w.Ids), MatElem: wp.MatElem,
			ScalarI: len(wp.ScalarI), ScalarF: len(wp.ScalarF),
			Float: wp.Float, OutFloat: wp.Float,
		})
		if !ok {
			t.Errorf("proven plan does not compile on the flat engine: %+v", wp)
		}
	}
}

// TestChainPlan: a proven chain is written in the with-loop plan
// language — every matrix leaf loaded at id 0 by its slot, literals as
// constants (an int literal on a float chain already a float), one
// arithmetic instruction per stage in post-order — and its leaves are
// interned as a with-loop's are: a name read twice has one slot.
func TestChainPlan(t *testing.T) {
	f := factsFor(t, `
int main() {
	Matrix float <2> a = init(Matrix float <2>, 2, 3);
	Matrix float <2> b = init(Matrix float <2>, 2, 3);
	int k = 3;
	Matrix float <2> r = a .* b + k * a - b / 2;
	print(r[0, 0]);
	return 0;
}`)
	if len(chains(f)) != 1 {
		t.Fatalf("chains = %d, want 1", len(chains(f)))
	}
	ch := chains(f)[0]
	load := func(slot int32) []matrix.WithInstr {
		return []matrix.WithInstr{{Op: matrix.WPushID}, {Op: matrix.WLoadF, A: slot, B: 1}}
	}
	var want []matrix.WithInstr
	want = append(want, load(0)...)
	want = append(want, load(1)...)
	want = append(want, matrix.WithInstr{Op: matrix.WMulF}, matrix.WithInstr{Op: matrix.WPushScalarF, A: 0})
	want = append(want, load(0)...)
	want = append(want, matrix.WithInstr{Op: matrix.WMulF}, matrix.WithInstr{Op: matrix.WAddF})
	want = append(want, load(1)...)
	want = append(want, matrix.WithInstr{Op: matrix.WPushFloat, F: 2}, matrix.WithInstr{Op: matrix.WDivF}, matrix.WithInstr{Op: matrix.WSubF})
	if !slices.Equal(ch.Code, want) {
		t.Errorf("plan\n got  %+v\n want %+v", ch.Code, want)
	}
	if got := leafString(ch); got != "a b |  | k" {
		t.Errorf("leaves by slot: %s", got)
	}
	if len(ch.Nodes) != 5 {
		t.Errorf("%d stage nodes, want 5", len(ch.Nodes))
	}
	if _, ok := matrix.CompileWith(ch.Spec()); !ok {
		t.Error("the strip compiler declines the plan")
	}
}

// leafString lists a plan's leaves by slot file: matrices, int scalars,
// float scalars (an int variable there is promoted).
func leafString(p *WithPlan) string {
	return names(p.Mats) + " | " + names(p.ScalarI) + " | " + names(p.ScalarF)
}

// planString writes a chain plan one word an instruction.
func planString(code []matrix.WithInstr) string {
	names := map[matrix.WithOp]string{
		matrix.WPushID: "id", matrix.WPushInt: "int", matrix.WPushFloat: "float",
		matrix.WPushScalarI: "sI", matrix.WPushScalarF: "sF", matrix.WLoadI: "loadI", matrix.WLoadF: "loadF",
		matrix.WAddI: "addI", matrix.WSubI: "subI", matrix.WMulI: "mulI", matrix.WI2F: "i2f",
		matrix.WAddF: "addF", matrix.WSubF: "subF", matrix.WMulF: "mulF", matrix.WDivF: "divF",
		matrix.WDivI: "divI", matrix.WModI: "modI", matrix.WNegI: "negI", matrix.WNegF: "negF", matrix.WF2I: "f2i",
		matrix.WCmpI: "cmpI", matrix.WCmpF: "cmpF", matrix.WSelI: "selI", matrix.WSelF: "selF",
		matrix.WFoldI: "foldI", matrix.WFoldF: "foldF", matrix.WFoldEnd: "end",
	}
	var words []string
	for _, in := range code {
		w := names[in.Op]
		switch in.Op {
		case matrix.WCmpI, matrix.WCmpF:
			w += matrix.Op(in.A).String()
		case matrix.WPushInt, matrix.WDivI, matrix.WModI:
			w += fmt.Sprint(in.K)
		case matrix.WPushFloat:
			w += fmt.Sprint(in.F)
		case matrix.WPushID, matrix.WPushScalarF, matrix.WLoadI, matrix.WLoadF:
			w += fmt.Sprint(in.A)
		case matrix.WPushScalarI:
			w += fmt.Sprint(in.A)
			if in.B != 0 {
				w += fmt.Sprint(":", in.B) // a chain range's lo, and its hi
			}
		}
		words = append(words, w)
	}
	return strings.Join(words, " ")
}

// TestChainPlanRangeAndPromotingLeaves: a range leaf is id 0 plus its lo
// (naming its hi's int slot, for admission alone), an int leaf
// of a float chain is followed by i2f, either makes one stage worth
// fusing, and the nodes count range leaves and stages together in plan
// order. The shapes the legality rules keep out stay out.
func TestChainPlanRangeAndPromotingLeaves(t *testing.T) {
	const decls = `
int two() { return 2; }
int main() {
	int x1 = 0;
	int x2 = 5;
	float m = 0.75;
	float b = 1.5;
	Matrix int <1> v = init(Matrix int <1>, 6);
	Matrix float <1> f = init(Matrix float <1>, 6);
`
	for _, tc := range []struct {
		name, typ, expr    string
		plan, leaves, node string
	}{
		{"fig8_line", "float", "[x1 :: x2] * m + b",
			"id0 sI0:1 addI i2f sF0 mulF sF1 addF", " | x1 x2 | m b", "range * +"},
		{"int_range", "int", "[x1 :: x2] * 3 + 1",
			"id0 sI0:1 addI int3 mulI int1 addI", " | x1 x2 | ", "range * +"},
		{"single_stage_literal_bounds", "float", "[0 :: 1048575] * 1.0",
			"id0 sI0:1 addI i2f float1 mulF", " | 0 1048575 | ", "range *"},
		{"scalar_left_and_division", "float", "b - [x1 :: x2] / 2.0",
			"sF0 id0 sI0:1 addI i2f float2 divF subF", " | x1 x2 | b", "range / -"},
		{"two_ranges_and_an_int_scalar", "float", "[x1 :: x2] * 0.5 + [1 :: 6] * m + x2 * f",
			"id0 sI0:1 addI i2f float0.5 mulF id0 sI2:3 addI i2f sF0 mulF addF sF1 id0 loadF0 mulF addF",
			"f | x1 x2 1 6 | m x2", "range * range * + * +"},
		{"ranges_sharing_a_bound", "float", "[x1 :: x2] * 0.5 + [6 :: x2] * m",
			"id0 sI0:1 addI i2f float0.5 mulF id0 sI2:1 addI i2f sF0 mulF addF", " | x1 x2 6 | m", "range * range * +"},
		{"promoting_identifier", "float", "v * 0.5",
			"id0 loadI0 i2f float0.5 mulF", "v |  | ", "*"},
		{"promoting_identifier_beside_a_float_matrix", "float", "f + v - 2.0",
			"id0 loadF0 id0 loadI1 i2f addF float2 subF", "f v |  | ", "+ -"},
		{"int_identifier_on_an_int_chain", "int", "v .* [x1 :: x2]",
			"id0 loadI0 id0 sI0:1 addI mulI", "v | x1 x2 | ", "range .*"},
		{"one_identifier_stage_stays_unfused", "int", "v + 1", "", "one stage of identifiers", ""},
		{"bound_is_a_call", "float", "[two() :: x2] * m + b", "", "range bound", ""},
		{"bound_is_an_expression", "float", "[x1 + 1 :: x2] * m", "", "range bound", ""},
		{"int_division", "int", "[x1 :: x2] / 2", "", "int division", ""},
		{"int_remainder", "int", "[x1 :: x2] % 4", "", "stage operator", ""},
		{"int_stage_inside_a_float_chain", "float", "([x1 :: x2] + v) * 0.5", "id0 sI0:1 addI id0 loadI0 addI", "v | x1 x2 | ", "range +"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := decls + "\tMatrix " + tc.typ + " <1> r = " + tc.expr + ";\n\tprint(r[0]);\n\treturn 0;\n}"
			f := factsFor(t, src)
			if tc.plan == "" {
				if len(chains(f)) != 0 {
					t.Fatalf("chains = %d, want the expression unfused", len(chains(f)))
				}
				// The root is the first chain site tried.
				for _, s := range sitesFor(t, src) {
					if _, ok := s.At.(*ast.BinaryExpr); ok {
						if s.Decline.Rule != tc.leaves {
							t.Errorf("declined %q, want %q", s.Decline.Rule, tc.leaves)
						}
						return
					}
				}
				t.Fatal("no chain site")
			}
			if len(chains(f)) != 1 {
				t.Fatalf("chains = %d, want 1", len(chains(f)))
			}
			ch := chains(f)[0]
			if got := planString(ch.Code); got != tc.plan {
				t.Errorf("plan\n got  %s\n want %s", got, tc.plan)
			}
			if got := leafString(ch); got != tc.leaves {
				t.Errorf("leaves\n got  %s\n want %s", got, tc.leaves)
			}
			var nodes []string
			for _, n := range ch.Nodes {
				if b, ok := n.(*ast.BinaryExpr); ok {
					nodes = append(nodes, b.Op.String())
				} else {
					nodes = append(nodes, "range")
				}
			}
			if got := strings.Join(nodes, " "); got != tc.node {
				t.Errorf("admission nodes %q, want %q", got, tc.node)
			}
			if _, ok := matrix.CompileWith(ch.Spec()); !ok {
				t.Error("the strip compiler declines the plan")
			}
		})
	}
}

// TestWithPlanConditionsAndCalls pins the plan of each construct PR 28
// added: comparisons promoted as scalarOp promotes, && / || / ! over
// masks, casts to and from bool, and a pure callee emitted in place — a
// parameter its argument's code, promoted at the call; an if a select;
// a return promoted to the result — with the nesting depth the VM's
// depth rule reads.
func TestWithPlanConditionsAndCalls(t *testing.T) {
	const decls = `
float weight(int i, int j) {
	if ((i + j) % 3 == 0) { return 2.0; }
	return 1.0 * ((i * j) % 5);
}
float half(float x, int k) {
	if (x < k) { return k; } else if (x > 9.5) { return 0 - x; }
	return x / 2.0;
}
int sq(int x) { return x * x; }
int dist2(int a, int b) { return sq(a - b) + sq(b); }
int atLeast2(int v) {
	if (v < 2) { return 2; }
	return v;
}
int main() {
	float f = 0.5;
	int n = 4;
	Matrix float <1> v = [0 :: 7] * 1.0;
`
	for _, tc := range []struct {
		name, typ, body, plan string
		inline                int
	}{
		{"compare_int", "int", "(int)(i < n)", "id0 sI0 cmpI<", 0},
		{"compare_promoted", "int", "(int)(i >= f)", "id0 i2f sF0 cmpF>=", 0},
		{"and_or_not", "int", "(int)(i > 1 && !(i == 3) || false)", "id0 int1 cmpI> id0 int3 cmpI== int0 cmpI== mulI int0 addI int0 cmpI!=", 0},
		{"bool_casts", "float", "(float)(i > 2) + (int)(v[i] != 0.5)", "id0 int2 cmpI> i2f id0 loadF0 float0.5 cmpF!= i2f addF", 0},
		{"weight", "float", "weight(i, n)", "id0 sI0 addI modI3 int0 cmpI== float2 float1 id0 sI0 mulI modI5 i2f mulF selF", 1},
		{"promoted_param_and_return", "float", "half(i, n)",
			"id0 i2f sI0 i2f cmpF< sI0 i2f id0 i2f float9.5 cmpF> int0 i2f id0 i2f subF id0 i2f float2 divF selF selF", 1},
		{"int_select", "int", "atLeast2(i - n)", "id0 sI0 subI int2 cmpI< int2 id0 sI0 subI selI", 1},
		{"argument_is_a_call", "int", "sq(sq(i) + 1)", "id0 id0 mulI int1 addI id0 id0 mulI int1 addI mulI", 1},
		{"callee_calls", "int", "dist2(i, n)", "id0 sI0 subI id0 sI0 subI mulI sI0 sI0 mulI addI", 2},
		{"load_argument", "float", "weight(i, (int)v[i])", "id0 id0 loadF0 f2i addI modI3 int0 cmpI== float2 float1 id0 id0 loadF0 f2i mulI modI5 i2f mulF selF", 1},
		// A nested fold opens a body frame a cell on the closure path: the
		// call under it is a frame deeper than one in the body.
		{"call_in_nested_fold", "int", "with ([0] <= [k] < [3]) fold(+, 0, sq(k + i))",
			"int0 int0 int3 foldI id1 id0 addI id1 id0 addI mulI end", 2},
		{"callee_calls_in_nested_fold", "int", "sq(i) + with ([0] <= [k] < [3]) fold(+, 0, dist2(k, i))",
			"id0 id0 mulI int0 int0 int3 foldI id1 id0 subI id1 id0 subI mulI id0 id0 mulI addI end addI", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The genarray's site is the last: a nested fold has a plan of its own.
			sites := sitesFor(t, decls+"\tMatrix "+tc.typ+" <1> r;\n\tr = with ([0] <= [i] < [8]) genarray([8], "+tc.body+");\n\tprint(r[0] + v[0] + f);\n\treturn 0;\n}")
			wp := sites[len(sites)-1].Plan
			if wp == nil || wp.Fold {
				t.Fatalf("sites %+v, want the genarray's last and flat", sites)
			}
			if got := planString(wp.Code); got != tc.plan {
				t.Errorf("plan\n got  %s\n want %s", got, tc.plan)
			}
			if wp.Inline != tc.inline {
				t.Errorf("Inline = %d, want %d", wp.Inline, tc.inline)
			}
			if _, ok := matrix.CompileWith(matrix.WithSpec{Code: wp.Code, Rank: 1, MatElem: wp.MatElem,
				ScalarI: len(wp.ScalarI), ScalarF: len(wp.ScalarF), Float: wp.Float, OutFloat: wp.Float}); !ok {
				t.Error("the strip compiler declines the plan")
			}
		})
	}
}

// TestWithPlanInlineDeclines pins the inliner's declines, each with its
// rule: the shape check is the purity proof.
func TestWithPlanInlineDeclines(t *testing.T) {
	for _, tc := range []struct{ name, callee, call, rule string }{
		{"global", "int k = 3;\nint f(int i) { return i + k; }", "f(i)", "callee reads a global"},
		{"global_matrix", "Matrix int <1> g = [0 :: 7];\nint f(int i) { return g[i]; }", "f(i)", "callee reads a global"},
		{"print", "int f(int i) { print(i); return i; }", "f(i)", "callee statement with an effect"},
		{"builtin", "", "dimSize(v, 0)", "call of a builtin"},
		{"recursive", "int f(int i) { if (i < 1) { return 0; } return f(i - 1); }", "f(i)", "recursive call"},
		{"mutual", "int f(int i) { return g(i); }\nint g(int i) { return f(i); }", "f(i)", "recursive call"},
		{"loop", "int f(int i) { while (i > 3) { i = i - 3; } return i; }", "f(i)", "callee loops"},
		{"assign", "int f(int i) { i = i + 1; return i; }", "f(i)", "callee assigns"},
		{"local", "int f(int i) { int k = i; return k; }", "f(i)", "callee declares a local"},
		{"falls_off", "int f(int i) { if (i > 2) { return 1; } }", "f(i)", "callee may fall off its end"},
		{"unused_parameter", "int f(int i, int j) { return i; }", "f(i, v[i + 9])", "unused parameter"},
		{"parameter_named_twice", "int f(int x, int x) { return x; }", "f(v[i + 9], i)", "unused parameter"},
		{"matrix_parameter", "int f(Matrix int <1> m, int i) { return m[i]; }", "f(v, i)", "argument not an int or float scalar of its parameter's"},
		{"bool_result", "bool f(int i) { return i > 2; }", "(int)f(i)", "callee returns no int or float"},
		{"with_loop", "int f(int i) { return with ([0] <= [k] < [3]) fold(+, 0, k + i); }", "f(i)", "with-loop in a callee"},
		{"too_deep", "int a(int x) { return x; }\nint b(int x) { return a(x); }\nint c(int x) { return b(x); }\nint d(int x) { return c(x); }\nint e(int x) { return d(x); }", "e(i)", "calls nested too deep"},
		{"too_large", "int f(int x) { return x * x * x * x * x * x * x * x * x * x; }", "f(f(f(i)))", "inlined plan too large"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sites := sitesFor(t, tc.callee+`
int main() {
	Matrix int <1> v = [0 :: 7];
	Matrix int <1> r;
	r = with ([0] <= [i] < [8]) genarray([8], `+tc.call+`);
	print(r[0] + v[0]);
	return 0;
}`)
			// The genarray's site: a callee's own with-loop is a site too.
			site := sites[len(sites)-1]
			if w, ok := site.At.(*ast.WithLoop); !ok || site.Plan != nil || w.Op.(*ast.GenArrayOp) == nil {
				t.Fatalf("sites %+v, want the genarray's last and declined", sites)
			}
			if got := site.Decline.Rule; got != tc.rule {
				t.Errorf("rule %q, want %q", got, tc.rule)
			}
		})
	}
}
