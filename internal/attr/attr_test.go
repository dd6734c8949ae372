package attr

import (
	"fmt"
	"strings"
	"testing"
)

// Handles for the attributes the test grammars declare.
var (
	aAttr      = Intern("a")
	bAttr      = Intern("b")
	depthAttr  = Intern("depth")
	downAttr   = Intern("down")
	foldedAttr = Intern("folded")
	ghostAttr  = Intern("ghost")
	scaleAttr  = Intern("scale")
	sumAttr    = Intern("sum")
	vAttr      = Intern("v")
	valueAttr  = Intern("value")
)

// demoHost builds a small expression-language attribute grammar:
// nonterminal Expr with productions const(n) and add(l, r); synthesized
// "value" and "depth"; inherited "scale" multiplying every leaf.
func demoHost() *AGSpec {
	return &AGSpec{
		Name: "",
		NTs:  []NTDecl{{Name: "Expr"}},
		Attrs: []AttrDecl{
			{Name: "value", Kind: Synthesized},
			{Name: "scale", Kind: Inherited},
		},
		Occurs: []Occurs{
			{Attr: "value", NT: "Expr"},
			{Attr: "scale", NT: "Expr"},
		},
		Prods: []ProdDecl{
			{Name: "const", LHS: "Expr"},
			{Name: "add", LHS: "Expr", ChildNTs: []string{"Expr", "Expr"}},
		},
		SynEqs: []SynEq{
			{Prod: "const", Attr: "value", F: func(t *Tree) any {
				return t.Value.(int) * t.Inh(scaleAttr).(int)
			}},
			{Prod: "add", Attr: "value", F: func(t *Tree) any {
				return t.Child(0).Syn(valueAttr).(int) + t.Child(1).Syn(valueAttr).(int)
			}},
		},
		InhEqs: []InhEq{
			{Prod: "add", Child: -1, Attr: "scale", F: func(p *Tree, c int) any {
				return p.Inh(scaleAttr)
			}},
		},
	}
}

// doubleExt adds production double(e) that FORWARDS to add(e, e): the
// Silver mechanism extension constructs use to obtain host semantics.
func doubleExt() *AGSpec {
	return &AGSpec{
		Name:  "double",
		Prods: []ProdDecl{{Name: "double", LHS: "Expr", ChildNTs: []string{"Expr"}, Owner: "double"}},
		InhEqs: []InhEq{
			{Prod: "double", Child: 0, Attr: "scale", Owner: "double", F: func(p *Tree, c int) any {
				return p.Inh(scaleAttr)
			}},
		},
		Forwards: []FwdEq{
			{Prod: "double", Owner: "double", F: func(t *Tree) *Tree {
				// forward: double(e) -> add(e, e)
				return t.p.g.MustTree("add", nil, t.Child(0), cloneLeafy(t.p.g, t.Child(0)))
			}},
		},
	}
}

// cloneLeafy deep-copies a tree (same productions/values).
func cloneLeafy(g *Grammar, t *Tree) *Tree {
	kids := make([]*Tree, t.NumChildren())
	for i := range kids {
		kids[i] = cloneLeafy(g, t.Child(i))
	}
	return g.MustTree(t.Prod(), t.Value, kids...)
}

// depthExt adds a new synthesized attribute "depth" on the host
// nonterminal, with equations for every host production — rule 3.
func depthExt() *AGSpec {
	return &AGSpec{
		Name:   "depth",
		Attrs:  []AttrDecl{{Name: "depth", Kind: Synthesized, Owner: "depth"}},
		Occurs: []Occurs{{Attr: "depth", NT: "Expr", Owner: "depth"}},
		SynEqs: []SynEq{
			{Prod: "const", Attr: "depth", Owner: "depth", F: func(t *Tree) any { return 1 }},
			{Prod: "add", Attr: "depth", Owner: "depth", F: func(t *Tree) any {
				a := t.Child(0).Syn(depthAttr).(int)
				b := t.Child(1).Syn(depthAttr).(int)
				if a > b {
					return a + 1
				}
				return b + 1
			}},
		},
	}
}

func buildDemo(t *testing.T, exts ...*AGSpec) *Grammar {
	t.Helper()
	g, err := Compose(demoHost(), exts...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func leaf(g *Grammar, n int) *Tree { return g.MustTree("const", n) }

func TestBasicEvaluation(t *testing.T) {
	g := buildDemo(t)
	// (1 + 2) + 4, scale 10 => 70
	tree := g.MustTree("add", nil, g.MustTree("add", nil, leaf(g, 1), leaf(g, 2)), leaf(g, 4))
	tree.SetRootInh(scaleAttr, 10)
	if v := tree.Syn(valueAttr); v != 70 {
		t.Errorf("value = %v, want 70", v)
	}
}

func TestMemoization(t *testing.T) {
	calls := 0
	host := demoHost()
	host.SynEqs[0].F = func(t *Tree) any {
		calls++
		return t.Value.(int) * t.Inh(scaleAttr).(int)
	}
	g, err := Compose(host)
	if err != nil {
		t.Fatal(err)
	}
	tree := g.MustTree("const", 5)
	tree.SetRootInh(scaleAttr, 2)
	tree.Syn(valueAttr)
	tree.Syn(valueAttr)
	if calls != 1 {
		t.Errorf("equation evaluated %d times, want 1 (memoized)", calls)
	}
}

func TestForwardingProvidesHostSemantics(t *testing.T) {
	g := buildDemo(t, doubleExt())
	// double(3) with scale 2 forwards to add(3,3) => 12
	tree := g.MustTree("double", nil, leaf(g, 3))
	tree.SetRootInh(scaleAttr, 2)
	if v := tree.Syn(valueAttr); v != 12 {
		t.Errorf("double value = %v, want 12", v)
	}
	if tree.Forward() == nil || tree.Forward().Prod() != "add" {
		t.Error("forward tree should be an add production")
	}
}

func TestForwardSeesForwardersInherited(t *testing.T) {
	g := buildDemo(t, doubleExt())
	inner := g.MustTree("double", nil, leaf(g, 1))
	root := g.MustTree("add", nil, inner, leaf(g, 5))
	root.SetRootInh(scaleAttr, 3)
	// add(double(1), 5) @3 = (1*3 + 1*3) + 15 = 21
	if v := root.Syn(valueAttr); v != 21 {
		t.Errorf("value = %v, want 21", v)
	}
}

func TestNewAttributeViaExtension(t *testing.T) {
	g := buildDemo(t, doubleExt(), depthExt())
	tree := g.MustTree("add", nil, g.MustTree("double", nil, leaf(g, 1)), leaf(g, 2))
	tree.SetRootInh(scaleAttr, 1)
	// depth on double has no equation -> computed on the forward add(e,e):
	// depth(double(1)) = depth(add(1,1)) = 2; root = 3.
	if v := tree.Syn(depthAttr); v != 3 {
		t.Errorf("depth = %v, want 3", v)
	}
}

// Higher-order attributes: an attribute whose value is a tree — here a
// "simplified" attribute that rebuilds the expression with constants
// folded, mirroring the paper's use of higher-order attributes for
// the loop transformations of §V.
func TestHigherOrderAttribute(t *testing.T) {
	host := demoHost()
	host.Attrs = append(host.Attrs, AttrDecl{Name: "folded", Kind: Synthesized})
	host.Occurs = append(host.Occurs, Occurs{Attr: "folded", NT: "Expr"})
	host.SynEqs = append(host.SynEqs,
		SynEq{Prod: "const", Attr: "folded", F: func(t *Tree) any {
			return t.p.g.MustTree("const", t.Value)
		}},
		SynEq{Prod: "add", Attr: "folded", F: func(t *Tree) any {
			l := t.Child(0).Syn(foldedAttr).(*Tree)
			r := t.Child(1).Syn(foldedAttr).(*Tree)
			if l.Prod() == "const" && r.Prod() == "const" {
				return t.p.g.MustTree("const", l.Value.(int)+r.Value.(int))
			}
			return t.p.g.MustTree("add", nil, l, r)
		}})
	g, err := Compose(host)
	if err != nil {
		t.Fatal(err)
	}
	tree := g.MustTree("add", nil, g.MustTree("add", nil, leaf(g, 1), leaf(g, 2)), leaf(g, 4))
	folded := tree.Syn(foldedAttr).(*Tree)
	if folded.Prod() != "const" || folded.Value.(int) != 7 {
		t.Errorf("folded = %s value %v, want const 7", folded.Prod(), folded.Value)
	}
}

func TestCycleDetection(t *testing.T) {
	host := &AGSpec{
		NTs:    []NTDecl{{Name: "X"}},
		Attrs:  []AttrDecl{{Name: "a", Kind: Synthesized}, {Name: "b", Kind: Synthesized}},
		Occurs: []Occurs{{Attr: "a", NT: "X"}, {Attr: "b", NT: "X"}},
		Prods:  []ProdDecl{{Name: "x", LHS: "X"}},
		SynEqs: []SynEq{
			{Prod: "x", Attr: "a", F: func(t *Tree) any { return t.Syn(bAttr) }},
			{Prod: "x", Attr: "b", F: func(t *Tree) any { return t.Syn(aAttr) }},
		},
	}
	g, err := Compose(host)
	if err != nil {
		t.Fatal(err)
	}
	tree := g.MustTree("x", nil)
	if _, err := tree.SafeSyn(aAttr); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("expected cycle error, got %v", err)
	}
}

func TestMissingEquationError(t *testing.T) {
	host := demoHost()
	host.SynEqs = host.SynEqs[:1] // drop add.value
	g, err := Compose(host)
	if err != nil {
		t.Fatal(err)
	}
	tree := g.MustTree("add", nil, leaf(g, 1), leaf(g, 2))
	tree.SetRootInh(scaleAttr, 1)
	if _, err := tree.SafeSyn(valueAttr); err == nil || !strings.Contains(err.Error(), "no equation") {
		t.Errorf("expected missing-equation error, got %v", err)
	}
}

func TestComposeRejectsDuplicates(t *testing.T) {
	dup := &AGSpec{
		Name: "dup",
		SynEqs: []SynEq{
			{Prod: "const", Attr: "value", Owner: "dup", F: func(t *Tree) any { return 0 }},
		},
	}
	if _, err := Compose(demoHost(), dup); err == nil {
		t.Error("duplicate equation should be rejected at composition")
	}
}

func TestTreeValidation(t *testing.T) {
	g := buildDemo(t)
	if _, err := g.NewTree("add", nil, leaf(g, 1)); err == nil {
		t.Error("wrong child count should error")
	}
	if _, err := g.NewTree("nope", nil); err == nil {
		t.Error("unknown production should error")
	}
}

// --- MWDA tests ---

func TestMWDAAcceptsForwardingExtension(t *testing.T) {
	r := CheckWellDefined(demoHost(), doubleExt())
	if !r.Passed {
		t.Fatalf("double extension should pass MWDA: %s", r)
	}
}

func TestMWDAAcceptsNewAttributeExtension(t *testing.T) {
	r := CheckWellDefined(demoHost(), depthExt())
	if !r.Passed {
		t.Fatalf("depth extension should pass MWDA: %s", r)
	}
}

func TestMWDARejectsNonForwardingProduction(t *testing.T) {
	broken := &AGSpec{
		Name:  "broken",
		Prods: []ProdDecl{{Name: "neg", LHS: "Expr", ChildNTs: []string{"Expr"}, Owner: "broken"}},
		// no value equation, no forward => host attribute undefined here
		InhEqs: []InhEq{
			{Prod: "neg", Child: 0, Attr: "scale", Owner: "broken", F: func(p *Tree, c int) any {
				return p.Inh(scaleAttr)
			}},
		},
	}
	r := CheckWellDefined(demoHost(), broken)
	if r.Passed {
		t.Fatal("non-forwarding production without host equations must fail MWDA")
	}
	if !strings.Contains(r.Failures[0], "forward") {
		t.Errorf("failure should mention forwarding: %v", r.Failures)
	}
}

func TestMWDARejectsIncompleteNewAttribute(t *testing.T) {
	partial := depthExt()
	partial.SynEqs = partial.SynEqs[:1] // only const, missing add
	r := CheckWellDefined(demoHost(), partial)
	if r.Passed {
		t.Fatal("new attribute missing host-production equations must fail MWDA")
	}
}

func TestMWDARejectsEquationOnForeignPair(t *testing.T) {
	meddler := &AGSpec{
		Name: "meddler",
		SynEqs: []SynEq{
			// host production + host attribute: meddler owns neither.
			{Prod: "const", Attr: "value", Owner: "meddler", F: func(t *Tree) any { return 0 }},
		},
	}
	r := CheckWellDefined(demoHost(), meddler)
	if r.Passed {
		t.Fatal("equation on host production for host attribute must fail MWDA")
	}
}

func TestMWDARejectsMissingInherited(t *testing.T) {
	broken := doubleExt()
	broken.InhEqs = nil // forgot to pass scale down
	r := CheckWellDefined(demoHost(), broken)
	if r.Passed {
		t.Fatal("missing inherited equation must fail MWDA")
	}
	if !strings.Contains(strings.Join(r.Failures, " "), "inherited") {
		t.Errorf("failure should mention inherited: %v", r.Failures)
	}
}

// The MWDA guarantee: extensions that pass individually compose into a
// complete grammar.
func TestMWDAGuarantee(t *testing.T) {
	for _, e := range []*AGSpec{doubleExt(), depthExt()} {
		if r := CheckWellDefined(demoHost(), e); !r.Passed {
			t.Fatalf("precondition: %s should pass: %s", e.Name, r)
		}
	}
	g := buildDemo(t, doubleExt(), depthExt())
	if missing := g.CheckComplete(); len(missing) != 0 {
		t.Errorf("composed grammar incomplete: %v", missing)
	}
	// And it actually evaluates, cross-extension.
	tree := g.MustTree("double", nil, g.MustTree("double", nil, leaf(g, 2)))
	tree.SetRootInh(scaleAttr, 1)
	if v := tree.Syn(valueAttr); v != 8 {
		t.Errorf("value = %v, want 8", v)
	}
	if v := tree.Syn(depthAttr); v != 3 {
		t.Errorf("depth = %v, want 3", v)
	}
}

func TestVariadicProduction(t *testing.T) {
	host := &AGSpec{
		NTs:    []NTDecl{{Name: "L"}, {Name: "E"}},
		Attrs:  []AttrDecl{{Name: "sum", Kind: Synthesized}, {Name: "v", Kind: Synthesized}},
		Occurs: []Occurs{{Attr: "sum", NT: "L"}, {Attr: "v", NT: "E"}},
		Prods: []ProdDecl{
			{Name: "list", LHS: "L", ChildNTs: []string{"E"}, Variadic: true},
			{Name: "num", LHS: "E"},
		},
		SynEqs: []SynEq{
			{Prod: "num", Attr: "v", F: func(t *Tree) any { return t.Value.(int) }},
			{Prod: "list", Attr: "sum", F: func(t *Tree) any {
				s := 0
				for i := 0; i < t.NumChildren(); i++ {
					s += t.Child(i).Syn(vAttr).(int)
				}
				return s
			}},
		},
	}
	g, err := Compose(host)
	if err != nil {
		t.Fatal(err)
	}
	l := g.MustTree("list", nil, g.MustTree("num", 1), g.MustTree("num", 2), g.MustTree("num", 3))
	if v := l.Syn(sumAttr); v != 6 {
		t.Errorf("sum = %v", v)
	}
}

func TestTreeStringAndAccessors(t *testing.T) {
	g := buildDemo(t)
	tree := g.MustTree("add", nil, leaf(g, 1), leaf(g, 2))
	s := tree.String()
	if !strings.Contains(s, "add") || !strings.Contains(s, "const") {
		t.Errorf("tree string = %q", s)
	}
	if tree.Prod() != "add" || tree.NT() != "Expr" || tree.NumChildren() != 2 {
		t.Error("accessors wrong")
	}
	if got := g.AttrsOn("Expr", Synthesized); len(got) != 1 || got[0] != "value" {
		t.Errorf("AttrsOn = %v", got)
	}
	if got := g.AttrsOn("Expr", Inherited); len(got) != 1 || got[0] != "scale" {
		t.Errorf("AttrsOn inherited = %v", got)
	}
	if _, ok := g.Prod("add"); !ok {
		t.Error("Prod lookup failed")
	}
	if !g.OccursOn("value", "Expr") || g.OccursOn("value", "Nope") {
		t.Error("OccursOn wrong")
	}
}

func TestComposeStructuralErrors(t *testing.T) {
	base := demoHost()
	cases := []*AGSpec{
		// duplicate NT
		{Name: "x", NTs: []NTDecl{{Name: "Expr", Owner: "x"}}},
		// duplicate attr
		{Name: "x", Attrs: []AttrDecl{{Name: "value", Kind: Synthesized, Owner: "x"}}},
		// occurs on undeclared attr
		{Name: "x", Occurs: []Occurs{{Attr: "ghost", NT: "Expr", Owner: "x"}}},
		// occurs on undeclared NT
		{Name: "x", Attrs: []AttrDecl{{Name: "a2", Kind: Synthesized, Owner: "x"}},
			Occurs: []Occurs{{Attr: "a2", NT: "Ghost", Owner: "x"}}},
		// production with undeclared LHS
		{Name: "x", Prods: []ProdDecl{{Name: "p", LHS: "Ghost", Owner: "x"}}},
		// duplicate production
		{Name: "x", Prods: []ProdDecl{{Name: "const", LHS: "Expr", Owner: "x"}}},
		// equation on undeclared production
		{Name: "x", SynEqs: []SynEq{{Prod: "ghost", Attr: "value", Owner: "x",
			F: func(t *Tree) any { return 0 }}}},
		// equation for attr not occurring on LHS
		{Name: "x", Attrs: []AttrDecl{{Name: "other", Kind: Synthesized, Owner: "x"}},
			SynEqs: []SynEq{{Prod: "const", Attr: "other", Owner: "x",
				F: func(t *Tree) any { return 0 }}}},
		// forward on undeclared production
		{Name: "x", Forwards: []FwdEq{{Prod: "ghost", Owner: "x",
			F: func(t *Tree) *Tree { return nil }}}},
	}
	for i, ext := range cases {
		if _, err := Compose(base, ext); err == nil {
			t.Errorf("case %d should fail composition", i)
		}
		base = demoHost() // fresh host each round
	}
}

func TestInheritedAtRootWithoutSeed(t *testing.T) {
	g := buildDemo(t)
	tree := leaf(g, 3)
	if _, err := tree.SafeSyn(valueAttr); err == nil ||
		!strings.Contains(err.Error(), "SetRootInh") {
		t.Errorf("expected root-inherited error, got %v", err)
	}
}

func TestUndeclaredAttributeDemand(t *testing.T) {
	g := buildDemo(t)
	tree := leaf(g, 3)
	if _, err := tree.SafeSyn(ghostAttr); err == nil {
		t.Error("demanding an attribute that does not occur should error")
	}
}

func TestMWDARejectsForwardOnForeignProduction(t *testing.T) {
	bad := &AGSpec{
		Name: "bad",
		Forwards: []FwdEq{{Prod: "const", Owner: "bad",
			F: func(t *Tree) *Tree { return nil }}},
	}
	r := CheckWellDefined(demoHost(), bad)
	if r.Passed {
		t.Fatal("forward on a host production must fail MWDA")
	}
}

func TestMWDAReportString(t *testing.T) {
	r := CheckWellDefined(demoHost(), doubleExt())
	if !strings.Contains(r.String(), "PASS") {
		t.Errorf("report = %q", r.String())
	}
	bad := CheckWellDefined(demoHost(), &AGSpec{Name: "bad",
		SynEqs: []SynEq{{Prod: "const", Attr: "value", Owner: "bad",
			F: func(t *Tree) any { return 0 }}}})
	if !strings.Contains(bad.String(), "FAIL") {
		t.Errorf("report = %q", bad.String())
	}
}

// sumAllExt adds a variadic production sumAll(e...) that forwards to a
// chain of adds and hands its children twice its own scale through an
// all-children equation. The equation reads the child it is asked
// about, so it fails if it is ever run for the forward tree (child -1).
func sumAllExt() *AGSpec {
	return &AGSpec{
		Name:  "sumAll",
		Prods: []ProdDecl{{Name: "sumAll", LHS: "Expr", ChildNTs: []string{"Expr"}, Variadic: true, Owner: "sumAll"}},
		InhEqs: []InhEq{
			{Prod: "sumAll", Child: -1, Attr: "scale", Owner: "sumAll", F: func(p *Tree, c int) any {
				_ = p.Child(c)
				return 2 * p.Inh(scaleAttr).(int)
			}},
		},
		Forwards: []FwdEq{
			{Prod: "sumAll", Owner: "sumAll", F: func(t *Tree) *Tree {
				acc := t.Child(0)
				for i := 1; i < t.NumChildren(); i++ {
					acc = t.p.g.MustTree("add", nil, acc, t.Child(i))
				}
				return acc
			}},
		},
	}
}

// A forward tree receives the forwarding node's own inherited
// attributes; the forwarding production's all-children equation is for
// its children, not for its forward.
func TestForwardSkipsAllChildrenEquation(t *testing.T) {
	g := buildDemo(t, sumAllExt())
	tree := g.MustTree("sumAll", nil, leaf(g, 1), leaf(g, 2), leaf(g, 3))
	tree.SetRootInh(scaleAttr, 10)
	// The forward add(add(1,2),3) sees scale 10 (not 20), and adopts the
	// leaves: (1+2+3)*10.
	if v, err := tree.SafeSyn(valueAttr); err != nil || v != 60 {
		t.Errorf("sumAll value = %v, %v; want 60", v, err)
	}
	if got := tree.Forward().Inh(scaleAttr); got != 10 {
		t.Errorf("forward tree's scale = %v, want the forwarding node's 10", got)
	}
}

// --- the dense tables: error texts, slot limits, masks ---

func TestEvaluationErrorTexts(t *testing.T) {
	host := demoHost()
	host.SynEqs = host.SynEqs[:1] // drop add.value
	g, err := Compose(host)
	if err != nil {
		t.Fatal(err)
	}
	root := g.MustTree("add", nil, leaf(g, 1), leaf(g, 2))
	for _, c := range []struct {
		name string
		eval func() (any, error)
		want string
	}{
		{"missing equation", func() (any, error) { return root.SafeSyn(valueAttr) },
			`attr: no equation for add.value and no forward`},
		{"no SetRootInh", func() (any, error) { return root.Child(0).SafeSyn(valueAttr) },
			`attr: inherited "scale" demanded at root of add without SetRootInh`},
		{"occurs", func() (any, error) { return root.SafeSyn(ghostAttr) },
			`attr: "ghost" does not occur on Expr`},
		{"handle interned after Compose", func() (any, error) { return root.SafeSyn(Intern("neverDeclaredAnywhere")) },
			`attr: "neverDeclaredAnywhere" does not occur on Expr`},
	} {
		// Twice: a failed evaluation leaves no busy bit behind, so the
		// second attempt reports the same error, not a cycle.
		for i := 0; i < 2; i++ {
			if _, err := c.eval(); err == nil || err.Error() != c.want {
				t.Errorf("%s, attempt %d: error = %v, want %s", c.name, i, err, c.want)
			}
		}
	}
	if _, err := g.NewTree("add", nil, leaf(g, 1)); err == nil || err.Error() != `attr: add needs 2 children, got 1` {
		t.Errorf("child count error = %v", err)
	}
	if _, err := g.NewTree("nope", nil); err == nil || err.Error() != `attr: unknown production "nope"` {
		t.Errorf("unknown production error = %v", err)
	}
}

// twoNT is a grammar where an inherited equation hands "down" to a
// nonterminal the attribute is not declared to occur on: the child gets
// a slot for it (Inh works), but it still does not occur there (Syn
// refuses it, and NewTree checks child nonterminals).
func twoNT(t *testing.T, inhEqs ...InhEq) *Grammar {
	t.Helper()
	g, err := Compose(&AGSpec{
		NTs:    []NTDecl{{Name: "P"}, {Name: "C"}},
		Attrs:  []AttrDecl{{Name: "down", Kind: Inherited}, {Name: "v", Kind: Synthesized}},
		Occurs: []Occurs{{Attr: "v", NT: "P"}, {Attr: "v", NT: "C"}},
		Prods: []ProdDecl{
			{Name: "p", LHS: "P", ChildNTs: []string{"C"}},
			{Name: "c", LHS: "C"},
		},
		SynEqs: []SynEq{
			{Prod: "p", Attr: "v", F: func(t *Tree) any { return t.Child(0).Syn(vAttr) }},
			{Prod: "c", Attr: "v", F: func(t *Tree) any { return t.Inh(downAttr) }},
		},
		InhEqs: inhEqs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestInheritedTargetGetsASlotButDoesNotOccur(t *testing.T) {
	g := twoNT(t, InhEq{Prod: "p", Child: 0, Attr: "down", F: func(p *Tree, c int) any { return 7 }})
	root := g.MustTree("p", nil, g.MustTree("c", nil))
	if v, err := root.SafeSyn(vAttr); err != nil || v != 7 {
		t.Errorf("v = %v, %v; want 7", v, err)
	}
	if _, err := root.Child(0).SafeSyn(downAttr); err == nil || err.Error() != `attr: "down" does not occur on C` {
		t.Errorf("Syn of a slot that does not occur: %v", err)
	}
	if g.OccursOn("down", "C") {
		t.Error(`OccursOn("down", "C") must stay false`)
	}
	if _, err := g.NewTree("p", nil, root); err == nil || err.Error() != `attr: p child 0 must be C, got P` {
		t.Errorf("child nonterminal error = %v", err)
	}

	// Without the equation the child has no slot for it at all.
	g = twoNT(t)
	root = g.MustTree("p", nil, g.MustTree("c", nil))
	if _, err := root.SafeSyn(vAttr); err == nil || err.Error() != `attr: no inherited equation for p child 0 attr "down"` {
		t.Errorf("missing inherited equation: %v", err)
	}
}

func TestInheritedCycle(t *testing.T) {
	g := twoNT(t, InhEq{Prod: "p", Child: 0, Attr: "down", F: func(p *Tree, c int) any { return p.Child(c).Inh(downAttr) }})
	root := g.MustTree("p", nil, g.MustTree("c", nil))
	if _, err := root.SafeSyn(vAttr); err == nil || err.Error() != `attr: cycle evaluating inherited "down" on c` {
		t.Errorf("expected inherited cycle error, got %v", err)
	}
}

func TestComposeRejectsInheritedEquationForMissingChild(t *testing.T) {
	bad := &AGSpec{Name: "bad", InhEqs: []InhEq{
		{Prod: "add", Child: 2, Attr: "scale", Owner: "bad", F: func(p *Tree, c int) any { return 0 }}}}
	if _, err := Compose(demoHost(), bad); err == nil || !strings.Contains(err.Error(), "add has 2 children") {
		t.Errorf("inherited equation for child 2 of add: %v", err)
	}
}

// wide is a one-production grammar with n synthesized attributes
// a0..a(n-1) on its nonterminal, a(i) = a(i-1) + 1.
func wide(n int) *AGSpec {
	s := &AGSpec{NTs: []NTDecl{{Name: "W"}}, Prods: []ProdDecl{{Name: "w", LHS: "W"}}}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("a%d", i)
		s.Attrs = append(s.Attrs, AttrDecl{Name: name, Kind: Synthesized})
		s.Occurs = append(s.Occurs, Occurs{Attr: name, NT: "W"})
		prev := Intern(fmt.Sprintf("a%d", i-1))
		s.SynEqs = append(s.SynEqs, SynEq{Prod: "w", Attr: name, F: func(t *Tree) any {
			if i == 0 {
				return 0
			}
			return t.Syn(prev).(int) + 1
		}})
	}
	return s
}

func TestSlotLimit(t *testing.T) {
	g, err := Compose(wide(MaxSlots))
	if err != nil {
		t.Fatalf("%d attributes on one nonterminal must compose: %v", MaxSlots, err)
	}
	// The last attribute sits in the masks' top bit and its evaluation
	// runs through every other slot.
	last := Intern(fmt.Sprintf("a%d", MaxSlots-1))
	if v, err := g.MustTree("w", nil).SafeSyn(last); err != nil || v != MaxSlots-1 {
		t.Errorf("a%d = %v, %v", MaxSlots-1, v, err)
	}
	if _, err := Compose(wide(MaxSlots + 1)); err == nil ||
		err.Error() != `attr: nonterminal "W" needs more than 64 attribute slots` {
		t.Errorf("%d attributes on one nonterminal: %v", MaxSlots+1, err)
	}
}
