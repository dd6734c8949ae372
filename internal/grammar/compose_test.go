package grammar

import (
	"strings"
	"testing"

	"repro/internal/source"
)

// toyHost is a miniature statement/expression host language used to
// exercise the composability analysis in isolation from CMINUS.
func toyHost() *Spec {
	return &Spec{
		Name: HostOwner,
		Terminals: []*Terminal{
			Pat("Id", "[a-z]+", HostOwner),
			Pat("Num", "[0-9]+", HostOwner),
			LitOp("+", "+", HostOwner, 1, AssocLeft),
			Lit("=", "=", HostOwner),
			Lit(";", ";", HostOwner),
			Lit("(", "(", HostOwner),
			Lit(")", ")", HostOwner),
			Lit(",", ",", HostOwner),
		},
		Nonterminals: []*Nonterminal{{Name: "Stmts"}, {Name: "Stmt"}, {Name: "Expr"}, {Name: "Args"}},
		Productions: []*Production{
			Rule(HostOwner, "Stmts", []string{"Stmt"}, nil),
			Rule(HostOwner, "Stmts", []string{"Stmts", "Stmt"}, nil),
			Rule(HostOwner, "Stmt", []string{"Id", "=", "Expr", ";"}, nil),
			Rule(HostOwner, "Expr", []string{"Expr", "+", "Expr"}, nil),
			Rule(HostOwner, "Expr", []string{"Num"}, nil),
			Rule(HostOwner, "Expr", []string{"Id"}, nil),
			Rule(HostOwner, "Expr", []string{"(", "Expr", ")"}, nil),
			Rule(HostOwner, "Expr", []string{"Id", "(", "Args", ")"}, nil),
			Rule(HostOwner, "Args", []string{"Expr"}, nil),
			Rule(HostOwner, "Args", []string{"Args", ",", "Expr"}, nil),
		},
	}
}

// goodExt adds a with-loop-like construct introduced by the marker
// keyword "with": Expr -> with ( Expr , Expr ).
func goodExt() *Spec {
	return &Spec{
		Name:      "withext",
		Terminals: []*Terminal{Lit("with", "with", "withext")},
		Productions: []*Production{
			Rule("withext", "Expr", []string{"with", "(", "Expr", ",", "Expr", ")"}, nil),
		},
	}
}

// tupleExt mimics the paper's failing tuple extension: its bridge
// production starts with the host's "(" terminal.
func tupleExt() *Spec {
	return &Spec{
		Name: "tuple",
		Productions: []*Production{
			Rule("tuple", "Expr", []string{"(", "Expr", ",", "Expr", ")"}, nil),
		},
	}
}

// fixedTupleExt is the paper's suggested fix: a distinct "(|" marker.
func fixedTupleExt() *Spec {
	return &Spec{
		Name: "tuplefixed",
		Terminals: []*Terminal{
			Lit("(|", "(|", "tuplefixed"),
			Lit("|)", "|)", "tuplefixed"),
		},
		Productions: []*Production{
			Rule("tuplefixed", "Expr", []string{"(|", "Expr", ",", "Expr", "|)"}, nil),
		},
	}
}

// secondExt is an independently developed extension with its own marker.
func secondExt() *Spec {
	return &Spec{
		Name:      "foreach",
		Terminals: []*Terminal{Lit("foreach", "foreach", "foreach"), Lit("in", "in", "foreach")},
		Productions: []*Production{
			Rule("foreach", "Stmt", []string{"foreach", "Id", "in", "Expr", ";"}, nil),
		},
	}
}

func TestIsComposableAcceptsMarkedExtension(t *testing.T) {
	r := IsComposable("Stmts", toyHost(), goodExt())
	if !r.Passed {
		t.Fatalf("with-extension should pass: %s", r)
	}
	if len(r.Markers) != 1 || r.Markers[0] != "with" {
		t.Errorf("markers = %v, want [with]", r.Markers)
	}
}

func TestIsComposableRejectsTupleExtension(t *testing.T) {
	r := IsComposable("Stmts", toyHost(), tupleExt())
	if r.Passed {
		t.Fatal("tuple extension with host '(' initial terminal must fail, as in the paper")
	}
	found := false
	for _, f := range r.Failures {
		if strings.Contains(f, "marker terminal") {
			found = true
		}
	}
	if !found {
		t.Errorf("failure should cite the marker-terminal condition: %v", r.Failures)
	}
}

func TestIsComposableAcceptsFixedTuple(t *testing.T) {
	r := IsComposable("Stmts", toyHost(), fixedTupleExt())
	if !r.Passed {
		t.Fatalf("fixed tuple extension should pass: %s", r)
	}
}

func TestComposeAllTheorem(t *testing.T) {
	// Individually passing extensions must compose conflict-free.
	exts := []*Spec{goodExt(), fixedTupleExt(), secondExt()}
	for _, e := range exts {
		r := IsComposable("Stmts", toyHost(), e)
		if !r.Passed {
			t.Fatalf("precondition: %s should pass alone: %s", e.Name, r)
		}
	}
	g, tab, err := ComposeAll("Stmts", toyHost(), exts...)
	if err != nil {
		t.Fatalf("composition theorem violated: %v", err)
	}
	if len(tab.Conflicts) != 0 {
		t.Fatalf("composed table has conflicts: %v", tab.Conflicts)
	}
	if len(g.Owners()) != 4 {
		t.Errorf("owners = %v", g.Owners())
	}
}

func TestComposedParserParsesAllExtensions(t *testing.T) {
	_, tab, err := ComposeAll("Stmts", toyHost(), goodExt(), fixedTupleExt(), secondExt())
	if err != nil {
		t.Fatal(err)
	}
	programs := [][]Token{
		// x = with ( 1 , 2 ) ;
		{{Terminal: "Id", Text: "x"}, {Terminal: "="}, {Terminal: "with"}, {Terminal: "("},
			{Terminal: "Num", Text: "1"}, {Terminal: ","}, {Terminal: "Num", Text: "2"},
			{Terminal: ")"}, {Terminal: ";"}},
		// y = (| a , b |) ;
		{{Terminal: "Id", Text: "y"}, {Terminal: "="}, {Terminal: "(|"},
			{Terminal: "Id", Text: "a"}, {Terminal: ","}, {Terminal: "Id", Text: "b"},
			{Terminal: "|)"}, {Terminal: ";"}},
		// foreach i in xs ;
		{{Terminal: "foreach"}, {Terminal: "Id", Text: "i"}, {Terminal: "in"},
			{Terminal: "Id", Text: "xs"}, {Terminal: ";"}},
	}
	for i, p := range programs {
		var d source.Diagnostics
		_, ok := tab.Parse(&sliceTokenSource{tab: tab, Tokens: p}, &d)
		if !ok {
			t.Errorf("program %d failed to parse: %s", i, d.String())
		}
	}
}

// An extension that breaks determinism (ambiguous with host) must fail
// condition 1 even though it has a marker.
func TestIsComposableRejectsAmbiguousExtension(t *testing.T) {
	amb := &Spec{
		Name:      "amb",
		Terminals: []*Terminal{Lit("amb", "amb", "amb")},
		Productions: []*Production{
			// Two identical bridge productions = reduce/reduce conflict.
			Rule("amb", "Expr", []string{"amb", "Expr"}, nil),
			Rule("amb", "Expr", []string{"amb", "Expr"}, nil),
		},
	}
	r := IsComposable("Stmts", toyHost(), amb)
	if r.Passed {
		t.Fatal("ambiguous extension must fail the analysis")
	}
}

// Spillage: an extension whose construct embeds Expr followed by a host
// terminal in a new position produces benign reduce-spillage, which is
// recorded but allowed.
func TestSpillageRecordedNotFatal(t *testing.T) {
	spill := &Spec{
		Name:      "spill",
		Terminals: []*Terminal{Lit("retry", "retry", "spill")},
		Productions: []*Production{
			// Stmt -> retry Expr = Expr ; — reuses the host '=' after an
			// Expr, a follow context the host grammar never creates, so
			// host expression states gain reduce actions on '='.
			Rule("spill", "Stmt", []string{"retry", "Expr", "=", "Expr", ";"}, nil),
		},
	}
	r := IsComposable("Stmts", toyHost(), spill)
	if !r.Passed {
		t.Fatalf("spillage-only extension should pass: %s", r)
	}
	if len(r.Spillage) == 0 {
		t.Error("expected recorded spillage for ';' in new follow contexts")
	}
}

func TestComposeReportString(t *testing.T) {
	r := IsComposable("Stmts", toyHost(), tupleExt())
	s := r.String()
	if !strings.Contains(s, "FAIL") || !strings.Contains(s, "tuple") {
		t.Errorf("report string = %q", s)
	}
	r2 := IsComposable("Stmts", toyHost(), goodExt())
	if !strings.Contains(r2.String(), "PASS") {
		t.Errorf("report string = %q", r2.String())
	}
}
