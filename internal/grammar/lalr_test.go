package grammar

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/source"
)

// exprSpec builds the classic arithmetic expression grammar with
// precedence declarations, whose actions evaluate the expression.
func exprSpec() *Spec {
	num := Pat("Num", "[0-9]+", HostOwner)
	plus := LitOp("+", "+", HostOwner, 1, AssocLeft)
	minus := LitOp("-", "-", HostOwner, 1, AssocLeft)
	times := LitOp("*", "*", HostOwner, 2, AssocLeft)
	lp := Lit("(", "(", HostOwner)
	rp := Lit(")", ")", HostOwner)
	atoi := func(s string) int {
		n := 0
		for _, c := range s {
			n = n*10 + int(c-'0')
		}
		return n
	}
	return &Spec{
		Name:         HostOwner,
		Terminals:    []*Terminal{num, plus, minus, times, lp, rp},
		Nonterminals: []*Nonterminal{{Name: "E"}},
		Productions: []*Production{
			Rule(HostOwner, "E", []string{"E", "+", "E"}, func(c []any) any {
				return c[0].(int) + c[2].(int)
			}),
			Rule(HostOwner, "E", []string{"E", "-", "E"}, func(c []any) any {
				return c[0].(int) - c[2].(int)
			}),
			Rule(HostOwner, "E", []string{"E", "*", "E"}, func(c []any) any {
				return c[0].(int) * c[2].(int)
			}),
			Rule(HostOwner, "E", []string{"(", "E", ")"}, func(c []any) any {
				return c[1]
			}),
			Rule(HostOwner, "E", []string{"Num"}, func(c []any) any {
				return atoi(c[0].(*Token).Text)
			}),
		},
	}
}

// sliceTokenSource feeds a pre-scanned token slice to Parse, ignoring
// the valid set and filling in each token's id from its name (-1, which
// Parse rejects, for a name the table does not have).
type sliceTokenSource struct {
	tab    *Table
	Tokens []Token
	pos    int
}

func (s *sliceTokenSource) NextToken(valid TermSet) (Token, error) {
	if s.pos >= len(s.Tokens) {
		return Token{ID: EOFID, Terminal: EOFName}, nil
	}
	t := s.Tokens[s.pos]
	s.pos++
	id, ok := s.tab.c.termID[t.Terminal]
	if !ok {
		id = -1
	}
	t.ID = id
	return t, nil
}

func tokens(tab *Table, kinds ...string) *sliceTokenSource {
	var ts []Token
	for _, k := range kinds {
		text := k
		if strings.HasPrefix(k, "#") { // "#123" means Num with text 123
			ts = append(ts, Token{Terminal: "Num", Text: k[1:]})
			continue
		}
		ts = append(ts, Token{Terminal: k, Text: text})
	}
	return &sliceTokenSource{tab: tab, Tokens: ts}
}

func mustTable(t *testing.T, start string, host *Spec, exts ...*Spec) *Table {
	t.Helper()
	g, err := New(start, host, exts...)
	if err != nil {
		t.Fatalf("grammar: %v", err)
	}
	tab, err := BuildTable(g)
	if err != nil {
		t.Fatalf("table: %v", err)
	}
	return tab
}

func TestExprGrammarConflictFree(t *testing.T) {
	tab := mustTable(t, "E", exprSpec())
	if len(tab.Conflicts) != 0 {
		t.Fatalf("precedence should resolve all conflicts, got: %v", tab.Conflicts)
	}
}

func parseExpr(t *testing.T, tab *Table, src *sliceTokenSource) (int, bool) {
	t.Helper()
	var d source.Diagnostics
	res, ok := tab.Parse(src, &d)
	if !ok {
		return 0, false
	}
	return res.Value.(int), true
}

func TestExprEvaluation(t *testing.T) {
	tab := mustTable(t, "E", exprSpec())
	cases := []struct {
		toks []string
		want int
	}{
		{[]string{"#2", "+", "#3", "*", "#4"}, 14}, // precedence
		{[]string{"#2", "*", "#3", "+", "#4"}, 10},
		{[]string{"(", "#2", "+", "#3", ")", "*", "#4"}, 20}, // grouping
		{[]string{"#10", "-", "#3", "-", "#2"}, 5},           // left assoc
		{[]string{"#7"}, 7},
	}
	for _, c := range cases {
		got, ok := parseExpr(t, tab, tokens(tab, c.toks...))
		if !ok {
			t.Errorf("parse %v failed", c.toks)
			continue
		}
		if got != c.want {
			t.Errorf("parse %v = %d, want %d", c.toks, got, c.want)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	tab := mustTable(t, "E", exprSpec())
	bad := [][]string{
		{"#1", "+"},
		{"+", "#1"},
		{"(", "#1"},
		{"#1", "#2"},
		{")"},
		{},
	}
	for _, toks := range bad {
		var d source.Diagnostics
		_, ok := tab.Parse(tokens(tab, toks...), &d)
		if ok {
			t.Errorf("parse %v should fail", toks)
		}
		if !d.HasErrors() {
			t.Errorf("parse %v should record a diagnostic", toks)
		}
	}
}

func TestErrorMessageMentionsExpected(t *testing.T) {
	tab := mustTable(t, "E", exprSpec())
	var d source.Diagnostics
	tab.Parse(tokens(tab, "#1", "+", "+"), &d)
	msg := d.String()
	if !strings.Contains(msg, "unexpected") {
		t.Errorf("error message should say unexpected: %q", msg)
	}
	if !strings.Contains(msg, "Num") {
		t.Errorf("error message should list expected terminals: %q", msg)
	}
}

// Reference evaluator: random expression generator producing both the
// token stream and the expected value with standard precedence.
type genExpr struct {
	toks []string
	val  int
}

func genRandomExpr(r *rand.Rand, depth int) genExpr {
	if depth <= 0 || r.Intn(3) == 0 {
		n := r.Intn(50)
		return genExpr{[]string{fmt.Sprintf("#%d", n)}, n}
	}
	switch r.Intn(4) {
	case 0:
		a := genRandomExpr(r, depth-1)
		b := genRandomExpr(r, depth-1)
		// parenthesize both sides so the expected value is unambiguous
		toks := append([]string{"("}, a.toks...)
		toks = append(toks, ")", "+", "(")
		toks = append(toks, b.toks...)
		toks = append(toks, ")")
		return genExpr{toks, a.val + b.val}
	case 1:
		a := genRandomExpr(r, depth-1)
		b := genRandomExpr(r, depth-1)
		toks := append([]string{"("}, a.toks...)
		toks = append(toks, ")", "-", "(")
		toks = append(toks, b.toks...)
		toks = append(toks, ")")
		return genExpr{toks, a.val - b.val}
	case 2:
		a := genRandomExpr(r, depth-1)
		b := genRandomExpr(r, depth-1)
		toks := append([]string{"("}, a.toks...)
		toks = append(toks, ")", "*", "(")
		toks = append(toks, b.toks...)
		toks = append(toks, ")")
		return genExpr{toks, a.val * b.val}
	default:
		a := genRandomExpr(r, depth-1)
		toks := append([]string{"("}, a.toks...)
		toks = append(toks, ")")
		return genExpr{toks, a.val}
	}
}

// Property: randomly generated expressions parse and evaluate to the
// reference value.
func TestQuickRandomExpressions(t *testing.T) {
	tab := mustTable(t, "E", exprSpec())
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := genRandomExpr(r, 4)
		got, ok := parseExpr(t, tab, tokens(tab, e.toks...))
		return ok && got == e.val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Dangling else: with no precedence the default policy shifts, which
// binds the else to the nearest if — and the conflict is recorded.
func danglingIfSpec() *Spec {
	return &Spec{
		Name: HostOwner,
		Terminals: []*Terminal{
			Lit("if", "if", HostOwner), Lit("else", "else", HostOwner),
			Lit("expr", "e", HostOwner), Lit("other", "o", HostOwner),
		},
		Nonterminals: []*Nonterminal{{Name: "S"}},
		Productions: []*Production{
			Rule(HostOwner, "S", []string{"if", "expr", "S"}, func(c []any) any {
				return fmt.Sprintf("if(%v)", c[2])
			}),
			Rule(HostOwner, "S", []string{"if", "expr", "S", "else", "S"}, func(c []any) any {
				return fmt.Sprintf("ifelse(%v,%v)", c[2], c[4])
			}),
			Rule(HostOwner, "S", []string{"other"}, func(c []any) any { return "o" }),
		},
	}
}

func TestDanglingElseShiftPreference(t *testing.T) {
	tab := mustTable(t, "S", danglingIfSpec())
	if len(tab.Conflicts) == 0 {
		t.Fatal("dangling else should report a shift/reduce conflict")
	}
	if tab.Conflicts[0].Kind != "shift/reduce" {
		t.Fatalf("conflict kind = %s", tab.Conflicts[0].Kind)
	}
	var d source.Diagnostics
	res, ok := tab.Parse(tokens(tab, "if", "expr", "if", "expr", "other", "else", "other"), &d)
	if !ok {
		t.Fatalf("parse failed: %s", d.String())
	}
	// else binds to the inner if
	if res.Value != "if(ifelse(o,o))" {
		t.Errorf("dangling else resolution = %v, want if(ifelse(o,o))", res.Value)
	}
}

func TestNonassocMakesErrorEntry(t *testing.T) {
	host := exprSpec()
	// add a nonassociative comparison operator
	host.Terminals = append(host.Terminals, LitOp("<", "<", HostOwner, 0, AssocNone))
	host.Terminals[len(host.Terminals)-1].Prec = 1
	// replace + with nonassoc < in a copy grammar
	host.Productions = append(host.Productions,
		&Production{LHS: "E", RHS: []string{"E", "<", "E"}, Owner: HostOwner,
			Action: func(c []any) any {
				if c[0].(int) < c[2].(int) {
					return 1
				}
				return 0
			}})
	// '<' has prec 1 like +; make it truly nonassoc at its own level
	tab := mustTable(t, "E", host)
	var d source.Diagnostics
	_, ok := tab.Parse(tokens(tab, "#1", "<", "#2", "<", "#3"), &d)
	if ok {
		t.Error("chained nonassoc comparison should be a syntax error")
	}
	_, ok = tab.Parse(tokens(tab, "#1", "<", "#2"), &d)
	if !ok {
		t.Error("single comparison should parse")
	}
}

func TestEpsilonProductions(t *testing.T) {
	// L -> <empty> | L x   (a possibly empty list)
	s := &Spec{
		Name:         HostOwner,
		Terminals:    []*Terminal{Lit("x", "x", HostOwner)},
		Nonterminals: []*Nonterminal{{Name: "L"}},
		Productions: []*Production{
			Rule(HostOwner, "L", nil, func(c []any) any { return 0 }),
			Rule(HostOwner, "L", []string{"L", "x"}, func(c []any) any { return c[0].(int) + 1 }),
		},
	}
	tab := mustTable(t, "L", s)
	if len(tab.Conflicts) != 0 {
		t.Fatalf("list grammar conflicts: %v", tab.Conflicts)
	}
	for n := 0; n <= 5; n++ {
		var ks []string
		for i := 0; i < n; i++ {
			ks = append(ks, "x")
		}
		var d source.Diagnostics
		res, ok := tab.Parse(tokens(tab, ks...), &d)
		if !ok || res.Value.(int) != n {
			t.Errorf("list of %d: got %v ok=%v", n, res.Value, ok)
		}
	}
}

func TestGrammarValidation(t *testing.T) {
	base := func() *Spec { return exprSpec() }

	// undeclared symbol in RHS
	s := base()
	s.Productions = append(s.Productions, Rule(HostOwner, "E", []string{"Nope"}, nil))
	if _, err := New("E", s); err == nil {
		t.Error("undeclared RHS symbol should fail validation")
	}

	// nonterminal with no productions
	s = base()
	s.Nonterminals = append(s.Nonterminals, &Nonterminal{Name: "Orphan"})
	if _, err := New("E", s); err == nil {
		t.Error("orphan nonterminal should fail validation")
	}

	// bad start symbol
	if _, err := New("Missing", base()); err == nil {
		t.Error("missing start symbol should fail validation")
	}

	// duplicate terminal across specs
	dup := &Spec{Name: "ext", Terminals: []*Terminal{Pat("Num", "[0-9]+", "ext")},
		Nonterminals: []*Nonterminal{{Name: "X", Owner: "ext"}},
		Productions:  []*Production{Rule("ext", "X", []string{"Num"}, nil)}}
	if _, err := New("E", base(), dup); err == nil {
		t.Error("duplicate terminal should fail validation")
	}

	// empty-matching terminal pattern
	s = base()
	s.Terminals = append(s.Terminals, Pat("Empty", "a*", HostOwner))
	if _, err := New("E", s); err == nil {
		t.Error("empty-matching terminal should fail validation")
	}
}

func TestValidTerminalsReflectState(t *testing.T) {
	tab := mustTable(t, "E", exprSpec())
	v0 := tab.ValidTerminals(0)
	has := func(name string) bool { return v0.Has(tab.c.termID[name]) }
	if !has("Num") || !has("(") {
		t.Errorf("state 0 should allow Num and (: %v", v0)
	}
	if has("+") || has(")") || has(EOFName) {
		t.Errorf("state 0 should not allow +, ), eof: %v", v0)
	}
}

func TestProductionString(t *testing.T) {
	p := &Production{LHS: "E", RHS: []string{"E", "+", "E"}}
	if p.String() != "E -> E + E" {
		t.Errorf("String = %q", p.String())
	}
	e := &Production{LHS: "L"}
	if !strings.Contains(e.String(), "empty") {
		t.Errorf("empty production string = %q", e.String())
	}
}

func TestTableDescribe(t *testing.T) {
	tab := mustTable(t, "E", exprSpec())
	got := tab.Describe()
	want := fmt.Sprintf("LALR(1): %d states, 0 conflicts\nscanner: %d token DFA states, %d skip DFA states\nstart: E\n",
		tab.NumStates(), tab.Scanner().Tokens.NumStates(), tab.Scanner().Skips.NumStates())
	if !strings.HasPrefix(got, want) {
		t.Errorf("Describe() = %q, want it to start %q", got, want)
	}
}
