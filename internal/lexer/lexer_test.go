package lexer

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/grammar"
	"repro/internal/source"
)

// testTable builds the tables for a small host with one extension
// keyword.
func testTable(t *testing.T) *grammar.Table {
	t.Helper()
	host := &grammar.Spec{
		Name: grammar.HostOwner,
		Terminals: append(StandardSkips(grammar.HostOwner),
			grammar.Pat("Id", "[a-zA-Z_][a-zA-Z0-9_]*", grammar.HostOwner),
			grammar.Pat("Num", "[0-9]+", grammar.HostOwner),
			grammar.Lit("=", "=", grammar.HostOwner),
			grammar.Lit("==", "==", grammar.HostOwner),
			grammar.Lit(";", ";", grammar.HostOwner),
		),
		Nonterminals: []*grammar.Nonterminal{{Name: "S"}},
		Productions: []*grammar.Production{
			grammar.Rule(grammar.HostOwner, "S", []string{"Id", "=", "Num", ";"}, nil),
		},
	}
	// The extension keyword "fold" is only valid after '=', so host
	// code may freely use "fold" as an identifier elsewhere — the
	// context-aware scanner resolves it per LR state.
	ext := &grammar.Spec{
		Name:      "m",
		Terminals: []*grammar.Terminal{grammar.Lit("fold", "fold", "m")},
		Productions: []*grammar.Production{
			grammar.Rule("m", "S", []string{"Id", "=", "fold", "Num", ";"}, nil),
		},
	}
	g, err := grammar.New("S", host, ext)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := grammar.BuildTable(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Conflicts) != 0 {
		t.Fatalf("conflicts: %v", tab.Conflicts)
	}
	return tab
}

// termSet is the set of the named terminals of tab.
func termSet(t *testing.T, tab *grammar.Table, names ...string) grammar.TermSet {
	t.Helper()
	terms := tab.Scanner().Terms
	set := make(grammar.TermSet, (len(terms)+63)/64)
	for _, name := range names {
		id := slices.IndexFunc(terms, func(term *grammar.Terminal) bool { return term.Name == name })
		if id < 0 {
			t.Fatalf("no terminal %q", name)
		}
		set[id>>6] |= 1 << (id & 63)
	}
	return set
}

func scan(t *testing.T, g *grammar.Table, src string) []grammar.Token {
	t.Helper()
	s := New(g, source.NewFile("t.xc", src))
	toks, err := s.ScanAll()
	if err != nil {
		t.Fatalf("scan %q: %v", src, err)
	}
	return toks
}

func kinds(toks []grammar.Token) string {
	var parts []string
	for _, t := range toks {
		parts = append(parts, t.Terminal)
	}
	return strings.Join(parts, " ")
}

func TestBasicScan(t *testing.T) {
	g := testTable(t)
	toks := scan(t, g, "x = 42;")
	if got := kinds(toks); got != "Id = Num ;" {
		t.Errorf("kinds = %q", got)
	}
	if toks[2].Text != "42" {
		t.Errorf("num text = %q", toks[2].Text)
	}
}

func TestMaximalMunch(t *testing.T) {
	g := testTable(t)
	toks := scan(t, g, "a == b")
	if got := kinds(toks); got != "Id == Id" {
		t.Errorf("== should win over =: %q", got)
	}
	// keyword prefix of identifier: maximal munch picks the identifier
	toks = scan(t, g, "folder")
	if got := kinds(toks); got != "Id" {
		t.Errorf("folder should scan as Id, got %q", got)
	}
}

func TestKeywordPriorityAtTie(t *testing.T) {
	g := testTable(t)
	// context-free scan: both "fold" (kw) and Id match 4 chars; the
	// keyword's priority 1 wins.
	toks := scan(t, g, "fold")
	if got := kinds(toks); got != "fold" {
		t.Errorf("keyword should win tie: %q", got)
	}
}

func TestContextAwareKeyword(t *testing.T) {
	g := testTable(t)
	s := New(g, source.NewFile("t.xc", "fold = 1;"))
	// Simulate a host context where the extension keyword is NOT valid:
	// the scanner must deliver an identifier instead.
	valid := termSet(t, g, "Id", "Num", "=", ";")
	tok, err := s.NextToken(valid)
	if err != nil {
		t.Fatal(err)
	}
	if tok.Terminal != "Id" || tok.Text != "fold" {
		t.Errorf("in host context, 'fold' should scan as Id: %v", tok)
	}
	// And in an extension context it scans as the keyword.
	s2 := New(g, source.NewFile("t.xc", "fold 3;"))
	valid2 := termSet(t, g, "Num", "fold")
	tok2, err := s2.NextToken(valid2)
	if err != nil {
		t.Fatal(err)
	}
	if tok2.Terminal != "fold" {
		t.Errorf("in extension context, 'fold' should scan as keyword: %v", tok2)
	}
}

func TestSkipsCommentsAndWhitespace(t *testing.T) {
	g := testTable(t)
	src := "// line comment\n  x /* block\ncomment */ = 7 ; "
	toks := scan(t, g, src)
	if got := kinds(toks); got != "Id = Num ;" {
		t.Errorf("kinds = %q", got)
	}
	// spans survive skipping
	if toks[0].Span.Start.Line != 2 {
		t.Errorf("x should be on line 2: %v", toks[0].Span)
	}
}

func TestScanErrorOnBadChar(t *testing.T) {
	g := testTable(t)
	s := New(g, source.NewFile("t.xc", "x = @;"))
	_, err := s.ScanAll()
	if err == nil || !strings.Contains(err.Error(), "@") {
		t.Errorf("expected scan error mentioning @, got %v", err)
	}
}

func TestEOFToken(t *testing.T) {
	g := testTable(t)
	s := New(g, source.NewFile("t.xc", "  \n// nothing\n"))
	tok, err := s.NextToken(nil)
	if err != nil {
		t.Fatal(err)
	}
	if tok.Terminal != grammar.EOFName {
		t.Errorf("empty input should yield eof, got %v", tok)
	}
}

// End-to-end: parse through the table so valid sets come from real LR
// states; "with" used as an identifier in host syntax must parse.
func TestEndToEndContextAware(t *testing.T) {
	tab := testTable(t)
	// "fold = 3;" uses the extension keyword spelling as a host
	// identifier (valid: 'fold' terminal is not legal at statement
	// start); "x = fold 3;" uses it as the extension keyword.
	for _, src := range []string{"fold = 3;", "x = 1;", "x = fold 3;"} {
		s := New(tab, source.NewFile("t.xc", src))
		var d source.Diagnostics
		_, ok := tab.Parse(s, &d)
		if !ok {
			t.Errorf("parse %q failed: %s", src, d.String())
		}
	}
}

func TestSpanOffsets(t *testing.T) {
	g := testTable(t)
	toks := scan(t, g, "ab = 12;")
	if toks[0].Span.Start.Offset != 0 || toks[0].Span.End.Offset != 2 {
		t.Errorf("Id span = %v", toks[0].Span)
	}
	if toks[2].Span.Start.Offset != 5 || toks[2].Span.End.Offset != 7 {
		t.Errorf("Num span = %v", toks[2].Span)
	}
}

// A scan error says what is wrong once, without a location of its own
// (the caller has the token's span): a stray character is shown as the
// character it is, and input that stops inside a block comment is an
// unterminated comment, not a stray "/".
func TestScanErrorWording(t *testing.T) {
	tab := testTable(t)
	for _, c := range []struct {
		src, want  string
		start, end int // the span the error is about
	}{
		{"x = @;", `no valid token can start with "@"`, 4, 5},
		{"x = é;", `no valid token can start with "é"`, 4, 6},
		{"x = \xff;", `no valid token can start with "\xff"`, 4, 5},
		{"x = 1; /* open", "unterminated block comment", 7, 14},
		{"x = 1; /* open *", "unterminated block comment", 7, 16},
		{"x = 1; /", `no valid token can start with "/"`, 7, 8},
		{"x = 1; /* closed */ /", `no valid token can start with "/"`, 20, 21},
	} {
		s := New(tab, source.NewFile("t.xc", c.src))
		var tok grammar.Token
		var err error
		for {
			if tok, err = s.NextToken(nil); err != nil || tok.ID == grammar.EOFID {
				break
			}
		}
		if err == nil {
			t.Errorf("%q scanned clean", c.src)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%q: error %q, want %q", c.src, err, c.want)
		}
		if tok.Span.Start.Offset != c.start || tok.Span.End.Offset != c.end {
			t.Errorf("%q: error spans [%d,%d), want [%d,%d)", c.src, tok.Span.Start.Offset, tok.Span.End.Offset, c.start, c.end)
		}
	}
	// ScanAll has no caller to place the error, so it does, once.
	_, err := New(tab, source.NewFile("t.xc", "x = @;")).ScanAll()
	if want := `t.xc:1:5: no valid token can start with "@"`; err == nil || err.Error() != want {
		t.Errorf("ScanAll error %v, want %s", err, want)
	}
}
