package parser

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/source"
)

// The front end must never panic: random byte soup, random token soup
// and truncations of valid programs must all produce diagnostics (or
// parse), never crash.
func TestQuickParserNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		var d source.Diagnostics
		// ParseFile must return nil+diags or a program; panics fail
		// the test via the testing framework.
		p := ParseFile("fuzz.xc", string(raw), AllExtensions(), &d)
		return p != nil || d.Len() > 0 || len(strings.TrimSpace(string(raw))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickTokenSoupNeverPanics(t *testing.T) {
	words := []string{
		"int", "float", "Matrix", "with", "genarray", "fold", "matrixMap",
		"init", "transform", "split", "by", "vectorize", "parallelize",
		"spawn", "sync", "refcounted", "rcnew", "if", "else", "while",
		"for", "return", "(", ")", "[", "]", "{", "}", ",", ";", "=",
		"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", ".*",
		"::", ":", "end", "x", "y", "main", "42", "3.14", `"f.data"`,
	}
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var b strings.Builder
		for i := 0; i < int(n); i++ {
			b.WriteString(words[r.Intn(len(words))])
			b.WriteByte(' ')
		}
		var d source.Diagnostics
		p := ParseFile("soup.xc", b.String(), AllExtensions(), &d)
		return p != nil || d.Len() > 0 || n == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestTruncationsOfValidProgram(t *testing.T) {
	// every prefix of a valid program either parses or errors cleanly
	for i := 0; i <= len(fig8Src); i += 7 {
		var d source.Diagnostics
		ParseFile("trunc.xc", fig8Src[:i], AllExtensions(), &d)
	}
}

func TestUnterminatedConstructs(t *testing.T) {
	bad := []struct{ src, want string }{
		{`int main() { /* unterminated comment`, "bad.xc:1:14: error: scan error: unterminated block comment"},
		{`int main() { Matrix float <`, "syntax error: unexpected end of input"},
		{`int main() { x = with ([0] <= [i] < `, "syntax error: unexpected end of input"},
		{`int main() { "unterminated string`, "bad.xc:1:14: error: scan error: unterminated string literal"},
		{"int main() { print(\"to end of line\n\"); }", "bad.xc:1:20: error: scan error: unterminated string literal"},
		{`int main() { a[0`, "syntax error: unexpected end of input"},
		{`(int, float`, "syntax error: unexpected end of input"},
		{`int main() { int é = 1; }`, "bad.xc:1:18: error: scan error: no valid token can start with \"é\""},
		{"int main() { int \xff = 1; }", `bad.xc:1:18: error: scan error: no valid token can start with "\xff"`},
	}
	for _, c := range bad {
		var d source.Diagnostics
		if p := ParseFile("bad.xc", c.src, AllExtensions(), &d); p != nil {
			t.Errorf("%q should not parse", c.src)
		}
		got := d.String()
		if !strings.Contains(got, c.want) {
			t.Errorf("%q: diagnostics %q, want %q", c.src, got, c.want)
		}
		if strings.Count(got, "bad.xc:") != 1 {
			t.Errorf("%q: the location should be printed once: %q", c.src, got)
		}
	}
}

func TestDeeplyNestedExpressions(t *testing.T) {
	// deep nesting must not blow the table-driven parser
	src := "int main() { return " + strings.Repeat("(", 200) + "1" +
		strings.Repeat(")", 200) + "; }"
	var d source.Diagnostics
	if p := ParseFile("deep.xc", src, AllExtensions(), &d); p == nil {
		t.Fatalf("deep nesting failed: %s", d.String())
	}
}

// One cached Table — LALR tables, valid sets and the scanner's DFAs —
// serves every parse in the process, without locks: eight goroutines
// parsing different sources at once must each get the tree a parse on
// its own gets. `go test -race` (ci.sh) is what makes this a check of
// the "immutable after BuildTable" claim.
func TestConcurrentParsesShareOneTable(t *testing.T) {
	const workers, rounds = 8, 20
	srcs := make([]string, workers)
	want := make([]string, workers)
	for w := range srcs {
		srcs[w] = fmt.Sprintf("%s\n/* worker %d */\nint only_%d(int v) { return v * %d; } // tail\n",
			[]string{fig1Src, fig8Src}[w%2], w, w, w)
		want[w] = ast.Print(mustParse(t, srcs[w]))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var d source.Diagnostics
				p := ParseFile("test.xc", srcs[w], AllExtensions(), &d)
				if p == nil {
					t.Errorf("worker %d: %s", w, d.String())
					return
				}
				if got := ast.Print(p); got != want[w] {
					t.Errorf("worker %d, round %d: tree differs from the serial parse", w, r)
					return
				}
			}
		}()
	}
	wg.Wait()
}
