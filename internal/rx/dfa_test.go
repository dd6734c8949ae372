package rx_test

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/rx"
)

// realPatterns returns every terminal pattern of the fully composed
// language, skips included, in declaration order.
func realPatterns(t testing.TB) (names []string, pats []*rx.NFA) {
	t.Helper()
	tab, err := parser.BuildTable(parser.AllExtensions())
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range tab.Grammar().Terminals() {
		names = append(names, term.Name)
		pats = append(pats, term.Pattern)
	}
	return names, pats
}

// The union DFA must give, for every offset of every input, the answer
// the per-pattern NFA simulations give: the same longest match and the
// same set of patterns matching it, both over all patterns and with the
// filter narrowed to one pattern at a time (the context-aware case).
// Inputs are seeded random strings over fragments where the real
// terminals overlap: keywords against identifiers, / against // and /*,
// 1 against 1.5 against 1.. , : against ::, . against .* .
func TestDFAMatchesPerPatternNFA(t *testing.T) {
	names, pats := realPatterns(t)
	d, err := rx.BuildDFA(pats)
	if err != nil {
		t.Fatal(err)
	}
	frags := []string{"with", "fold", "genarray", "withal", "for", "fo", "x", "_a1", "1", "1.5", "1..", "12", ".", ".*", "*",
		"/", "//", "/*", "*/", "**/", ":", "::", "(", "(|", "|)", "||", "|", "&", "&&", "=", "==", "!", "!=", "<", "<=",
		"\"", "\"s\"", "\n", " ", "\t", "\xc3\xa9", "\xff", "@"}
	r := rand.New(rand.NewSource(13))
	words := (len(pats) + 63) / 64
	for iter := 0; iter < 300; iter++ {
		var b strings.Builder
		for k := r.Intn(6) + 1; k > 0; k-- {
			if r.Intn(8) == 0 {
				b.WriteByte(byte(r.Intn(256)))
			} else {
				b.WriteString(frags[r.Intn(len(frags))])
			}
		}
		in := b.String()
		for off := 0; off <= len(in); off++ {
			want := make([]int, len(pats))
			best := -1
			for pi, p := range pats {
				want[pi] = p.MatchPrefix(in, off)
				best = max(best, want[pi])
			}
			n, state := d.Longest(in, off, nil)
			if n != best {
				t.Fatalf("%q at %d: union longest match %d, per-pattern maximum %d", in, off, n, best)
			}
			if n >= 0 {
				acc := d.Accept(state)
				for pi := range pats {
					got := acc[pi>>6]&(1<<(pi&63)) != 0
					if got != (want[pi] == best) {
						t.Fatalf("%q at %d: length-%d match: accept set has %s = %v, its own longest match is %d",
							in, off, n, names[pi], got, want[pi])
					}
				}
			}
			for pi := range pats {
				only := make([]uint64, words)
				only[pi>>6] = 1 << (pi & 63)
				if n, _ := d.Longest(in, off, only); n != want[pi] {
					t.Fatalf("%q at %d: filtered to %s the DFA matches %d, the NFA %d", in, off, names[pi], n, want[pi])
				}
			}
		}
	}
}

// A nil pattern holds its index open and never matches; live sets name
// the patterns still in play after a prefix.
func TestDFANilPatternAndLiveSets(t *testing.T) {
	d, err := rx.BuildDFA([]*rx.NFA{nil, rx.Literal("/"), rx.MustCompile("//[^\n]*"), rx.MustCompile("/\\*([^*]|\\*+[^*/])*\\*+/")})
	if err != nil {
		t.Fatal(err)
	}
	s := d.Start()
	for i, step := range []struct {
		b      byte
		accept uint64
		live   uint64
	}{
		{'/', 1 << 1, 1<<1 | 1<<2 | 1<<3},
		{'*', 0, 1 << 3},
		{'x', 0, 1 << 3},
		{'*', 0, 1 << 3},
		{'/', 1 << 3, 1 << 3},
	} {
		s = d.Step(s, step.b)
		if got := d.Accept(s)[0]; got != step.accept {
			t.Errorf("step %d: accept %b, want %b", i, got, step.accept)
		}
		if got := d.Live(s)[0]; got != step.live {
			t.Errorf("step %d: live %b, want %b", i, got, step.live)
		}
	}
	if s = d.Step(s, 'x'); s != 0 {
		t.Errorf("after a closed comment every byte must lead to the dead state, got %d", s)
	}
	if n, _ := d.Longest("", 0, nil); n != -1 {
		t.Errorf("no pattern matches the empty string, got %d", n)
	}
	if bits.OnesCount64(d.Live(d.Start())[0]) != 3 {
		t.Errorf("start state live set %b, want the three non-nil patterns", d.Live(d.Start())[0])
	}
}

// A pattern that accepts the empty string reports 0, as MatchPrefix does.
func TestDFAEmptyMatch(t *testing.T) {
	n := rx.MustCompile("(ab|a)*b?")
	d, err := rx.BuildDFA([]*rx.NFA{n})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 500; iter++ {
		var b strings.Builder
		for k := r.Intn(10); k > 0; k-- {
			b.WriteByte("abc"[r.Intn(3)])
		}
		in := b.String()
		for off := 0; off <= len(in); off++ {
			if got, _ := d.Longest(in, off, nil); got != n.MatchPrefix(in, off) {
				t.Fatalf("%q at %d: DFA %d, NFA %d", in, off, got, n.MatchPrefix(in, off))
			}
		}
	}
}

// What a process pays per composed grammar for its scanner tables, on
// top of the LALR construction (budget: 5 ms).
func BenchmarkBuildDFA(b *testing.B) {
	_, pats := realPatterns(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := rx.BuildDFA(pats)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(d.NumStates()), "states")
		}
	}
}
