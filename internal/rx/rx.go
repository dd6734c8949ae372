// Package rx is a small regular-expression engine used by the
// context-aware scanner. It supports the subset of regex syntax needed
// to specify lexical terminals: literal characters, escapes, character
// classes ([a-z], [^...]), '.', grouping, alternation, and the
// *, +, ? repetition operators.
//
// Patterns compile to Thompson NFAs. BuildDFA (dfa.go) turns the
// union of a grammar's patterns into one DFA, which is what the scanner
// runs — a generated scanner, like Copper's. The NFA's own matching
// (MatchPrefix: parallel simulation, longest match) no longer runs in
// a parse; it is the reference the DFA and the scanner are tested
// against (internal/lexer/refscan).
package rx

import (
	"fmt"
	"strings"
)

// node is a parsed regex AST node.
type node interface{ isNode() }

type litNode struct{ ch byte } // single byte
type classNode struct {        // character class
	negate bool
	ranges []byteRange
}
type anyNode struct{}                   // '.'
type seqNode struct{ parts []node }     // concatenation
type altNode struct{ left, right node } // a|b
type starNode struct{ sub node }        // a*
type plusNode struct{ sub node }        // a+
type optNode struct{ sub node }         // a?
type emptyNode struct{}                 // matches empty string

func (litNode) isNode()   {}
func (classNode) isNode() {}
func (anyNode) isNode()   {}
func (seqNode) isNode()   {}
func (altNode) isNode()   {}
func (starNode) isNode()  {}
func (plusNode) isNode()  {}
func (optNode) isNode()   {}
func (emptyNode) isNode() {}

type byteRange struct{ lo, hi byte }

func (c classNode) matches(b byte) bool {
	in := false
	for _, r := range c.ranges {
		if b >= r.lo && b <= r.hi {
			in = true
			break
		}
	}
	if c.negate {
		return !in
	}
	return in
}

// parser for the regex syntax.
type reParser struct {
	src string
	pos int
}

func (p *reParser) errf(format string, args ...any) error {
	return fmt.Errorf("rx: %q at %d: %s", p.src, p.pos, fmt.Sprintf(format, args...))
}

func (p *reParser) peek() (byte, bool) {
	if p.pos >= len(p.src) {
		return 0, false
	}
	return p.src[p.pos], true
}

func (p *reParser) next() (byte, bool) {
	b, ok := p.peek()
	if ok {
		p.pos++
	}
	return b, ok
}

// alternation := concat ('|' concat)*
func (p *reParser) parseAlt() (node, error) {
	left, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	for {
		b, ok := p.peek()
		if !ok || b != '|' {
			return left, nil
		}
		p.pos++
		right, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		left = altNode{left, right}
	}
}

// concat := repeat*
func (p *reParser) parseConcat() (node, error) {
	var parts []node
	for {
		b, ok := p.peek()
		if !ok || b == '|' || b == ')' {
			break
		}
		n, err := p.parseRepeat()
		if err != nil {
			return nil, err
		}
		parts = append(parts, n)
	}
	switch len(parts) {
	case 0:
		return emptyNode{}, nil
	case 1:
		return parts[0], nil
	}
	return seqNode{parts}, nil
}

// repeat := atom ('*' | '+' | '?')*
func (p *reParser) parseRepeat() (node, error) {
	n, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		b, ok := p.peek()
		if !ok {
			return n, nil
		}
		switch b {
		case '*':
			p.pos++
			n = starNode{n}
		case '+':
			p.pos++
			n = plusNode{n}
		case '?':
			p.pos++
			n = optNode{n}
		default:
			return n, nil
		}
	}
}

func (p *reParser) parseAtom() (node, error) {
	b, ok := p.next()
	if !ok {
		return nil, p.errf("unexpected end of pattern")
	}
	switch b {
	case '(':
		n, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		if c, ok := p.next(); !ok || c != ')' {
			return nil, p.errf("missing ')'")
		}
		return n, nil
	case '[':
		return p.parseClass()
	case '.':
		return anyNode{}, nil
	case '\\':
		e, ok := p.next()
		if !ok {
			return nil, p.errf("trailing backslash")
		}
		return litNode{unescape(e)}, nil
	case '*', '+', '?', ')', '|':
		return nil, p.errf("unexpected %q", string(b))
	default:
		return litNode{b}, nil
	}
}

func unescape(e byte) byte {
	switch e {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	default:
		return e // \., \\, \[, \*, etc.
	}
}

func (p *reParser) parseClass() (node, error) {
	c := classNode{}
	if b, ok := p.peek(); ok && b == '^' {
		c.negate = true
		p.pos++
	}
	first := true
	for {
		b, ok := p.next()
		if !ok {
			return nil, p.errf("missing ']'")
		}
		if b == ']' && !first {
			if len(c.ranges) == 0 {
				return nil, p.errf("empty character class")
			}
			return c, nil
		}
		first = false
		if b == '\\' {
			e, ok := p.next()
			if !ok {
				return nil, p.errf("trailing backslash in class")
			}
			b = unescape(e)
		}
		lo := b
		hi := b
		// range a-z (a trailing '-' is a literal)
		if n, ok := p.peek(); ok && n == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] != ']' {
			p.pos++ // consume '-'
			h, _ := p.next()
			if h == '\\' {
				e, ok := p.next()
				if !ok {
					return nil, p.errf("trailing backslash in class")
				}
				h = unescape(e)
			}
			if h < lo {
				return nil, p.errf("inverted range %c-%c", lo, h)
			}
			hi = h
		}
		c.ranges = append(c.ranges, byteRange{lo, hi})
	}
}

// --- NFA construction (Thompson) ---

// edge is a transition. If eps is true it consumes no input;
// otherwise it consumes one byte matched by test.
type edge struct {
	eps bool
	lit bool // single byte transition (fast path)
	ch  byte
	cls *classNode // nil for eps/lit; anyNode encoded as negated empty class
	to  int
}

// NFA is a compiled pattern.
type NFA struct {
	Pattern string
	states  [][]edge
	start   int
	accept  int
}

type nfaBuilder struct{ states [][]edge }

func (b *nfaBuilder) newState() int {
	b.states = append(b.states, nil)
	return len(b.states) - 1
}

func (b *nfaBuilder) addEps(from, to int) {
	b.states[from] = append(b.states[from], edge{eps: true, to: to})
}

func (b *nfaBuilder) addLit(from int, ch byte, to int) {
	b.states[from] = append(b.states[from], edge{lit: true, ch: ch, to: to})
}

func (b *nfaBuilder) addClass(from int, c classNode, to int) {
	cc := c
	b.states[from] = append(b.states[from], edge{cls: &cc, to: to})
}

// build returns (start, accept) fragment for n.
func (b *nfaBuilder) build(n node) (int, int) {
	switch t := n.(type) {
	case emptyNode:
		s := b.newState()
		a := b.newState()
		b.addEps(s, a)
		return s, a
	case litNode:
		s := b.newState()
		a := b.newState()
		b.addLit(s, t.ch, a)
		return s, a
	case anyNode:
		s := b.newState()
		a := b.newState()
		// any byte except newline, like conventional '.'
		b.addClass(s, classNode{negate: true, ranges: []byteRange{{'\n', '\n'}}}, a)
		return s, a
	case classNode:
		s := b.newState()
		a := b.newState()
		b.addClass(s, t, a)
		return s, a
	case seqNode:
		s, a := b.build(t.parts[0])
		for _, part := range t.parts[1:] {
			s2, a2 := b.build(part)
			b.addEps(a, s2)
			a = a2
		}
		return s, a
	case altNode:
		s := b.newState()
		a := b.newState()
		ls, la := b.build(t.left)
		rs, ra := b.build(t.right)
		b.addEps(s, ls)
		b.addEps(s, rs)
		b.addEps(la, a)
		b.addEps(ra, a)
		return s, a
	case starNode:
		s := b.newState()
		a := b.newState()
		is, ia := b.build(t.sub)
		b.addEps(s, is)
		b.addEps(s, a)
		b.addEps(ia, is)
		b.addEps(ia, a)
		return s, a
	case plusNode:
		is, ia := b.build(t.sub)
		a := b.newState()
		b.addEps(ia, is)
		b.addEps(ia, a)
		return is, a
	case optNode:
		s := b.newState()
		a := b.newState()
		is, ia := b.build(t.sub)
		b.addEps(s, is)
		b.addEps(s, a)
		b.addEps(ia, a)
		return s, a
	}
	panic("rx: unknown node type")
}

// Compile parses and compiles pattern into an NFA.
func Compile(pattern string) (*NFA, error) {
	p := &reParser{src: pattern}
	ast, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, p.errf("unexpected %q", string(p.src[p.pos]))
	}
	b := &nfaBuilder{}
	s, a := b.build(ast)
	return &NFA{Pattern: pattern, states: b.states, start: s, accept: a}, nil
}

// MustCompile is Compile but panics on error; for static patterns.
func MustCompile(pattern string) *NFA {
	n, err := Compile(pattern)
	if err != nil {
		panic(err)
	}
	return n
}

// Literal builds an NFA matching exactly the given string, with all
// metacharacters treated literally. Used for keyword/operator terminals.
func Literal(s string) *NFA {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', ')', '[', ']', '*', '+', '?', '|', '.', '\\':
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	return MustCompile(b.String())
}

// closure expands set (a sorted state list encoded as a map) with
// epsilon transitions.
func (n *NFA) closure(set map[int]bool) {
	stack := make([]int, 0, len(set))
	for s := range set {
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.states[s] {
			if e.eps && !set[e.to] {
				set[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
}

// MatchPrefix returns the length of the longest prefix of input
// starting at offset that matches the pattern, or -1 if none
// (note: a pattern that accepts the empty string yields 0).
func (n *NFA) MatchPrefix(input string, offset int) int {
	cur := map[int]bool{n.start: true}
	n.closure(cur)
	best := -1
	if cur[n.accept] {
		best = 0
	}
	for i := offset; i < len(input) && len(cur) > 0; i++ {
		b := input[i]
		next := make(map[int]bool, len(cur))
		for s := range cur {
			for _, e := range n.states[s] {
				if e.eps {
					continue
				}
				if e.lit {
					if e.ch == b {
						next[e.to] = true
					}
				} else if e.cls.matches(b) {
					next[e.to] = true
				}
			}
		}
		n.closure(next)
		cur = next
		if cur[n.accept] {
			best = i - offset + 1
		}
	}
	return best
}

// Matches reports whether the whole string matches the pattern.
func (n *NFA) Matches(s string) bool {
	return n.MatchPrefix(s, 0) == len(s)
}

// FirstBytes returns the set of bytes that can begin a match, as a
// 256-entry bitmap. The reference scanner uses it as a fast filter.
func (n *NFA) FirstBytes() [256]bool {
	var out [256]bool
	set := map[int]bool{n.start: true}
	n.closure(set)
	for s := range set {
		for _, e := range n.states[s] {
			if e.eps {
				continue
			}
			if e.lit {
				out[e.ch] = true
			} else {
				for b := 0; b < 256; b++ {
					if e.cls.matches(byte(b)) {
						out[b] = true
					}
				}
			}
		}
	}
	return out
}

// AcceptsEmpty reports whether the pattern matches the empty string.
// Terminal patterns must not accept empty; the grammar layer checks this.
func (n *NFA) AcceptsEmpty() bool {
	set := map[int]bool{n.start: true}
	n.closure(set)
	return set[n.accept]
}
