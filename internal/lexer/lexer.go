// Package lexer implements a Copper-style context-aware scanner. The
// parser passes in the set of terminals that are valid in its current
// LR state, and the scanner matches only those (plus skip terminals
// such as whitespace and comments). This is what lets language
// extensions introduce keywords like "with" or "genarray" without
// stealing them from host-language code that uses the same spellings
// as identifiers: the keyword only exists where the grammar allows it.
//
// The scanner is generated: grammar.BuildTable makes one DFA for the
// union of the token terminals and one for the skip terminals, and a
// Scanner only walks them. Skipping runs the skip DFA until it stops
// matching; a token is one walk of the token DFA that remembers the
// last position whose accept set meets the valid set.
//
// Disambiguation among valid terminals follows maximal munch: the
// longest match wins; at equal length the higher-priority terminal
// wins (keywords are declared with priority 1, identifier-class
// terminals with 0); remaining ties go to declaration order.
package lexer

import (
	"fmt"
	"math/bits"
	"unicode/utf8"

	"repro/internal/grammar"
	"repro/internal/rx"
	"repro/internal/source"
)

// Scanner scans one source file with a table's generated scanner.
type Scanner struct {
	file *source.File
	sc   *grammar.Scanner
	pos  int
}

// New creates a scanner for file over tab's terminals.
func New(tab *grammar.Table, file *source.File) *Scanner {
	return &Scanner{file: file, sc: tab.Scanner()}
}

// Pos returns the current byte offset, for tests.
func (s *Scanner) Pos() int { return s.pos }

// NextToken implements grammar.TokenSource. Terminals not in valid are
// invisible to the match, which is the context-aware behaviour; a nil
// valid admits every terminal.
func (s *Scanner) NextToken(valid grammar.TermSet) (grammar.Token, error) {
	src := s.file.Content
	for {
		n, _ := s.sc.Skips.Longest(src, s.pos, nil)
		if n <= 0 {
			break
		}
		s.pos += n
	}
	if s.pos >= len(src) {
		return grammar.Token{
			ID:       grammar.EOFID,
			Terminal: grammar.EOFName,
			Span:     s.file.SpanAt(s.pos, s.pos),
		}, nil
	}
	n, state := s.sc.Tokens.Longest(src, s.pos, valid)
	if n <= 0 {
		return s.reject()
	}
	// Among the valid terminals matching the longest prefix: highest
	// priority, then lowest id, which is declaration order.
	var best *grammar.Terminal
	id := int32(-1)
	for w, acc := range s.sc.Tokens.Accept(state) {
		if valid != nil {
			acc &= valid[w]
		}
		for ; acc != 0; acc &= acc - 1 {
			i := int32(w<<6 + bits.TrailingZeros64(acc))
			if t := s.sc.Terms[i]; best == nil || t.Priority > best.Priority {
				best, id = t, i
			}
		}
	}
	tok := grammar.Token{
		ID:       id,
		Terminal: best.Name,
		Text:     src[s.pos : s.pos+n],
		Span:     s.file.SpanAt(s.pos, s.pos+n),
	}
	s.pos += n
	return tok, nil
}

// reject reports that no valid token starts at the current position.
// The returned token carries the span the error is about.
func (s *Scanner) reject() (grammar.Token, error) {
	src := s.file.Content
	what, end := unterminated(s.sc.Skips, s.sc.SkipTerms, src, s.pos)
	if what == "" {
		what, end = unterminated(s.sc.Tokens, s.sc.Terms, src, s.pos)
	}
	if what != "" {
		return grammar.Token{ID: -1, Text: src[s.pos:end], Span: s.file.SpanAt(s.pos, end)},
			fmt.Errorf("unterminated %s", what)
	}
	// One whole character, or one byte of invalid UTF-8 (which %q
	// renders as a \x escape).
	_, size := utf8.DecodeRuneInString(src[s.pos:])
	text := src[s.pos : s.pos+size]
	return grammar.Token{ID: -1, Text: text, Span: s.file.SpanAt(s.pos, s.pos+size)},
		fmt.Errorf("no valid token can start with %q", text)
}

// unterminated walks d from pos with every pattern admitted. If the
// walk runs out of input, or of bytes the patterns can cross (a string
// literal's end of line), while exactly one pattern is still in play,
// nothing has accepted on the way, and that pattern's terminal is a
// Delimited one, the input stops inside that terminal: the result is
// its name and where the walk ended. Otherwise what is "".
func unterminated(d *rx.DFA, terms []*grammar.Terminal, src string, pos int) (what string, end int) {
	state := d.Start()
	for end = pos; end < len(src); end++ {
		next := d.Step(state, src[end])
		if next == 0 {
			break
		}
		state = next
		for _, acc := range d.Accept(state) {
			if acc != 0 {
				return "", 0
			}
		}
	}
	if end == pos {
		return "", 0
	}
	only := -1
	for w, live := range d.Live(state) {
		if live == 0 {
			continue
		}
		if only >= 0 || live&(live-1) != 0 {
			return "", 0
		}
		only = w<<6 + bits.TrailingZeros64(live)
	}
	if only < 0 {
		return "", 0
	}
	return terms[only].Delimited, end
}

// ScanAll scans the whole file context-free (all terminals valid).
// Used for tests and tooling; real parsing uses NextToken with the
// parser's valid sets.
func (s *Scanner) ScanAll() ([]grammar.Token, error) {
	var out []grammar.Token
	for {
		t, err := s.NextToken(nil)
		if err != nil {
			return out, fmt.Errorf("%s: %w", t.Span, err)
		}
		if t.ID == grammar.EOFID {
			return out, nil
		}
		out = append(out, t)
	}
}

// StandardSkips returns the usual C whitespace and comment skip
// terminals, shared by the host language spec.
func StandardSkips(owner string) []*grammar.Terminal {
	ws := grammar.Pat("WS", "[ \t\r\n]+", owner)
	ws.Skip = true
	line := grammar.Pat("LineComment", "//[^\n]*", owner)
	line.Skip = true
	block := grammar.Pat("BlockComment", "/\\*([^*]|\\*+[^*/])*\\*+/", owner)
	block.Skip = true
	block.Delimited = "block comment"
	return []*grammar.Terminal{ws, line, block}
}
