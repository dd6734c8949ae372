// Package refscan is the reference the generated scanner is tested
// against; only tests import it. Scanner is the scanner as it was
// before the union DFA: every non-skip terminal is tried in turn with
// its own NFA simulation (rx.NFA.MatchPrefix behind a first-byte
// filter), so its answers depend on nothing the DFA construction or
// the DFA walk could get wrong. Both runs it in lockstep with
// lexer.Scanner under the parser's real valid sets and records the
// first token on which the two disagree.
package refscan

import (
	"fmt"

	"repro/internal/grammar"
	"repro/internal/lexer"
	"repro/internal/source"
)

// Scanner scans one source file by per-terminal NFA simulation.
type Scanner struct {
	file  *source.File
	terms []*grammar.Terminal // non-skip terminals by id; terms[grammar.EOFID] is $eof
	skips []*grammar.Terminal
	first []([256]bool) // per non-skip terminal: possible first bytes
	pos   int
}

// New creates a reference scanner for file over tab's terminals.
func New(tab *grammar.Table, file *source.File) *Scanner {
	sc := tab.Scanner()
	s := &Scanner{file: file, terms: sc.Terms, skips: sc.SkipTerms, first: make([]([256]bool), len(sc.Terms))}
	for id, t := range s.terms {
		if t.Pattern != nil {
			s.first[id] = t.Pattern.FirstBytes()
		}
	}
	return s
}

// skipIgnorable consumes whitespace and comments.
func (s *Scanner) skipIgnorable() {
	for {
		advanced := false
		for _, t := range s.skips {
			if n := t.Pattern.MatchPrefix(s.file.Content, s.pos); n > 0 {
				s.pos += n
				advanced = true
			}
		}
		if !advanced {
			return
		}
	}
}

// NextToken implements grammar.TokenSource: the longest match among
// the valid terminals, the higher priority at equal length, the
// earlier declaration at equal priority. The error carries no message
// worth comparing; the returned token's span starts where it is.
func (s *Scanner) NextToken(valid grammar.TermSet) (grammar.Token, error) {
	s.skipIgnorable()
	if s.pos >= len(s.file.Content) {
		return grammar.Token{
			ID:       grammar.EOFID,
			Terminal: grammar.EOFName,
			Span:     s.file.SpanAt(s.pos, s.pos),
		}, nil
	}
	b := s.file.Content[s.pos]
	bestLen := -1
	best := int32(-1)
	for id, t := range s.terms {
		id := int32(id)
		if t.Pattern == nil || valid != nil && !valid.Has(id) {
			continue
		}
		if !s.first[id][b] {
			continue
		}
		n := t.Pattern.MatchPrefix(s.file.Content, s.pos)
		if n <= 0 {
			continue
		}
		if n > bestLen || (n == bestLen && t.Priority > s.terms[best].Priority) {
			bestLen = n
			best = id
		}
	}
	if best < 0 {
		span := s.file.SpanAt(s.pos, s.pos+1)
		return grammar.Token{ID: -1, Text: string(b), Span: span},
			fmt.Errorf("no valid token can start with %q", string(b))
	}
	tok := grammar.Token{
		ID:       best,
		Terminal: s.terms[best].Name,
		Text:     s.file.Content[s.pos : s.pos+bestLen],
		Span:     s.file.SpanAt(s.pos, s.pos+bestLen),
	}
	s.pos += bestLen
	return tok, nil
}

// Both is a grammar.TokenSource that asks the generated scanner and
// the reference for every token with the same valid set, hands the
// parser the generated scanner's answer, and keeps the first
// disagreement in Mismatch. Tokens must agree on terminal, text and
// span; errors on being errors and on where they start (the wording,
// and how far an unterminated token's span runs, are the generated
// scanner's own).
type Both struct {
	Gen      *lexer.Scanner
	Ref      *Scanner
	Mismatch string
}

// NewBoth creates both scanners over one file.
func NewBoth(tab *grammar.Table, file *source.File) *Both {
	return &Both{Gen: lexer.New(tab, file), Ref: New(tab, file)}
}

func (b *Both) NextToken(valid grammar.TermSet) (grammar.Token, error) {
	got, gerr := b.Gen.NextToken(valid)
	want, werr := b.Ref.NextToken(valid)
	if b.Mismatch == "" {
		switch {
		case (gerr != nil) != (werr != nil):
			b.Mismatch = fmt.Sprintf("at %s: generated scanner: %v, %v; reference: %v, %v", want.Span, got, gerr, want, werr)
		case gerr != nil && got.Span.Start != want.Span.Start:
			b.Mismatch = fmt.Sprintf("scan error at %s, reference at %s", got.Span, want.Span)
		case gerr == nil && got != want:
			b.Mismatch = fmt.Sprintf("at %s: generated scanner: %v #%d %s; reference: %v #%d %s",
				want.Span, got, got.ID, got.Span, want, want.ID, want.Span)
		}
	}
	return got, gerr
}

// ScanAll drives both scanners context-free (every terminal valid) to
// the end of the file or the first scan error.
func (b *Both) ScanAll() {
	for {
		tok, err := b.NextToken(nil)
		if err != nil || tok.ID == grammar.EOFID {
			return
		}
	}
}
