// Table-driven LALR parser. The driver pulls tokens from a TokenSource,
// passing it the set of terminals valid in the current state — this is
// the hook the context-aware scanner (internal/lexer) uses to
// disambiguate overlapping terminals, exactly as in Copper.
package grammar

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/source"
)

// ParseResult carries the semantic value of the start symbol.
type ParseResult struct {
	Value any
	Span  source.Span
}

// Parse runs the LALR automaton over src. Syntax errors are recorded in
// diags; on error the returned ok is false.
func (t *Table) Parse(src TokenSource, diags *source.Diagnostics) (ParseResult, bool) {
	type frame struct {
		state int32
		value any
		span  source.Span
	}
	stack := []frame{{state: 0}}
	var tok Token
	var haveTok bool
	// Shifted tokens live in slabs, so an action's *Token costs an
	// allocation per tokenSlab shifts, not one boxed Token per shift. A
	// full slab is left to the values that point into it.
	const tokenSlab = 32
	var slab []Token

	fetch := func() bool {
		state := stack[len(stack)-1].state
		var err error
		tok, err = src.NextToken(t.valid[state])
		if err != nil {
			diags.Errorf(tok.Span, "scan error: %v", err)
			return false
		}
		haveTok = true
		return true
	}

	for {
		if !haveTok {
			if !fetch() {
				return ParseResult{}, false
			}
		}
		state := stack[len(stack)-1].state
		row := t.action[state]
		if uint(tok.ID) >= uint(len(row)) {
			diags.Errorf(tok.Span, "unknown terminal %q from scanner", tok.Terminal)
			return ParseResult{}, false
		}
		kind, val := decode(row[tok.ID])
		switch kind {
		case actShift:
			if len(slab) == cap(slab) {
				slab = make([]Token, 0, tokenSlab)
			}
			slab = append(slab, tok)
			stack = append(stack, frame{state: val, value: &slab[len(slab)-1], span: tok.Span})
			haveTok = false
		case actReduce:
			prod := t.c.src[val]
			n := len(t.c.prods[val])
			children := make([]any, n)
			var span source.Span
			for i := 0; i < n; i++ {
				f := stack[len(stack)-n+i]
				children[i] = f.value
				if i == 0 {
					span = f.span
				} else if f.span.End.Offset > span.End.Offset {
					span.End = f.span.End
				}
			}
			if n == 0 {
				// empty production: span is the upcoming token position
				span = source.Span{File: tok.Span.File, Start: tok.Span.Start, End: tok.Span.Start}
			}
			stack = stack[:len(stack)-n]
			top := stack[len(stack)-1].state
			nt := t.c.lhs[val]
			next := t.gotoTab[top][nt]
			if next < 0 {
				diags.Errorf(span, "internal parser error: no goto for %s", t.c.ntNames[nt])
				return ParseResult{}, false
			}
			var value any
			if prod.Action != nil {
				value = prod.Action(children)
			} else if n == 1 {
				value = children[0] // default: pass through single child
			}
			if ss, ok := value.(interface{ SetSpan(source.Span) }); ok {
				ss.SetSpan(span)
			}
			stack = append(stack, frame{state: next, value: value, span: span})
		case actAccept:
			// Stack: [start-frame, Start-symbol frame]
			f := stack[len(stack)-1]
			return ParseResult{Value: f.value, Span: f.span}, true
		default:
			t.reportSyntaxError(tok, state, diags)
			return ParseResult{}, false
		}
	}
}

func (t *Table) reportSyntaxError(tok Token, state int32, diags *source.Diagnostics) {
	var expected []string
	for id, name := range t.c.termNames {
		if t.valid[state].Has(int32(id)) {
			expected = append(expected, name)
		}
	}
	sort.Strings(expected)
	if len(expected) > 8 {
		expected = append(expected[:8], "...")
	}
	what := tok.Terminal
	if tok.Terminal == EOFName {
		what = "end of input"
	} else if tok.Text != "" {
		what = fmt.Sprintf("%q", tok.Text)
	}
	diags.Errorf(tok.Span, "syntax error: unexpected %s; expected one of: %s",
		what, strings.Join(expected, ", "))
}
