// Front-end entry points: compose the selected extension grammars with
// the host, build (and cache) the LALR(1) table, and parse source text
// into the AST with the context-aware scanner.
package parser

import (
	"fmt"
	"sync"

	"repro/internal/ast"
	"repro/internal/grammar"
	"repro/internal/lexer"
	"repro/internal/source"
)

// Options selects the language extensions to compose with the host.
// Tuples are part of the host (see HostSpec) and always available.
type Options struct {
	Matrix    bool
	Transform bool
	Rc        bool
	Cilk      bool
}

// AllExtensions enables every extension — the configuration the
// paper's applications use (plus the Cilk extension of §VIII).
func AllExtensions() Options {
	return Options{Matrix: true, Transform: true, Rc: true, Cilk: true}
}

// Specs returns the extension specs selected by o, in composition order.
func (o Options) Specs() []*grammar.Spec {
	var out []*grammar.Spec
	if o.Matrix {
		out = append(out, MatrixSpec())
	}
	if o.Transform {
		out = append(out, TransformSpec())
	}
	if o.Rc {
		out = append(out, RcSpec())
	}
	if o.Cilk {
		out = append(out, CilkSpec())
	}
	return out
}

var (
	tableMu    sync.Mutex
	tableCache = map[Options]*grammar.Table{}
)

// BuildTable composes the host with o's extensions and constructs the
// LALR(1) table, caching per option set. The composed grammar must be
// conflict-free; a conflict is a bug in the language specs, reported
// as an error.
func BuildTable(o Options) (*grammar.Table, error) {
	tableMu.Lock()
	defer tableMu.Unlock()
	if t, ok := tableCache[o]; ok {
		return t, nil
	}
	g, err := grammar.New(StartSymbol, HostSpec(), o.Specs()...)
	if err != nil {
		return nil, fmt.Errorf("parser: composing grammar: %w", err)
	}
	t, err := grammar.BuildTable(g)
	if err != nil {
		return nil, fmt.Errorf("parser: building table: %w", err)
	}
	if len(t.Conflicts) > 0 {
		return nil, fmt.Errorf("parser: composed grammar has %d conflicts; first: %s",
			len(t.Conflicts), t.Conflicts[0])
	}
	tableCache[o] = t
	return t, nil
}

// ParseFile scans and parses one extended-C source file. Errors are
// recorded in diags; the returned program is nil if parsing failed.
func ParseFile(name, content string, o Options, diags *source.Diagnostics) *ast.Program {
	tab, err := BuildTable(o)
	if err != nil {
		diags.Errorf(source.Span{File: name}, "%v", err)
		return nil
	}
	file := source.NewFile(name, content)
	scan := lexer.New(tab, file)
	res, ok := tab.Parse(scan, diags)
	if !ok {
		return nil
	}
	prog, ok := res.Value.(*ast.Program)
	if !ok {
		diags.Errorf(source.Span{File: name}, "internal error: parse produced %T", res.Value)
		return nil
	}
	prog.File = name
	prog.Loc = res.Span
	return prog
}
