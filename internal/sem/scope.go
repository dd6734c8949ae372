// Package sem implements the semantic analysis of extended CMINUS —
// name resolution, the overloaded-operator type checking of §III-A,
// the with-loop / matrixMap / transform checks, and the tuple and
// reference-counting rules — specified as a composable attribute
// grammar (internal/attr) in the style of Silver, exactly as the paper
// describes: the host language and each extension contribute attribute
// equations, and the modular well-definedness analysis validates each
// extension's spec (see sem_test.go).
//
// The equations are pure functions of the tree — they name attributes
// by interned handle and write nothing outside their result — so the
// composed grammar is built once per process (Grammar) and shared,
// lock-free, by every Check; Info is read off the decorated tree.
package sem

import (
	"repro/internal/ast"
	"repro/internal/source"
	"repro/internal/types"
)

// Symbol is one declared name.
type Symbol struct {
	Name string
	Type *types.Type
	Node ast.Node
}

// Scope is a persistent (immutable, linked) lexical environment.
// Bind returns a new scope; Push opens a nested block level used for
// duplicate-declaration detection.
type Scope struct {
	parent *Scope
	sym    *Symbol // nil for block markers
	depth  int
}

// Push opens a new block level.
func (s *Scope) Push() *Scope {
	d := 0
	if s != nil {
		d = s.depth + 1
	}
	return &Scope{parent: s, depth: d}
}

// Bind adds a symbol at the current level.
func (s *Scope) Bind(name string, t *types.Type, node ast.Node) *Scope {
	d := 0
	if s != nil {
		d = s.depth
	}
	return &Scope{parent: s, sym: &Symbol{Name: name, Type: t, Node: node}, depth: d}
}

// Lookup finds the nearest binding of name, or nil.
func (s *Scope) Lookup(name string) *Symbol {
	for cur := s; cur != nil; cur = cur.parent {
		if cur.sym != nil && cur.sym.Name == name {
			return cur.sym
		}
	}
	return nil
}

// DeclaredInBlock reports whether name is already bound at the
// current block level (for duplicate-declaration errors).
func (s *Scope) DeclaredInBlock(name string) bool {
	if s == nil {
		return false
	}
	d := s.depth
	for cur := s; cur != nil && cur.depth == d; cur = cur.parent {
		if cur.sym != nil && cur.sym.Name == name {
			return true
		}
	}
	return false
}

// FuncSig is a user-defined function's signature.
type FuncSig struct {
	Name string
	Type *types.Type // Kind Func
	Decl *ast.FuncDecl
}

// Info is the result of semantic analysis, consumed by the
// interpreter and the code generator. Check reads it off the decorated
// tree; after an internal error its maps are nil (reads still work).
type Info struct {
	// Types maps every analyzed expression to its inferred type.
	Types map[ast.Expr]*types.Type
	// Funcs maps function names to signatures.
	Funcs map[string]*FuncSig
	// GlobalTypes maps global variable names to their types.
	GlobalTypes map[string]*types.Type
	// ScalarBodies holds every with-loop whose body the C back end
	// lowers to scalar loop code (§III-A.4); the others run a general
	// translated body. split, tile, unroll and vectorize need one.
	ScalarBodies map[*ast.WithLoop]bool
}

// TypeOf returns the recorded type of e (InvalidT if unrecorded).
func (in *Info) TypeOf(e ast.Expr) *types.Type {
	if t, ok := in.Types[e]; ok {
		return t
	}
	return types.InvalidT
}

// errlist is the value of the "errs" synthesized attribute.
type errlist []source.Diagnostic

func errf(n ast.Node, format string, args ...any) source.Diagnostic {
	var span source.Span
	if n != nil {
		span = n.Span()
	}
	d := source.Diagnostics{}
	d.Errorf(span, format, args...)
	return d.All()[0]
}
