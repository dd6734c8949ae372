// Frame-local matrices: which allocation sites make a matrix that lives
// and dies in its frame. A site is an expression that makes a fresh
// matrix — an elementwise or matrix operation, a genarray, an init, an
// index selection — bound whole to a local variable, by its declaration
// or a one-variable assignment. It is frame-local when no matrix it
// makes may escape through the alias sets of summary.go: none is
// returned; stored in a global, an rc cell (rcnew, rcset), a tuple or
// another variable; spawned; or passed to a callee whose summary may do
// one of these with it (pRetain). Every reference to such a matrix is
// then a counted one the frame's own execution takes and drops, so once
// its count is dead nothing can reach it, and the VM's frame may keep
// its storage for the site's next execution (matrix.Keep).
package vet

import (
	"slices"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/types"
)

// FrameLocal is one frame-local site: the expression that makes the
// matrix and the local variable it is bound to.
type FrameLocal struct {
	At   ast.Expr
	Name string
}

// localScan is the frame-local scan's state over one function: the site
// and variable each allocation atom was made for, the atoms that
// escape, and whether a site's atom escaped into a call with no summary
// (which a summary might have kept in).
type localScan struct {
	sites   map[int]FrameLocal
	escaped map[int]bool
	unsure  bool
}

// unsureOf notes that s escaped into a call with no summary: unsure
// when s holds a site's matrix.
func (l *localScan) unsureOf(s aset) {
	for a := range s.atoms {
		if _, site := l.sites[a]; site {
			l.unsure = true
		}
	}
}

// fresh is the allocation atom of the value bound to the local name at
// n, made by site (nil: a value that is not one site's, such as an
// element of a returned tuple).
func (w *walker) fresh(n ast.Node, name string, site ast.Expr) aset {
	s := w.atomOf(n, name)
	if w.locals != nil && site != nil && allocSite(w.info, site) {
		for a := range s.atoms {
			w.locals.sites[a] = FrameLocal{At: site, Name: name}
		}
	}
	return s
}

// allocSite reports whether e makes a fresh matrix of its own.
func allocSite(info *sem.Info, e ast.Expr) bool {
	if t := info.TypeOf(e); t == nil || t.Kind != types.Matrix {
		return false
	}
	switch e := e.(type) {
	case *ast.BinaryExpr, *ast.InitExpr, *ast.IndexExpr:
		return true
	case *ast.WithLoop:
		_, gen := e.Op.(*ast.GenArrayOp)
		return gen
	}
	return false
}

// hasSite reports whether s binds a site's matrix to a local anywhere:
// a function with none is not scanned.
func hasSite(info *sem.Info, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.Stmts {
			if hasSite(info, st) {
				return true
			}
		}
	case *ast.DeclStmt:
		return s.Init != nil && allocSite(info, s.Init)
	case *ast.AssignStmt:
		return len(s.LHS) == 1 && allocSite(info, s.RHS)
	case *ast.IfStmt:
		return hasSite(info, s.Then) || hasSite(info, s.Else)
	case *ast.WhileStmt:
		return hasSite(info, s.Body)
	case *ast.ForStmt:
		return hasSite(info, s.Init) || hasSite(info, s.Body) || hasSite(info, s.Post)
	}
	return false
}

// FrameLocals lists the frame-local sites of a checked program, in
// source order: what Facts.FrameLocal answers from. The first scan has no callee summaries, so every
// argument of a call to a user function escapes; only when a site's
// matrix is such an argument does it compute the summaries and scan
// again (the effect fixpoint is most of the cost, and most sites are
// read by builtins, folds and indexing alone).
func FrameLocals(prog *ast.Program, info *sem.Info) []FrameLocal {
	if prog == nil || info == nil {
		return nil
	}
	out, unsure := scanLocals(prog, info, map[string]*summary{})
	if unsure {
		out, _ = scanLocals(prog, info, computeSummaries(prog, info))
	}
	slices.SortFunc(out, func(x, y FrameLocal) int {
		a, b := x.At.Span().Start, y.At.Span().Start
		if a.Line != b.Line {
			return a.Line - b.Line
		}
		return a.Col - b.Col
	})
	return out
}

// scanLocals walks every function with the summaries sums and returns
// its frame-local sites, and whether a site escaped into a call sums has
// no summary for.
func scanLocals(prog *ast.Program, info *sem.Info, sums map[string]*summary) (out []FrameLocal, unsure bool) {
	for _, d := range prog.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || !hasSite(info, fd.Body) {
			continue
		}
		w := newWalker(prog, info, sums)
		w.locals = &localScan{sites: map[int]FrameLocal{}, escaped: map[int]bool{}}
		w.bindParams(fd)
		w.stmt(fd.Body)
		unsure = unsure || w.locals.unsure
		kept := map[ast.Expr]FrameLocal{}
		escaped := map[ast.Expr]bool{}
		for a, s := range w.locals.sites {
			if w.locals.escaped[a] {
				escaped[s.At] = true
			} else {
				kept[s.At] = s
			}
		}
		for at, s := range kept {
			if !escaped[at] {
				out = append(out, s)
			}
		}
	}
	return out, unsure
}
