// Syntactic pre-scan of loop bodies: before analyzing a loop body the
// checker widens every variable the body can assign (its facts become
// unknown — the loop may run any number of times) and marks every
// refcounted pointer the body can release as may-released. This keeps
// the analysis single-pass while staying sound for loops.
package vet

import (
	"slices"

	"repro/internal/ast"
	"repro/internal/sem"
)

type loopEffects struct {
	funcs    map[string]*sem.FuncSig // the program's functions: a call resolves to one before a builtin
	assigned map[string]bool         // idents assigned anywhere in the body
	released map[string]bool         // idents passed to rcrelease in the body
	callees  map[string]bool         // user functions the body calls (globals havocked)
}

func newEffects(info *sem.Info) *loopEffects {
	return &loopEffects{funcs: info.Funcs, assigned: map[string]bool{}, released: map[string]bool{}, callees: map[string]bool{}}
}

// add collects the effects of running n. A declared name is
// block-scoped: an outer variable of the same name is shadowed, not
// assigned (treating it as assigned would only lose precision), so a
// DeclStmt contributes its initializer's effects alone.
func (fx *loopEffects) add(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.LHS {
				if id, ok := lhs.(*ast.Ident); ok {
					fx.assigned[id.Name] = true
				}
			}
		case *ast.SpawnStmt:
			if n.Target != "" {
				fx.assigned[n.Target] = true
			}
		case *ast.CallExpr:
			if _, user := fx.funcs[n.Fun]; user {
				fx.callees[n.Fun] = true
			} else if n.Fun == "rcrelease" && len(n.Args) == 1 {
				if id, ok := n.Args[0].(*ast.Ident); ok {
					fx.released[id.Name] = true
				}
			}
		case *ast.MatrixMap:
			fx.callees[n.Fun] = true // the mapped function runs per sub-matrix
		}
		return true
	})
}

func (c *checker) widenLoop(e env, body, post ast.Stmt) {
	fx := newEffects(c.info)
	fx.add(body)
	fx.add(post)
	for _, name := range sortedKeys(fx.assigned) {
		st, ok := e[name]
		if !ok {
			continue
		}
		st.fact = fact{}
		if isMatrixT(st.ty) {
			st.dims = c.freshDims(st.ty.Rank)
		} else {
			st.dims = nil
		}
		// Reassignment may replace a released pointer with a fresh one:
		// no longer definitely released, but "may" sticks.
		st.rcMust = false
	}
	for _, name := range sortedKeys(fx.released) {
		if st, ok := e[name]; ok {
			st.rcMay = true
			st.rcMust = false // released only if the body actually ran
		}
	}
	if len(fx.callees) > 0 {
		c.havocGlobals(e)
	}
}

// sortedKeys lists m's keys in order, for a deterministic walk.
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// anyStmt reports whether pred holds of s or of a statement inside it.
// Expressions hold no statements, so the walk does not enter them.
func anyStmt(s ast.Stmt, pred func(ast.Stmt) bool) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		st, ok := n.(ast.Stmt)
		found = found || ok && pred(st)
		return ok && !found
	})
	return found
}

// hasLoopBreak reports whether the statement (a loop body) contains a
// break that would exit this loop — breaks inside nested loops don't
// count.
func hasLoopBreak(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BreakStmt:
		return true
	case *ast.BlockStmt:
		for _, st := range s.Stmts {
			if hasLoopBreak(st) {
				return true
			}
		}
	case *ast.IfStmt:
		return hasLoopBreak(s.Then) || hasLoopBreak(s.Else)
	}
	return false
}
