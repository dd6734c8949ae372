// Syntactic pre-scan of loop bodies: before analyzing a loop body the
// checker widens every variable the body can assign (its facts become
// unknown — the loop may run any number of times) and marks every
// refcounted pointer the body can release as may-released. This keeps
// the analysis single-pass while staying sound for loops.
package vet

import "repro/internal/ast"

type loopEffects struct {
	assigned map[string]bool // idents assigned anywhere in the body
	released map[string]bool // idents passed to rcrelease in the body
	callees  map[string]bool // user functions the body calls (globals havocked)
}

func newEffects() *loopEffects {
	return &loopEffects{assigned: map[string]bool{}, released: map[string]bool{}, callees: map[string]bool{}}
}

func (c *checker) widenLoop(e env, body, post ast.Stmt) {
	fx := newEffects()
	stmtEffects(body, fx)
	stmtEffects(post, fx)
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

func sortedKeys(m map[string]bool) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

func stmtEffects(s ast.Stmt, fx *loopEffects) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.Stmts {
			stmtEffects(st, fx)
		}
	case *ast.DeclStmt:
		// The declared name is block-scoped; an outer variable of the
		// same name is shadowed, not assigned. Conservatively treating
		// it as assigned would only lose precision, so skip the name
		// but keep the initializer's effects.
		exprEffects(s.Init, fx)
	case *ast.AssignStmt:
		exprEffects(s.RHS, fx)
		for _, lhs := range s.LHS {
			switch t := lhs.(type) {
			case *ast.Ident:
				fx.assigned[t.Name] = true
			case *ast.IndexExpr:
				exprEffects(t, fx)
			default:
				exprEffects(lhs, fx)
			}
		}
	case *ast.IfStmt:
		exprEffects(s.Cond, fx)
		stmtEffects(s.Then, fx)
		stmtEffects(s.Else, fx)
	case *ast.WhileStmt:
		exprEffects(s.Cond, fx)
		stmtEffects(s.Body, fx)
	case *ast.ForStmt:
		stmtEffects(s.Init, fx)
		exprEffects(s.Cond, fx)
		stmtEffects(s.Post, fx)
		stmtEffects(s.Body, fx)
	case *ast.ReturnStmt:
		exprEffects(s.Value, fx)
	case *ast.ExprStmt:
		exprEffects(s.X, fx)
	case *ast.SpawnStmt:
		exprEffects(s.Call, fx)
		if s.Target != "" {
			fx.assigned[s.Target] = true
		}
	}
}

func exprEffects(x ast.Expr, fx *loopEffects) {
	switch x := x.(type) {
	case nil:
	case *ast.UnaryExpr:
		exprEffects(x.X, fx)
	case *ast.BinaryExpr:
		exprEffects(x.L, fx)
		exprEffects(x.R, fx)
	case *ast.CallExpr:
		if x.Fun == "rcrelease" && len(x.Args) == 1 {
			if id, ok := x.Args[0].(*ast.Ident); ok {
				fx.released[id.Name] = true
			}
		}
		if !isBuiltin(x.Fun) {
			fx.callees[x.Fun] = true
		}
		for _, a := range x.Args {
			exprEffects(a, fx)
		}
	case *ast.CastExpr:
		exprEffects(x.X, fx)
	case *ast.IndexExpr:
		exprEffects(x.X, fx)
		for _, a := range x.Args {
			switch a := a.(type) {
			case *ast.IdxScalar:
				exprEffects(a.X, fx)
			case *ast.IdxRange:
				exprEffects(a.Lo, fx)
				exprEffects(a.Hi, fx)
			}
		}
	case *ast.RangeExpr:
		exprEffects(x.Lo, fx)
		exprEffects(x.Hi, fx)
	case *ast.WithLoop:
		for _, b := range x.Lower {
			exprEffects(b, fx)
		}
		for _, b := range x.Upper {
			exprEffects(b, fx)
		}
		switch op := x.Op.(type) {
		case *ast.GenArrayOp:
			for _, s := range op.Shape {
				exprEffects(s, fx)
			}
			exprEffects(op.Body, fx)
		case *ast.FoldOp:
			exprEffects(op.Init, fx)
			exprEffects(op.Body, fx)
		}
	case *ast.MatrixMap:
		fx.callees[x.Fun] = true // the mapped function runs per sub-matrix
		exprEffects(x.Arg, fx)
		for _, d := range x.Dims {
			exprEffects(d, fx)
		}
	case *ast.InitExpr:
		for _, d := range x.Dims {
			exprEffects(d, fx)
		}
	case *ast.TupleExpr:
		for _, el := range x.Elems {
			exprEffects(el, fx)
		}
	}
}

func isBuiltin(name string) bool {
	switch name {
	case "dimSize", "readMatrix", "writeMatrix", "print",
		"rcnew", "rcget", "rcset", "rcrelease":
		return true
	}
	return false
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
