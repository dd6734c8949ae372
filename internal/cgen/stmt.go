// Statement translation with reference-count insertion (§III-B):
// owned temporaries are released at the end of each statement,
// variable assignment retains the new value and releases the old, and
// scope exits release block locals.
package cgen

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/types"
)

func (f *fnEmitter) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		f.b.line("{")
		f.b.indent++
		f.pushScope()
		for _, st := range s.Stmts {
			f.stmt(st)
		}
		f.popScope()
		f.b.indent--
		f.b.line("}")

	case *ast.DeclStmt:
		ty := types.MustFrom(s.Type)
		if s.Init == nil {
			cn := f.declare(s.Name, ty)
			if ty.Kind == types.Tuple {
				f.b.line("%s %s = {0};", f.g.tupleType(ty), cn)
			} else {
				f.b.line("%s%s = 0;", padType(f.g.cType(ty)), cn)
			}
			f.trackVar(cn, ty)
			return
		}
		// The initializer reads the bindings outside the declaration.
		val := f.g.convert(f.expr(s.Init), f.g.info.TypeOf(s.Init), ty)
		cn := f.declare(s.Name, ty)
		f.b.line("%s%s = %s;", padType(f.g.cType(ty)), cn, val)
		retain(f.b, cn, ty)
		f.trackVar(cn, ty)
		f.releaseTemps()

	case *ast.AssignStmt:
		f.assignStmt(s)

	case *ast.IfStmt:
		f.b.line("if (%s) {", f.materializeCond(s.Cond))
		f.scoped(s.Then)
		if s.Else != nil {
			f.b.line("} else {")
			f.scoped(s.Else)
		}
		f.b.line("}")

	case *ast.WhileStmt:
		// Conditions may allocate temporaries (matrix compares reduce
		// to scalars only via user code, but calls can allocate), so
		// evaluate the condition inside the loop with a break-out.
		f.b.line("for (;;) {")
		f.b.indent++
		f.b.line("if (!%s) break;", f.materializeCond(s.Cond))
		f.loopBody(s.Body, "")
		f.b.indent--
		f.b.line("}")

	case *ast.ForStmt:
		f.b.line("{")
		f.b.indent++
		f.pushScope()
		f.stmt(s.Init)
		f.b.line("for (;;) {")
		f.b.indent++
		if s.Cond != nil {
			f.b.line("if (!%s) break;", f.materializeCond(s.Cond))
		}
		// 'continue' must still run the post statement; route it
		// through a label placed before the post.
		label := f.g.fresh("cont")
		f.loopBody(s.Body, label)
		f.b.line("%s:;", label)
		f.stmt(s.Post)
		f.b.indent--
		f.b.line("}")
		f.popScope()
		f.b.indent--
		f.b.line("}")

	case *ast.ReturnStmt:
		if s.Value == nil {
			if f.cilk {
				f.b.line("cm_sync_from(_cilk_mark); /* implicit sync at function exit */")
			}
			f.releaseScopes(0)
			f.b.line("return;")
			return
		}
		retTy := f.g.info.Funcs[f.fn.Name].Type.Ret
		val := f.g.convert(f.expr(s.Value), f.g.info.TypeOf(s.Value), retTy)
		ret := f.g.fresh("ret")
		f.b.line("%s%s = %s;", padType(f.g.cType(retTy)), ret, val)
		// Secure the result before temp and scope releases: returned
		// values carry one owned reference out of the function.
		retain(f.b, ret, retTy)
		f.releaseTemps()
		if f.cilk {
			f.b.line("cm_sync_from(_cilk_mark); /* implicit sync at function exit */")
		}
		f.releaseScopes(0)
		f.b.line("return %s;", ret)

	case *ast.ExprStmt:
		if val := f.expr(s.X); val != "" {
			f.b.line("(void)(%s);", val)
		}
		f.releaseTemps()

	case *ast.BreakStmt:
		f.releaseScopes(f.loops[len(f.loops)-1].depth)
		f.b.line("break;")
	case *ast.ContinueStmt:
		l := f.loops[len(f.loops)-1]
		f.releaseScopes(l.depth)
		if l.cont != "" {
			f.b.line("goto %s;", l.cont)
		} else {
			f.b.line("continue;")
		}

	case *ast.SpawnStmt:
		f.g.usesCilk = true
		f.emitSpawn(s)
	case *ast.SyncStmt:
		f.b.line("cm_sync_from(_cilk_mark);")
	default:
		panic(bug("unknown statement %T", s))
	}
}

// scoped emits s one level in, in a scope of its own.
func (f *fnEmitter) scoped(s ast.Stmt) {
	f.b.indent++
	f.pushScope()
	f.stmt(s)
	f.popScope()
	f.b.indent--
}

// loopBody emits a loop's body in a scope of its own; break and
// continue inside it release every scope from that one in, and
// continue jumps to cont ("": a plain continue).
func (f *fnEmitter) loopBody(body ast.Stmt, cont string) {
	f.loops = append(f.loops, loopExit{cont, len(f.scopes)})
	f.pushScope()
	f.stmt(body)
	f.popScope()
	f.loops = f.loops[:len(f.loops)-1]
}

// materializeCond evaluates a (scalar bool) condition into a fresh C
// variable and releases the expression's temporaries, so the condition
// value never references memory freed by RC insertion.
func (f *fnEmitter) materializeCond(e ast.Expr) string {
	cond := f.expr(e)
	cn := f.g.fresh("c")
	f.b.line("int %s = (%s);", cn, cond)
	f.releaseTemps()
	return cn
}

func (f *fnEmitter) assignStmt(s *ast.AssignStmt) {
	rhs := f.expr(s.RHS)
	rhsTy := f.g.info.TypeOf(s.RHS)
	// The VM evaluates the value first: a target's index that calls a
	// function must not change it.
	if f.effects(s.LHS...) {
		rhs = f.snapshot(rhs, rhsTy)
	}
	if len(s.LHS) == 1 {
		f.assignLValue(s.LHS[0], rhs, rhsTy)
		f.releaseTemps()
		return
	}
	// Tuple destructuring: bind the struct once, then assign members.
	tmp := f.g.fresh("d")
	f.b.line("%s %s = %s;", f.g.tupleType(rhsTy), tmp, rhs)
	for k, l := range s.LHS {
		f.assignLValue(l, fmt.Sprintf("%s._%d", tmp, k), rhsTy.Elems[k])
	}
	f.releaseTemps()
}

func (f *fnEmitter) assignLValue(lhs ast.Expr, val string, valTy *types.Type) {
	switch l := lhs.(type) {
	case *ast.Ident:
		ty := f.g.info.TypeOf(l)
		if v, ok := f.vars[l.Name]; ok {
			ty = v.ty
		}
		f.assignVar(f.cvar(l.Name), ty, val, valTy)
	case *ast.IndexExpr:
		base, vals := f.indexOperands(l)
		if valTy.IsMatrix() {
			f.b.line("cm_store(%s, %d, %s, %s);", base, len(l.Args), f.indexSpecArray(l, vals), val)
		} else {
			f.b.line("%s = %s;", cellRef(base, f.g.info.TypeOf(l.X), vals), f.g.convert(val, valTy, f.g.info.TypeOf(l)))
		}
	default:
		panic(bug("cannot assign to %s", ast.ExprString(lhs)))
	}
}
