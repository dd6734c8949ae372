// Proof-time inlining (DESIGN.md §14.2): a call of a pure scalar function
// in a with-loop body is emitted in place. The shape check is the purity
// proof: ifs and returns, every path returning, int or float parameters
// and result, every expression in the plan language. A parameter is its
// argument's code, built where the call is; an if is a select between
// the runs its arms continue with. Declined: a global read, a call it
// cannot inline, a loop, an assignment, a declaration, an effect; a
// recursion; a parameter never read (the closure path evaluates, and may
// trap on, every argument); a plan beyond the caps below.
package vet

import (
	"slices"

	"repro/internal/ast"
	"repro/internal/matrix"
	"repro/internal/types"
)

// The caps: calls nested in calls, and plan instructions (an argument is
// repeated at every read, a run after an if in both arms).
const (
	inlineDepthMax = 4
	inlineCodeMax  = 512
)

// inlined is a callee being emitted, and where its arguments are built.
type inlined struct {
	fn     *ast.FuncDecl
	params []param // by position
	ids    map[string]int
	caller *inlined
	depth  int // calls nested, this one included
}

// param is one parameter of an inlined call.
type param struct {
	arg     ast.Expr
	promote bool // an int argument bound to a float parameter
	read    bool
}

// call emits a call of a pure scalar function in place.
func (b *withBuilder) call(e *ast.CallExpr) (types.Kind, bool) {
	sig, ok := b.info.Funcs[e.Fun]
	if !ok || sig.Decl == nil {
		return 0, b.decline(e, "call of a builtin")
	}
	fn := sig.Decl
	ret := scalarKind(sig.Type.Ret)
	env := &inlined{fn: fn, params: make([]param, len(e.Args)), ids: b.ids, caller: b.env, depth: 1}
	for in := b.env; in != nil; in = in.caller {
		if in.fn == fn {
			return 0, b.decline(e, "recursive call")
		}
		env.depth = max(env.depth, in.depth+1)
	}
	switch {
	case ret == types.Invalid:
		return 0, b.decline(e, "callee returns no int or float")
	case env.depth > inlineDepthMax:
		return 0, b.decline(e, "calls nested too deep")
	case len(sig.Type.Params) != len(e.Args) || len(fn.Params) != len(e.Args):
		return 0, b.decline(e, "call arity")
	}
	for k := range fn.Params {
		pk, ak := scalarKind(sig.Type.Params[k]), b.kindOf(e.Args[k])
		if pk == types.Invalid || ak == types.Invalid || (pk == types.Int && ak == types.Float) {
			return 0, b.decline(e.Args[k], "argument not an int or float scalar of its parameter's")
		}
		env.params[k] = param{arg: e.Args[k], promote: pk == types.Float && ak == types.Int}
	}
	b.env, b.ids = env, nil
	ok = b.stmts(fn, fn.Body.Stmts, ret)
	b.env, b.ids = env.caller, env.ids
	if !ok {
		return 0, false
	}
	for k, p := range fn.Params {
		if !env.params[k].read {
			return 0, b.decline(p, "unused parameter") // or one named twice: the last binds
		}
	}
	// On the closure path the callee's frame sits below one body frame a
	// nested fold enclosing the call, and one a caller.
	b.plan.Inline = max(b.plan.Inline, b.folds+env.depth)
	return ret, true
}

// param emits a parameter read: its argument's code, built where the
// call is, and the promotion the call binds it with. Any other name a
// callee reads is a global.
func (b *withBuilder) param(e *ast.Ident) (types.Kind, bool) {
	env := b.env
	k := len(env.fn.Params) - 1
	for k >= 0 && env.fn.Params[k].Name != e.Name {
		k--
	}
	switch {
	case k < 0:
		return 0, b.decline(e, "callee reads a global")
	case len(b.plan.Code) > inlineCodeMax:
		return 0, b.decline(e, "inlined plan too large")
	}
	p := &env.params[k]
	p.read = true
	ids := b.ids
	b.env, b.ids = env.caller, env.ids
	kind, ok := b.build(p.arg)
	b.env, b.ids = env, ids
	if ok && p.promote {
		b.emit(matrix.WithInstr{Op: matrix.WI2F})
		kind = types.Float
	}
	return kind, ok
}

// stmts emits the value fn returns when it runs ss: a return's value,
// promoted to the result kind ret, or an if's select between the runs its
// arms continue with. Statements after a return are never run.
func (b *withBuilder) stmts(fn *ast.FuncDecl, ss []ast.Stmt, ret types.Kind) bool {
	if len(ss) == 0 {
		return b.decline(fn, "callee may fall off its end")
	}
	if len(b.plan.Code) > inlineCodeMax {
		return b.decline(ss[0], "inlined plan too large")
	}
	switch s := ss[0].(type) {
	case *ast.BlockStmt:
		return b.stmts(fn, slices.Concat(s.Stmts, ss[1:]), ret)
	case *ast.ReturnStmt:
		k := b.kindOf(s.Value)
		if s.Value == nil || k == types.Invalid || (ret == types.Int && k == types.Float) {
			return b.decline(s, "return of no int or float")
		}
		return b.promoted(s.Value, k, ret == types.Float)
	case *ast.IfStmt:
		then := slices.Concat([]ast.Stmt{s.Then}, ss[1:])
		els := ss[1:]
		if s.Else != nil {
			els = slices.Concat([]ast.Stmt{s.Else}, els)
		}
		if !b.mask(s.Cond) || !b.stmts(fn, then, ret) || !b.stmts(fn, els, ret) {
			return false
		}
		b.emit(matrix.WithInstr{Op: pick(ret == types.Float, matrix.WSelF, matrix.WSelI)})
		return true
	case *ast.DeclStmt:
		return b.decline(s, "callee declares a local")
	case *ast.AssignStmt:
		return b.decline(s, "callee assigns")
	case *ast.WhileStmt, *ast.ForStmt:
		return b.decline(s, "callee loops")
	}
	return b.decline(ss[0], "callee statement with an effect")
}

// scalarKind is t's kind when it is int or float, else Invalid.
func scalarKind(t *types.Type) types.Kind {
	if t == nil || (t.Kind != types.Int && t.Kind != types.Float) {
		return types.Invalid
	}
	return t.Kind
}
