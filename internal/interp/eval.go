// Statement and expression evaluation.
package interp

import (
	"repro/internal/ast"
	"repro/internal/matrix"
	"repro/internal/types"
)

// control is the statement outcome.
type control int

const (
	ctlNone control = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

// MaxCallDepth is the deepest call stack a program may build, on every
// engine: a call from a frame deeper than this traps.
const MaxCallDepth = 512

// callFunction runs fn with already-evaluated arguments.
func (c *ctx) callFunction(fn *ast.FuncDecl, args []any, site ast.Node) (any, error) {
	if c.depth > MaxCallDepth {
		return nil, Trapf(site, TrapDepth, "call stack exceeded %d frames (infinite recursion in %q?)", MaxCallDepth, fn.Name)
	}
	f := newFrame(c.i.globalFrame)
	cc := c.child(f, c.pool)
	for k, p := range fn.Params {
		ty, err := types.FromAST(p.Type)
		if err != nil {
			return nil, WrapError(p, err)
		}
		v, err := CoerceValue(site, ty, args[k])
		if err != nil {
			return nil, err
		}
		cc.i.BindValue(v)
		f.vars[p.Name] = &binding{v: v, ty: ty}
	}
	ctl, ret, err := cc.execStmt(fn.Body)
	// Implicit sync (Cilk): join outstanding spawns before the frame
	// tears down, whatever the exit path.
	if serr := cc.syncFutures(); serr != nil && err == nil {
		err = serr
	}
	if err != nil {
		cc.releasePending(0)
		cc.popFrame(f)
		return nil, err
	}
	if sig, ok := c.i.info.Funcs[fn.Name]; ok && sig.Type.Ret != nil &&
		sig.Type.Ret.Kind != types.Void && sig.Type.Ret.Kind != types.Invalid {
		if ctl == ctlReturn && ret != nil {
			// Promote the returned value to the declared return type
			// (an int returned from a float function arrives as float)
			// so a call result's representation always matches its
			// static type under both engines.
			ret = PromoteScalar(sig.Type.Ret, ret)
		} else if ctl != ctlReturn {
			// A non-void function that falls off its end yields the
			// declared type's zero value, deterministically, under
			// both engines.
			ret = ZeroValue(sig.Type.Ret)
		}
	}
	if ctl == ctlReturn && ret != nil {
		// Keep the return value alive across the frame teardown; the
		// reference is released by the caller's enclosing statement.
		c.pending = c.i.EscapeRef(ret, c.pending)
	}
	cc.releasePending(0)
	cc.popFrame(f)
	return ret, nil
}

// execStmt executes one statement. Escape references created while the
// statement runs are released when it completes (unless it returns,
// in which case callFunction handles them).
func (c *ctx) execStmt(s ast.Stmt) (control, any, error) {
	if err := c.i.StepTick(s); err != nil {
		return ctlNone, nil, err
	}
	mark := len(c.pending)
	ctl, v, err := c.execStmtInner(s)
	if ctl != ctlReturn {
		c.releasePending(mark)
	}
	return ctl, v, err
}

func (c *ctx) execStmtInner(s ast.Stmt) (control, any, error) {
	switch s := s.(type) {
	case nil:
		return ctlNone, nil, nil
	case *ast.BlockStmt:
		f := newFrame(c.frame)
		saved := c.frame
		c.frame = f
		pop := func(ctl control, v any) {
			if ctl == ctlReturn && v != nil {
				// A returned value may be (or contain) a matrix bound
				// in this block; keep it alive across the frame pop.
				// callFunction takes the caller's own reference before
				// releasing this pending one.
				c.pending = c.i.EscapeRef(v, c.pending)
			}
			c.popFrame(f)
			c.frame = saved
		}
		for _, st := range s.Stmts {
			ctl, v, err := c.execStmt(st)
			if err != nil || ctl != ctlNone {
				pop(ctl, v)
				return ctl, v, err
			}
		}
		pop(ctlNone, nil)
		return ctlNone, nil, nil

	case *ast.DeclStmt:
		ty, err := types.FromAST(s.Type)
		if err != nil {
			return ctlNone, nil, WrapError(s, err)
		}
		var v any
		if s.Init != nil {
			v, err = c.evalExpr(s.Init)
			if err != nil {
				return ctlNone, nil, err
			}
			v, err = CoerceValue(s, ty, v)
			if err != nil {
				return ctlNone, nil, err
			}
		} else {
			v = ZeroValue(ty)
		}
		c.i.BindValue(v)
		c.frame.vars[s.Name] = &binding{v: v, ty: ty}
		return ctlNone, nil, nil

	case *ast.AssignStmt:
		rhs, err := c.evalExpr(s.RHS)
		if err != nil {
			return ctlNone, nil, err
		}
		if len(s.LHS) == 1 {
			return ctlNone, nil, c.assignTo(s.LHS[0], rhs)
		}
		tup, ok := rhs.([]any)
		if !ok || len(tup) != len(s.LHS) {
			return ctlNone, nil, Errorf(s, "destructuring assignment requires a %d-tuple", len(s.LHS))
		}
		for k, l := range s.LHS {
			if err := c.assignTo(l, tup[k]); err != nil {
				return ctlNone, nil, err
			}
		}
		return ctlNone, nil, nil

	case *ast.IfStmt:
		cond, err := c.evalBool(s.Cond)
		if err != nil {
			return ctlNone, nil, err
		}
		if cond {
			return c.execStmt(s.Then)
		}
		if s.Else != nil {
			return c.execStmt(s.Else)
		}
		return ctlNone, nil, nil

	case *ast.WhileStmt:
		for {
			cond, err := c.evalBool(s.Cond)
			if err != nil {
				return ctlNone, nil, err
			}
			if !cond {
				return ctlNone, nil, nil
			}
			ctl, v, err := c.execStmt(s.Body)
			if err != nil {
				return ctlNone, nil, err
			}
			switch ctl {
			case ctlBreak:
				return ctlNone, nil, nil
			case ctlReturn:
				return ctl, v, nil
			}
		}

	case *ast.ForStmt:
		f := newFrame(c.frame)
		saved := c.frame
		c.frame = f
		pop := func(ctl control, v any) {
			if ctl == ctlReturn && v != nil {
				c.pending = c.i.EscapeRef(v, c.pending) // see BlockStmt
			}
			c.popFrame(f)
			c.frame = saved
		}
		if s.Init != nil {
			if _, _, err := c.execStmt(s.Init); err != nil {
				pop(ctlNone, nil)
				return ctlNone, nil, err
			}
		}
		for {
			cond := true
			if s.Cond != nil {
				var err error
				cond, err = c.evalBool(s.Cond)
				if err != nil {
					pop(ctlNone, nil)
					return ctlNone, nil, err
				}
			}
			if !cond {
				pop(ctlNone, nil)
				return ctlNone, nil, nil
			}
			ctl, v, err := c.execStmt(s.Body)
			if err != nil {
				pop(ctlNone, nil)
				return ctlNone, nil, err
			}
			if ctl == ctlBreak {
				pop(ctlNone, nil)
				return ctlNone, nil, nil
			}
			if ctl == ctlReturn {
				pop(ctl, v)
				return ctl, v, nil
			}
			if s.Post != nil {
				if _, _, err := c.execStmt(s.Post); err != nil {
					pop(ctlNone, nil)
					return ctlNone, nil, err
				}
			}
		}

	case *ast.ReturnStmt:
		if s.Value == nil {
			return ctlReturn, nil, nil
		}
		v, err := c.evalExpr(s.Value)
		if err != nil {
			return ctlNone, nil, err
		}
		return ctlReturn, v, nil

	case *ast.ExprStmt:
		_, err := c.evalExpr(s.X)
		return ctlNone, nil, err

	case *ast.BreakStmt:
		return ctlBreak, nil, nil
	case *ast.ContinueStmt:
		return ctlContinue, nil, nil

	case *ast.SpawnStmt:
		return ctlNone, nil, c.execSpawn(s)
	case *ast.SyncStmt:
		return ctlNone, nil, c.syncFutures()
	}
	return ctlNone, nil, Errorf(s, "unknown statement %T", s)
}

// assignTo stores v into an lvalue (identifier or indexed matrix).
func (c *ctx) assignTo(lhs ast.Expr, v any) error {
	switch l := lhs.(type) {
	case *ast.Ident:
		b, ok := c.frame.lookup(l.Name)
		if !ok {
			return Errorf(l, "undeclared variable %q", l.Name)
		}
		cv, err := CoerceValue(l, b.ty, v)
		if err != nil {
			return err
		}
		c.i.BindValue(cv)
		c.i.ReleaseValue(b.v)
		b.v = cv
		return nil
	case *ast.IndexExpr:
		baseV, err := c.evalExpr(l.X)
		if err != nil {
			return err
		}
		m, ok := baseV.(*matrix.Matrix)
		if !ok || m == nil {
			return Errorf(l, "cannot index-assign into a non-matrix or unassigned matrix")
		}
		specs, err := c.indexSpecs(l, m)
		if err != nil {
			return err
		}
		return WrapError(l, m.SetIndex(v, specs...))
	}
	return Errorf(lhs, "cannot assign to %s", ast.ExprString(lhs))
}

func (c *ctx) evalBool(e ast.Expr) (bool, error) {
	v, err := c.evalExpr(e)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, Errorf(e, "condition evaluated to %T, not bool", v)
	}
	return b, nil
}

func (c *ctx) evalInt(e ast.Expr) (int64, error) {
	v, err := c.evalExpr(e)
	if err != nil {
		return 0, err
	}
	n, ok := v.(int64)
	if !ok {
		return 0, Errorf(e, "expected an int value, got %T", v)
	}
	return n, nil
}

var binToMatrixOp = map[ast.BinOp]matrix.Op{
	ast.OpAdd: matrix.OpAdd, ast.OpSub: matrix.OpSub,
	ast.OpMul: matrix.OpMul, ast.OpElemMul: matrix.OpMul,
	ast.OpDiv: matrix.OpDiv, ast.OpMod: matrix.OpMod,
	ast.OpEq: matrix.OpEq, ast.OpNe: matrix.OpNe,
	ast.OpLt: matrix.OpLt, ast.OpLe: matrix.OpLe,
	ast.OpGt: matrix.OpGt, ast.OpGe: matrix.OpGe,
	ast.OpAnd: matrix.OpAnd, ast.OpOr: matrix.OpOr,
}

func (c *ctx) evalExpr(e ast.Expr) (any, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, nil
	case *ast.FloatLit:
		return e.Value, nil
	case *ast.BoolLit:
		return e.Value, nil
	case *ast.StrLit:
		return e.Value, nil

	case *ast.Ident:
		b, ok := c.frame.lookup(e.Name)
		if !ok {
			return nil, Errorf(e, "undeclared variable %q", e.Name)
		}
		return b.v, nil

	case *ast.BinaryExpr:
		// Short-circuit scalar && / ||.
		if e.Op == ast.OpAnd || e.Op == ast.OpOr {
			l, err := c.evalExpr(e.L)
			if err != nil {
				return nil, err
			}
			if lb, ok := l.(bool); ok {
				if e.Op == ast.OpAnd && !lb {
					return false, nil
				}
				if e.Op == ast.OpOr && lb {
					return true, nil
				}
				r, err := c.evalExpr(e.R)
				if err != nil {
					return nil, err
				}
				rb, ok := r.(bool)
				if !ok {
					return nil, Errorf(e, "operator %s requires bool operands", e.Op)
				}
				return rb, nil
			}
			r, err := c.evalExpr(e.R)
			if err != nil {
				return nil, err
			}
			return c.binaryVals(e, l, r)
		}
		l, err := c.evalExpr(e.L)
		if err != nil {
			return nil, err
		}
		r, err := c.evalExpr(e.R)
		if err != nil {
			return nil, err
		}
		return c.binaryVals(e, l, r)

	case *ast.UnaryExpr:
		v, err := c.evalExpr(e.X)
		if err != nil {
			return nil, err
		}
		return EvalUnary(e, v, c.exec())

	case *ast.CastExpr:
		v, err := c.evalExpr(e.X)
		if err != nil {
			return nil, err
		}
		return CastScalar(e, e.To, v)

	case *ast.CallExpr:
		return c.evalCall(e)

	case *ast.IndexExpr:
		baseV, err := c.evalExpr(e.X)
		if err != nil {
			return nil, err
		}
		m, ok := baseV.(*matrix.Matrix)
		if !ok || m == nil {
			return nil, Errorf(e, "cannot index a non-matrix or unassigned matrix")
		}
		specs, err := c.indexSpecs(e, m)
		if err != nil {
			return nil, err
		}
		v, err := m.Index(c.i.budget, specs...)
		return v, WrapError(e, err)

	case *ast.EndExpr:
		if len(c.end) == 0 {
			return nil, Errorf(e, "'end' used outside an index expression")
		}
		return c.end[len(c.end)-1], nil

	case *ast.RangeExpr:
		lo, err := c.evalInt(e.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.evalInt(e.Hi)
		if err != nil {
			return nil, err
		}
		m, err := matrix.RangeBudgeted(c.i.budget, lo, hi)
		if err != nil {
			return nil, WrapError(e, err)
		}
		return m, nil

	case *ast.TupleExpr:
		out := make([]any, len(e.Elems))
		for k, el := range e.Elems {
			v, err := c.evalExpr(el)
			if err != nil {
				return nil, err
			}
			out[k] = v
		}
		return out, nil

	case *ast.WithLoop:
		return c.evalWithLoop(e)

	case *ast.MatrixMap:
		return c.evalMatrixMap(e)

	case *ast.InitExpr:
		dims := make([]int, len(e.Dims))
		for k, d := range e.Dims {
			n, err := c.evalInt(d)
			if err != nil {
				return nil, err
			}
			if n < 0 {
				return nil, Errorf(e, "init dimension %d is negative (%d)", k, n)
			}
			dims[k] = int(n)
		}
		elem, err := matrixElemOf(e, types.MustFrom(e.Type))
		if err != nil {
			return nil, err
		}
		m, err := matrix.NewBudgeted(c.i.budget, elem, dims...)
		return m, WrapError(e, err)
	}
	return nil, Errorf(e, "unknown expression %T", e)
}

// binaryVals applies a binary operator to evaluated operands.
func (c *ctx) binaryVals(e *ast.BinaryExpr, l, r any) (any, error) {
	return EvalBinary(e, l, r, c.exec())
}

// EvalBinary applies a binary operator to evaluated operands, choosing
// among scalar, broadcast, elementwise and matmul forms (§III-A.2).
// Exported so alternate engines share one operator semantics,
// including the kernel-temporary recycling of chained expressions.
func EvalBinary(e *ast.BinaryExpr, l, r any, x matrix.Exec) (any, error) {
	lm, lIsM := l.(*matrix.Matrix)
	rm, rIsM := r.(*matrix.Matrix)
	if lIsM && lm == nil || rIsM && rm == nil {
		return nil, Errorf(e, "use of unassigned matrix")
	}
	op, ok := binToMatrixOp[e.Op]
	if !ok {
		return nil, Errorf(e, "unknown operator %s", e.Op)
	}
	switch {
	case lIsM && rIsM:
		if e.Op == ast.OpMul {
			out, err := matrix.MatMulExec(lm, rm, x)
			recycleTemps(e, lm, rm)
			return out, WrapError(e, err)
		}
		out, err := matrix.ElementwiseExec(op, lm, rm, x)
		recycleTemps(e, lm, rm)
		return out, WrapError(e, err)
	case lIsM:
		out, err := matrix.BroadcastExec(op, lm, r, true, x)
		recycleTemps(e, lm, nil)
		return out, WrapError(e, err)
	case rIsM:
		out, err := matrix.BroadcastExec(op, rm, l, false, x)
		recycleTemps(e, nil, rm)
		return out, WrapError(e, err)
	default:
		v, err := matrix.ScalarBinary(op, l, r)
		return v, WrapError(e, err)
	}
}

// EvalUnary applies a unary operator to an evaluated operand; exported
// so alternate engines share one operator semantics.
func EvalUnary(e *ast.UnaryExpr, v any, x matrix.Exec) (any, error) {
	if m, ok := v.(*matrix.Matrix); ok {
		out, err := matrix.UnaryExec(e.Op == ast.OpNeg, m, x)
		if kernelTemp(e.X, m) {
			m.Recycle()
		}
		return out, WrapError(e, err)
	}
	switch s := v.(type) {
	case int64:
		if e.Op == ast.OpNeg {
			return -s, nil
		}
	case float64:
		if e.Op == ast.OpNeg {
			return -s, nil
		}
	case bool:
		if e.Op == ast.OpNot {
			return !s, nil
		}
	}
	return nil, Errorf(e, "operator %s cannot be applied to %T", e.Op, v)
}

// kernelTemp reports whether m is an expression temporary produced by
// an arithmetic kernel: a matrix the rc discipline never saw
// (untracked) whose source expression is itself a compound operator.
// Kernels always allocate their result fresh, so such a value is unaliased and
// its only reference is the operand slot currently being consumed —
// which makes it safe to recycle the backing storage the moment the
// enclosing operator has read it. Idents, index results and call
// results are never recycled here: their values may be bound, cached,
// or otherwise shared.
func kernelTemp(src ast.Expr, m *matrix.Matrix) bool {
	if m == nil || m.Tracked() {
		return false
	}
	switch src.(type) {
	case *ast.BinaryExpr, *ast.UnaryExpr:
		return true
	}
	return false
}

// recycleTemps returns the backing buffers of spent kernel temporaries
// to the free list after a binary operator consumed them, so a chained
// expression like (a+b).*c reuses the a+b buffer for its own result
// instead of allocating a third matrix.
func recycleTemps(e *ast.BinaryExpr, lm, rm *matrix.Matrix) {
	lt := lm != nil && kernelTemp(e.L, lm)
	if lt {
		lm.Recycle()
	}
	if rm != nil && rm != lm && kernelTemp(e.R, rm) {
		rm.Recycle()
	}
}

// CastScalar applies a C-style scalar cast to an evaluated value; both
// engines share it.
func CastScalar(n ast.Node, to ast.PrimKind, v any) (any, error) {
	switch to {
	case ast.PrimInt:
		switch x := v.(type) {
		case int64:
			return x, nil
		case float64:
			return int64(x), nil
		case bool:
			if x {
				return int64(1), nil
			}
			return int64(0), nil
		}
	case ast.PrimFloat:
		switch x := v.(type) {
		case int64:
			return float64(x), nil
		case float64:
			return x, nil
		case bool:
			if x {
				return 1.0, nil
			}
			return 0.0, nil
		}
	case ast.PrimBool:
		switch x := v.(type) {
		case bool:
			return x, nil
		case int64:
			return x != 0, nil
		case float64:
			return x != 0, nil
		}
	}
	return nil, Errorf(n, "cannot cast %T to %s", v, to)
}

// indexSpecs evaluates the index arguments of e against matrix m,
// binding 'end' per dimension (§III-A.3).
func (c *ctx) indexSpecs(e *ast.IndexExpr, m *matrix.Matrix) ([]matrix.IndexSpec, error) {
	if len(e.Args) != m.Rank() {
		return nil, Errorf(e, "matrix of rank %d requires %d index expression(s), got %d",
			m.Rank(), m.Rank(), len(e.Args))
	}
	specs := make([]matrix.IndexSpec, len(e.Args))
	for d, arg := range e.Args {
		size, err := m.DimSize(d)
		if err != nil {
			return nil, WrapError(e, err)
		}
		c.end = append(c.end, int64(size-1))
		spec, err := c.oneIndexSpec(arg)
		c.end = c.end[:len(c.end)-1]
		if err != nil {
			return nil, err
		}
		specs[d] = spec
	}
	return specs, nil
}

func (c *ctx) oneIndexSpec(arg ast.IndexArg) (matrix.IndexSpec, error) {
	switch a := arg.(type) {
	case *ast.IdxScalar:
		v, err := c.evalExpr(a.X)
		if err != nil {
			return matrix.IndexSpec{}, err
		}
		switch x := v.(type) {
		case int64:
			return matrix.Scalar(int(x)), nil
		case *matrix.Matrix:
			return matrix.Mask(x), nil
		}
		return matrix.IndexSpec{}, Errorf(a, "index must be an int or a bool matrix, got %T", v)
	case *ast.IdxRange:
		lo, err := c.evalInt(a.Lo)
		if err != nil {
			return matrix.IndexSpec{}, err
		}
		hi, err := c.evalInt(a.Hi)
		if err != nil {
			return matrix.IndexSpec{}, err
		}
		return matrix.Span(int(lo), int(hi)), nil
	case *ast.IdxAll:
		return matrix.All(), nil
	}
	return matrix.IndexSpec{}, Errorf(arg, "unknown index argument %T", arg)
}

// evalWithLoop executes a with-loop (§III-A.4) on the pool; bodies run
// in child contexts with parallelism disabled, so nests parallelize
// the outermost construct only, as in the generated C.
func (c *ctx) evalWithLoop(w *ast.WithLoop) (any, error) {
	lower := make([]int, len(w.Lower))
	upper := make([]int, len(w.Upper))
	for k := range w.Lower {
		lo, err := c.evalInt(w.Lower[k])
		if err != nil {
			return nil, err
		}
		hi, err := c.evalInt(w.Upper[k])
		if err != nil {
			return nil, err
		}
		lower[k], upper[k] = int(lo), int(hi)
	}
	body := func(op ast.Expr) matrix.BodyFunc {
		return func(idx []int) (any, error) {
			if err := c.i.CheckCancel(op); err != nil {
				return nil, err
			}
			f := newFrame(c.frame)
			for k, id := range w.Ids {
				f.vars[id] = &binding{v: int64(idx[k]), ty: types.IntT}
			}
			cc := c.child(f, nil)
			v, err := cc.evalExpr(op)
			if err != nil {
				cc.releasePending(0)
				return nil, err
			}
			cc.releasePending(0)
			return v, nil
		}
	}
	switch op := w.Op.(type) {
	case *ast.GenArrayOp:
		shape := make([]int, len(op.Shape))
		for k, se := range op.Shape {
			n, err := c.evalInt(se)
			if err != nil {
				return nil, err
			}
			shape[k] = int(n)
		}
		elem, err := matrixElemOf(w, c.i.info.TypeOf(w))
		if err != nil {
			return nil, err
		}
		out, err := matrix.GenArrayExec(elem, lower, upper, shape, body(op.Body), c.exec())
		return out, WrapError(w, err)
	case *ast.FoldOp:
		init, err := c.evalExpr(op.Init)
		if err != nil {
			return nil, err
		}
		kind, _ := FoldKindOf(op.Kind)
		// The fold runs in its static type: an int base is promoted up
		// front when that is float, and an int body value as it combines.
		var base matrix.FoldValue
		switch x := init.(type) {
		case int64:
			base = matrix.FoldValue{I: x, F: float64(x), Float: c.i.info.TypeOf(w).Kind == types.Float}
		case float64:
			base = matrix.FoldValue{F: x, Float: true}
		default:
			return nil, Errorf(op.Init, "fold base value must be numeric, got %T", init)
		}
		out, err := matrix.FoldExec(kind, base, lower, upper, body(op.Body), c.exec())
		if err != nil {
			return nil, WrapError(w, err)
		}
		return out.Any(), nil
	}
	return nil, Errorf(w, "unknown with-loop operation %T", w.Op)
}

// evalMatrixMap executes matrixMap(f, m, dims) (§III-A.5) in parallel
// over the unmapped dimensions.
func (c *ctx) evalMatrixMap(e *ast.MatrixMap) (any, error) {
	argV, err := c.evalExpr(e.Arg)
	if err != nil {
		return nil, err
	}
	m, ok := argV.(*matrix.Matrix)
	if !ok || m == nil {
		return nil, Errorf(e, "matrixMap requires a matrix argument")
	}
	dims := make([]int, len(e.Dims))
	for k, d := range e.Dims {
		lit, ok := d.(*ast.IntLit)
		if !ok {
			return nil, Errorf(d, "matrixMap dimensions must be integer literals")
		}
		dims[k] = int(lit.Value)
	}
	sig, ok := c.i.info.Funcs[e.Fun]
	if !ok {
		return nil, Errorf(e, "undeclared function %q", e.Fun)
	}
	outElem, err := matrixElemOf(e, c.i.info.TypeOf(e))
	if err != nil {
		return nil, err
	}
	mapF := func(sub *matrix.Matrix, store func(*matrix.Matrix) error) error {
		cc := c.child(c.frame, nil)
		v, err := cc.callFunction(sig.Decl, []any{sub}, e)
		if err == nil {
			// The result is stored into the output before its escape
			// reference is dropped: the release below may recycle it.
			if res, ok := v.(*matrix.Matrix); ok && res != nil {
				err = store(res)
			} else {
				err = Errorf(e, "matrixMap function %q returned %T, want a matrix", e.Fun, v)
			}
		}
		cc.releasePending(0)
		return err
	}
	out, err := matrix.MatrixMapExec(m, dims, outElem, e.General, mapF, c.exec())
	return out, WrapError(e, err)
}

// matrixElemOf maps a static matrix type to the runtime element kind.
func matrixElemOf(n ast.Node, ty *types.Type) (matrix.Elem, error) {
	if ty == nil || ty.Kind != types.Matrix {
		return 0, Errorf(n, "internal error: expected a matrix type, have %s", ty)
	}
	switch ty.Elem.Kind {
	case types.Float:
		return matrix.Float, nil
	case types.Int:
		return matrix.Int, nil
	case types.Bool:
		return matrix.Bool, nil
	}
	return 0, Errorf(n, "internal error: bad matrix element type %s", ty.Elem)
}

// evalCall dispatches builtin and user function calls.
func (c *ctx) evalCall(e *ast.CallExpr) (any, error) {
	args := make([]any, len(e.Args))
	for k, a := range e.Args {
		v, err := c.evalExpr(a)
		if err != nil {
			return nil, err
		}
		args[k] = v
	}
	if sig, ok := c.i.info.Funcs[e.Fun]; ok {
		return c.callFunction(sig.Decl, args, e)
	}
	return c.evalBuiltin(e, args)
}
