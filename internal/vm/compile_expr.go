// Expression lowering. Every case mirrors the tree walker's evalExpr:
// same evaluation order, same error texts, same error nodes. Scalar
// int/float/bool expressions compile to typed-register opcodes; matrix
// and dynamically typed expressions compile to boxed operations that
// delegate to interp's exported evaluators.
package vm

import (
	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/types"
	"repro/internal/vet"
)

func (f *fnc) compileExpr(e ast.Expr) (int32, class) { return f.compileExprTo(e, noDest) }

// compileExprTo is compileExpr for a consumer that names a destination:
// the instruction that produces e's value writes d when it is the last
// one of e's evaluation and its class is d's (see dest). The caller
// checks the returned register and moves when it is another.
func (f *fnc) compileExprTo(e ast.Expr, d dest) (int32, class) {
	switch e := e.(type) {
	case *ast.IntLit:
		r := f.out(d, clI)
		if k, ok := smallIntLit(e); ok {
			f.emit(instr{op: opConstI, a: r, b: k})
		} else {
			f.emit(instr{op: opLoadK, a: r, b: f.c.constInt(e.Value)})
		}
		return r, clI

	case *ast.FloatLit:
		r := f.out(d, clF)
		f.emit(instr{op: opLoadK, a: r, b: f.c.constFloat(e.Value)})
		return r, clF

	case *ast.BoolLit:
		r := f.out(d, clB)
		b := int32(0)
		if e.Value {
			b = 1
		}
		f.emit(instr{op: opConstI, a: r, b: b})
		return r, clB

	case *ast.StrLit:
		r := f.reg()
		f.emit(instr{op: opLoadK, a: r, b: f.c.constBoxed(e.Value)})
		return r, clR

	case *ast.Ident:
		if slot, ok := f.resolve(e.Name); ok {
			// Locals are stable for the duration of an expression (only
			// statements assign), so the variable register is read
			// directly.
			return slot.reg, slot.cl
		}
		if gi, def, ok := f.resolveGlobal(e.Name); ok {
			// Globals can change mid-expression (a call may assign one),
			// so they are loaded into a temporary at this exact point in
			// the evaluation order.
			r := f.out(d, def.cl)
			f.emit(instr{op: opGLoad, a: r, b: int32(gi), nd: e})
			return r, def.cl
		}
		f.emit(instr{op: opFail, nd: e, aux: interp.Errorf(e, "undeclared variable %q", e.Name)})
		return f.reg(), classOf(f.c.info.TypeOf(e))

	case *ast.BinaryExpr:
		if e.Op == ast.OpAnd || e.Op == ast.OpOr {
			return f.compileLogical(e)
		}
		return f.compileBinary(e, d)

	case *ast.UnaryExpr:
		return f.compileUnary(e, d)

	case *ast.CastExpr:
		return f.compileCast(e, d)

	case *ast.CallExpr:
		return f.compileCall(e, d)

	case *ast.IndexExpr:
		return f.compileIndexR(e, d)

	case *ast.EndExpr:
		if len(f.endStack) == 0 {
			f.emit(instr{op: opFail, nd: e,
				aux: interp.Errorf(e, "'end' used outside an index expression")})
			return f.reg(), clI
		}
		// The dimension's opIdxCheck has proven the base a matrix of this
		// rank, so the DimSize cannot fail.
		en := f.endStack[len(f.endStack)-1]
		r := f.reg()
		f.emit(instr{op: opDimEnd, a: r, b: en.base, c: en.dim, nd: en.node})
		return r, clI

	case *ast.RangeExpr:
		lo := f.compileInt(e.Lo)
		hi := f.compileInt(e.Hi)
		r := f.reg()
		f.emit(instr{op: opRange, a: r, b: lo, c: hi, nd: e})
		return r, clR

	case *ast.TupleExpr:
		r := f.reg()
		f.emit(instr{op: opTuple, a: r, aux: f.compileArgs(e.Elems)})
		return r, clR

	case *ast.WithLoop:
		return f.compileWith(e)

	case *ast.MatrixMap:
		return f.compileMatMap(e)

	case *ast.InitExpr:
		dims := make([]int32, len(e.Dims))
		for k, d := range e.Dims {
			dims[k] = f.compileInt(d)
			f.emit(instr{op: opCheckDim, a: dims[k], b: int32(k), nd: e})
		}
		ty, terr := types.FromAST(e.Type)
		if terr != nil {
			bail("init type: %v", terr)
		}
		elem, eerr := vmElemOf(e, ty)
		if eerr != nil {
			f.emit(instr{op: opFail, nd: e, aux: eerr})
			return f.reg(), clR
		}
		r := f.reg()
		f.emit(instr{op: opInit, a: r, nd: e, aux: &initDesc{elem: elem, dims: dims}})
		return r, clR
	}
	f.emit(instr{op: opFail, nd: e, aux: interp.Errorf(e, "unknown expression %T", e)})
	return f.reg(), classOf(f.c.info.TypeOf(e))
}

// compileLogical lowers && / || with the tree walker's short-circuit
// rule: a bool left operand short-circuits; any other left operand
// evaluates both sides into the dynamic binary evaluator.
func (f *fnc) compileLogical(e *ast.BinaryExpr) (int32, class) {
	lk := f.c.info.TypeOf(e.L).Kind
	rk := f.c.info.TypeOf(e.R).Kind
	switch lk {
	case types.Bool:
		if rk == types.Bool {
			// The result is a temporary of this expression's own, written
			// twice: never a consumer's destination, which the right
			// operand may still read.
			dst := dest{reg: f.reg(), cl: clB}
			f.moveTo(dst, e.L)
			br := opBrFalse // && with a false left yields the left value
			if e.Op == ast.OpOr {
				br = opBrTrue
			}
			site := f.emit(instr{op: br, a: dst.reg})
			f.moveTo(dst, e.R)
			f.patch([]int{site})
			return dst.reg, clB
		}
		// Bool left, non-bool right: a short-circuit yields the boxed
		// bool constant; otherwise the right side must be bool at run
		// time (the tree walker's "requires bool operands" error).
		l := f.operand(e.L, clB)
		dst := f.reg()
		br, shortVal := opBrTrue, any(false) // && short-circuits on false
		if e.Op == ast.OpOr {
			br, shortVal = opBrFalse, any(true)
		}
		toEval := f.emit(instr{op: br, a: l})
		f.emit(instr{op: opLoadK, a: dst, b: f.c.constBoxed(shortVal)})
		out := f.emit(instr{op: opJmp})
		f.patch([]int{toEval})
		r, cl := f.compileExpr(e.R)
		f.emit(instr{op: opSCBool, a: dst, nd: e,
			aux: &typeAux{src: argDesc{reg: r, cl: cl}, op: e.Op}})
		f.patch([]int{out})
		return dst, clR
	case types.Invalid:
		bail("logical operand with unrecorded type at %s", e.Span())
	}
	// Statically non-bool left: both sides evaluate, then the dynamic
	// operator (which also produces the elementwise matrix forms).
	l, lcl := f.compileExpr(e.L)
	r, rcl := f.compileExpr(e.R)
	dst := f.reg()
	cl := classOf(f.c.info.TypeOf(e))
	f.emit(instr{op: opBinM, a: dst, b: int32(cl), nd: e,
		aux: &binDesc{e: e, l: argDesc{reg: l, cl: lcl}, r: argDesc{reg: r, cl: rcl}}})
	return dst, cl
}

// moveTo evaluates e, of d's class, into d.
func (f *fnc) moveTo(d dest, e ast.Expr) {
	r, cl := f.compileExprTo(e, d)
	if cl != d.cl {
		bail("operand %s has class %d, want %d", ast.ExprString(e), cl, d.cl)
	}
	if r != d.reg {
		f.emit(instr{op: opMove, a: d.reg, b: r})
	}
}

var intArith = map[ast.BinOp]opcode{
	ast.OpAdd: opAddI, ast.OpSub: opSubI, ast.OpMul: opMulI,
	ast.OpDiv: opDivI, ast.OpMod: opModI,
}

var intCmp = map[ast.BinOp]opcode{
	ast.OpLt: opLtI, ast.OpLe: opLeI, ast.OpGt: opGtI,
	ast.OpGe: opGeI, ast.OpEq: opEqI, ast.OpNe: opNeI,
}

var floatArith = map[ast.BinOp]opcode{
	ast.OpAdd: opAddF, ast.OpSub: opSubF, ast.OpMul: opMulF, ast.OpDiv: opDivF,
}

var floatCmp = map[ast.BinOp]opcode{
	ast.OpLt: opLtF, ast.OpLe: opLeF, ast.OpGt: opGtF,
	ast.OpGe: opGeF, ast.OpEq: opEqF, ast.OpNe: opNeF,
}

// intImmediate reports e, an int operator with a small literal operand,
// as its immediate form: opcode, the register operand's expression and
// the immediate. - is + of the negated literal, + and * take the literal
// on either side, / and % a non-zero literal on the right (so the form
// has no zero test; a literal zero keeps the register form and its trap).
func intImmediate(e *ast.BinaryExpr) (opcode, ast.Expr, int32, bool) {
	if k, ok := smallIntLit(e.R); ok {
		switch {
		case e.Op == ast.OpAdd:
			return opAddIK, e.L, k, true
		case e.Op == ast.OpSub && k != -1<<31:
			return opAddIK, e.L, -k, true
		case e.Op == ast.OpMul:
			return opMulIK, e.L, k, true
		case e.Op == ast.OpDiv && k != 0:
			return opDivIK, e.L, k, true
		case e.Op == ast.OpMod && k != 0:
			return opModIK, e.L, k, true
		}
	}
	if k, ok := smallIntLit(e.L); ok {
		switch e.Op {
		case ast.OpAdd:
			return opAddIK, e.R, k, true
		case ast.OpMul:
			return opMulIK, e.R, k, true
		}
	}
	return opNop, nil, 0, false
}

func (f *fnc) compileBinary(e *ast.BinaryExpr, d dest) (int32, class) {
	// A vet.Facts-proven fusable chain compiles to one opFused loop
	// instead of a kernel pass per stage. Chains are matrix-typed, so
	// the scalar fast paths below never compete with this.
	if p := f.c.facts.PlanAt(e); p != nil {
		dst := f.reg()
		f.emit(instr{op: opFused, a: dst, nd: e, aux: f.flatPlan(e, p)})
		f.c.fusedSites++
		return dst, clR
	}

	lk := f.c.info.TypeOf(e.L).Kind
	rk := f.c.info.TypeOf(e.R).Kind

	// binary emits op over two evaluated operands into d or a temporary.
	binary := func(op opcode, l, r int32, cl class) (int32, class) {
		dst := f.out(d, cl)
		f.emit(instr{op: op, a: dst, b: l, c: r, nd: e})
		return dst, cl
	}

	if lk == types.Int && rk == types.Int {
		if op, ok := intArith[e.Op]; ok {
			if kop, x, k, ok := intImmediate(e); ok {
				return binary(kop, f.operand(x, clI), k, clI)
			}
			l := f.operand(e.L, clI)
			return binary(op, l, f.operand(e.R, clI), clI)
		}
		if op, ok := intCmp[e.Op]; ok {
			l := f.operand(e.L, clI)
			return binary(op, l, f.operand(e.R, clI), clB)
		}
	}

	numeric := func(k types.Kind) bool { return k == types.Int || k == types.Float }
	if numeric(lk) && numeric(rk) && (lk == types.Float || rk == types.Float) {
		// Mixed / float scalars promote to float (scalarOp); % has no
		// float form and falls through to the dynamic evaluator for its
		// exact error.
		if op, ok := floatArith[e.Op]; ok {
			l := f.floatOperand(e.L, lk)
			return binary(op, l, f.floatOperand(e.R, rk), clF)
		}
		if op, ok := floatCmp[e.Op]; ok {
			l := f.floatOperand(e.L, lk)
			return binary(op, l, f.floatOperand(e.R, rk), clB)
		}
	}

	if lk == types.Bool && rk == types.Bool && (e.Op == ast.OpEq || e.Op == ast.OpNe) {
		op := opEqB
		if e.Op == ast.OpNe {
			op = opNeB
		}
		l := f.operand(e.L, clB)
		return binary(op, l, f.operand(e.R, clB), clB)
	}

	// Matrix operands, broadcasts, and every remaining combination go
	// through the shared dynamic evaluator (kernel selection, temp
	// recycling, exact scalarOp error texts).
	l, lcl := f.compileExpr(e.L)
	r, rcl := f.compileExpr(e.R)
	cl := classOf(f.c.info.TypeOf(e))
	dst := f.out(d, cl)
	f.emit(instr{op: opBinM, a: dst, b: int32(cl), nd: e,
		aux: &binDesc{e: e, l: argDesc{reg: l, cl: lcl}, r: argDesc{reg: r, cl: rcl}}})
	return dst, cl
}

// floatOperand evaluates a statically numeric operand into a float
// register (ints promoted, like scalarOp's toFloat).
func (f *fnc) floatOperand(e ast.Expr, k types.Kind) int32 {
	if k == types.Int {
		r := f.operand(e, clI)
		out := f.reg()
		f.emit(instr{op: opI2F, a: out, b: r})
		return out
	}
	return f.operand(e, clF)
}

func (f *fnc) compileUnary(e *ast.UnaryExpr, d dest) (int32, class) {
	x, cl := f.compileExpr(e.X)
	op := opNop
	switch {
	case cl == clI && e.Op == ast.OpNeg:
		op = opNegI
	case cl == clF && e.Op == ast.OpNeg:
		op = opNegF
	case cl == clB && e.Op == ast.OpNot:
		op = opNotB
	}
	if op != opNop {
		dst := f.out(d, cl)
		f.emit(instr{op: op, a: dst, b: x})
		return dst, cl
	}
	rcl := classOf(f.c.info.TypeOf(e))
	dst := f.out(d, rcl)
	f.emit(instr{op: opUnM, a: dst, b: int32(rcl), nd: e,
		aux: &unDesc{e: e, x: argDesc{reg: x, cl: cl}}})
	return dst, rcl
}

// scalar cast conversions: [from class][to PrimKind] -> opcode
// (opNop marks identity).
var castOps = map[class]map[ast.PrimKind]opcode{
	clI: {ast.PrimInt: opNop, ast.PrimFloat: opI2F, ast.PrimBool: opI2B},
	clF: {ast.PrimInt: opF2I, ast.PrimFloat: opNop, ast.PrimBool: opF2B},
	clB: {ast.PrimInt: opB2I, ast.PrimFloat: opB2F, ast.PrimBool: opNop},
}

var castClass = map[ast.PrimKind]class{ast.PrimInt: clI, ast.PrimFloat: clF, ast.PrimBool: clB}

func (f *fnc) compileCast(e *ast.CastExpr, d dest) (int32, class) {
	x, cl := f.compileExpr(e.X)
	if forms, ok := castOps[cl]; ok {
		if op, ok := forms[e.To]; ok {
			if op == opNop {
				return x, cl
			}
			to := castClass[e.To]
			dst := f.out(d, to)
			f.emit(instr{op: op, a: dst, b: x})
			return dst, to
		}
	}
	// Boxed operand or non-scalar target: the dynamic CastScalar path
	// carries the tree walker's "cannot cast %T to %s" error.
	rcl := classOf(f.c.info.TypeOf(e))
	dst := f.out(d, rcl)
	f.emit(instr{op: opCastD, a: dst, b: int32(rcl), nd: e,
		aux: &castAux{to: e.To, x: argDesc{reg: x, cl: cl}}})
	return dst, rcl
}

// compileArgs evaluates a list of operands (a call's arguments, a tuple
// literal's elements), left to right.
func (f *fnc) compileArgs(es []ast.Expr) []argDesc {
	ds := make([]argDesc, len(es))
	for k, e := range es {
		r, cl := f.compileExpr(e)
		ds[k] = argDesc{reg: r, cl: cl}
	}
	return ds
}

// protoOf is the proto a call, spawn or matrixMap of the user function
// fd runs.
func (f *fnc) protoOf(fd *ast.FuncDecl) int {
	pi, ok := f.c.protoIdx[fd.Name]
	if !ok {
		bail("function %q has no proto", fd.Name)
	}
	return pi
}

// compileTupleCall lowers the right side of the destructuring assignment
// s when it is, syntactically, a call of a function declared to return a
// tuple of s's arity: the call delivers the elements in one register
// each, of the declared element's class, with no []any in between (nil:
// s is not that, and its right side is an ordinary tuple value).
func (f *fnc) compileTupleCall(s *ast.AssignStmt) []argDesc {
	e, ok := s.RHS.(*ast.CallExpr)
	if !ok || len(s.LHS) < 2 {
		return nil
	}
	sig, ok := f.c.info.Funcs[e.Fun]
	if !ok || sig.Type.Ret == nil || sig.Type.Ret.Kind != types.Tuple || len(sig.Type.Ret.Elems) != len(s.LHS) {
		return nil
	}
	args := f.compileArgs(e.Args)
	rets := make([]argDesc, len(s.LHS))
	for k, ty := range sig.Type.Ret.Elems {
		rets[k] = argDesc{reg: f.reg(), cl: classOf(ty)}
	}
	f.emit(instr{op: opCall, a: -1, nd: e,
		aux: &callDesc{proto: f.protoOf(sig.Decl), args: args, retCl: clR, rets: rets, stmt: s}})
	return rets
}

func (f *fnc) compileCall(e *ast.CallExpr, d dest) (int32, class) {
	args := f.compileArgs(e.Args)
	if sig, ok := f.c.info.Funcs[e.Fun]; ok {
		pi := f.protoOf(sig.Decl)
		ret := sig.Type.Ret
		if ret == nil || ret.Kind == types.Void || ret.Kind == types.Invalid {
			f.emit(instr{op: opCall, a: -1, nd: e,
				aux: &callDesc{proto: pi, args: args, retCl: clR}})
			// The tree walker's void-call value is nil; a never-written
			// boxed register reads as exactly that.
			return f.reg(), clR
		}
		retCl := classOf(ret)
		dst := f.out(d, retCl)
		f.emit(instr{op: opCall, a: dst, nd: e,
			aux: &callDesc{proto: pi, args: args, retCl: retCl}})
		return dst, retCl
	}
	need := func(n int) {
		if len(args) != n {
			// The tree walker would fault on args[k]; no exact bytecode
			// analogue, so hand such (checker-rejected) programs back.
			bail("builtin %q called with %d args, want %d", e.Fun, len(args), n)
		}
	}
	switch e.Fun {
	case "print":
		need(1)
		f.emit(instr{op: opPrint, nd: e, aux: args[0]})
		return f.reg(), clR
	case "dimSize":
		need(2)
		dst := f.out(d, clI)
		f.emit(instr{op: opDimSize, a: dst, nd: e, aux: args})
		return dst, clI
	case "readMatrix":
		need(1)
		dst := f.reg()
		f.emit(instr{op: opReadM, a: dst, nd: e, aux: args[0]})
		return dst, clR
	case "writeMatrix":
		need(2)
		f.emit(instr{op: opWriteM, nd: e, aux: args})
		return f.reg(), clR
	case "rcnew":
		need(1)
		dst := f.reg()
		f.emit(instr{op: opRcNew, a: dst, nd: e, aux: args[0]})
		return dst, clR
	case "rcget":
		need(1)
		retCl := classOf(f.c.info.TypeOf(e))
		dst := f.out(d, retCl)
		f.emit(instr{op: opRcGet, a: dst, c: int32(retCl), nd: e, aux: args[0]})
		return dst, retCl
	case "rcset":
		need(2)
		var elem *types.Type
		if ty := f.c.info.TypeOf(e.Args[0]); ty.Kind == types.RcPtr {
			elem = ty.Elem
		}
		f.emit(instr{op: opRcSet, nd: e, aux: &rcSetDesc{cell: args[0], val: args[1], elem: elem}})
		return f.reg(), clR
	case "rcrelease":
		need(1)
		f.emit(instr{op: opRcRel, nd: e, aux: args[0]})
		return f.reg(), clR
	}
	f.emit(instr{op: opFail, nd: e, aux: interp.Errorf(e, "undeclared function %q", e.Fun)})
	return f.reg(), classOf(f.c.info.TypeOf(e))
}

// trustedMatrixBase reports the element class of a rank-1 matrix base
// whose runtime representation is pinned by binding coercion: only
// identifier bases qualify (locals, params and globals are coerced on
// every bind, so their element kind and rank match the static type).
func (f *fnc) trustedMatrixBase(base ast.Expr) (class, bool) {
	id, ok := base.(*ast.Ident)
	if !ok {
		return 0, false
	}
	var ty *types.Type
	if slot, ok := f.resolve(id.Name); ok {
		ty = slot.ty
	} else if _, def, ok := f.resolveGlobal(id.Name); ok {
		ty = def.ty
	} else {
		return 0, false
	}
	if ty == nil || ty.Kind != types.Matrix || ty.Rank != 1 {
		return 0, false
	}
	return classOf(ty.Elem), true
}

// pushDim opens index dimension d of base for the 'end's read inside
// it; nothing is emitted until one is (compileExpr's EndExpr case).
func (f *fnc) pushDim(base int32, d int, nd ast.Node) {
	f.endStack = append(f.endStack, endEntry{base: base, dim: int32(d), node: nd})
}

func (f *fnc) popDim() {
	f.endStack = f.endStack[:len(f.endStack)-1]
}

// compilePlans lowers the index arguments of e (rank already checked).
func (f *fnc) compilePlans(e *ast.IndexExpr, base int32) []specPlan {
	plans := make([]specPlan, len(e.Args))
	for d, arg := range e.Args {
		f.pushDim(base, d, e)
		switch a := arg.(type) {
		case *ast.IdxScalar:
			k := f.c.info.TypeOf(a.X).Kind
			switch {
			case k == types.Int:
				plans[d] = specPlan{kind: spScalar, r1: f.operand(a.X, clI)}
			case k == types.Matrix || k == types.AnyMatrix:
				plans[d] = specPlan{kind: spMask, r1: f.operand(a.X, clR)}
			case k == types.Invalid:
				r, cl := f.compileExpr(a.X)
				if cl != clR {
					bail("invalid-typed index with scalar class at %s", a.Span())
				}
				plans[d] = specPlan{kind: spDyn, r1: r, nd: a}
			default:
				// Statically never an index: evaluate for effect, then
				// fail with the runtime type the static type dictates.
				f.compileExpr(a.X)
				var sample any
				switch k {
				case types.Float:
					sample = float64(0)
				case types.Bool:
					sample = false
				case types.String:
					sample = ""
				case types.Tuple:
					sample = []any{}
				default:
					bail("unindexable static type kind %d at %s", k, a.Span())
				}
				f.emit(instr{op: opFail, nd: a,
					aux: interp.Errorf(a, "index must be an int or a bool matrix, got %T", sample)})
				plans[d] = specPlan{kind: spAll}
			}
		case *ast.IdxRange:
			lo := f.compileInt(a.Lo)
			hi := f.compileInt(a.Hi)
			plans[d] = specPlan{kind: spRange, r1: lo, r2: hi}
		case *ast.IdxAll:
			plans[d] = specPlan{kind: spAll}
		default:
			f.emit(instr{op: opFail, nd: arg,
				aux: interp.Errorf(arg, "unknown index argument %T", arg)})
			plans[d] = specPlan{kind: spAll}
		}
		f.popDim()
	}
	return plans
}

// fusedScalarArg reports a single static-int scalar index argument.
func fusedScalarArg(e *ast.IndexExpr, info interface {
	TypeOf(ast.Expr) *types.Type
}) (ast.Expr, bool) {
	if len(e.Args) != 1 {
		return nil, false
	}
	sc, ok := e.Args[0].(*ast.IdxScalar)
	if !ok || info.TypeOf(sc.X).Kind != types.Int {
		return nil, false
	}
	return sc.X, true
}

// cannotFail reports an int index expression whose evaluation neither
// fails nor does anything: variables in scope, literals, + - * and unary
// minus of them. The rank-1 opcodes do their own unassigned-base check,
// so before such an index the separate opIdxCheck (which the tree walker
// runs before evaluating the index) is not observable and is left out.
// An 'end' is not such an expression: its opDimEnd needs a proven base.
func (f *fnc) cannotFail(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.IntLit:
		return true
	case *ast.Ident:
		// A global's read fails while it is not bound yet.
		_, ok := f.resolve(e.Name)
		return ok
	case *ast.UnaryExpr:
		return e.Op == ast.OpNeg && f.cannotFail(e.X)
	case *ast.BinaryExpr:
		return (e.Op == ast.OpAdd || e.Op == ast.OpSub || e.Op == ast.OpMul) && f.cannotFail(e.L) && f.cannotFail(e.R)
	}
	return false
}

// The rank-1 load and store opcodes by element class (rank1Class is the
// way back).
var (
	idx1Op    = map[class]opcode{clF: opIdx1F, clI: opIdx1I, clB: opIdx1B}
	setIdx1Op = map[class]opcode{clF: opSetIdx1F, clI: opSetIdx1I, clB: opSetIdx1B}
)

// rank1Index compiles the one index of a fused rank-1 access on base:
// the rank check first unless the index cannotFail, then the index with
// its dimension open for 'end'.
func (f *fnc) rank1Index(e *ast.IndexExpr, base int32, ix ast.Expr, lvalue int32) int32 {
	if !f.cannotFail(ix) {
		f.emit(instr{op: opIdxCheck, a: base, b: 1, c: lvalue, nd: e})
	}
	f.pushDim(base, 0, e)
	idx := f.operand(ix, clI)
	f.popDim()
	return idx
}

func (f *fnc) compileIndexR(e *ast.IndexExpr, d dest) (int32, class) {
	base, bcl := f.compileExpr(e.X)
	retCl := classOf(f.c.info.TypeOf(e))
	if bcl != clR {
		f.emit(instr{op: opFail, nd: e, aux: unassignedBase(e, false)})
		return f.reg(), retCl
	}
	if elemCl, ok := f.trustedMatrixBase(e.X); ok && elemCl == retCl {
		if ix, ok := fusedScalarArg(e, f.c.info); ok {
			idx := f.rank1Index(e, base, ix, 0)
			dst := f.out(d, retCl)
			f.emit(instr{op: idx1Op[elemCl], a: dst, b: base, c: idx, nd: e})
			return dst, retCl
		}
	}
	f.emit(instr{op: opIdxCheck, a: base, b: int32(len(e.Args)), nd: e})
	plans := f.compilePlans(e, base)
	dst := f.out(d, retCl)
	f.emit(instr{op: opIndex, a: dst, b: base, c: int32(retCl), nd: e,
		aux: &indexDesc{e: e, plans: plans}})
	return dst, retCl
}

// fusedSet lowers m[i] = v for trusted rank-1 bases with a static-int
// index and a value of (or promotable to) the element class.
func (f *fnc) fusedSet(l *ast.IndexExpr, base, vreg int32, vcl class) bool {
	elemCl, ok := f.trustedMatrixBase(l.X)
	if !ok {
		return false
	}
	ix, ok := fusedScalarArg(l, f.c.info)
	if !ok || (vcl != elemCl && !(elemCl == clF && vcl == clI)) {
		return false
	}
	// The unassigned-base check comes before the value's promotion and
	// the index, as in the general lowering.
	idx := f.rank1Index(l, base, ix, 1)
	if elemCl == clF && vcl == clI {
		p := f.reg()
		f.emit(instr{op: opI2F, a: p, b: vreg})
		vreg = p
	}
	f.emit(instr{op: setIdx1Op[elemCl], a: base, b: idx, c: vreg, nd: l})
	return true
}

func (f *fnc) compileWith(w *ast.WithLoop) (int32, class) {
	if len(w.Ids) != len(w.Lower) || len(w.Lower) != len(w.Upper) {
		bail("with-loop bound/id arity mismatch at %s", w.Span())
	}
	lower := make([]int32, len(w.Lower))
	upper := make([]int32, len(w.Upper))
	for k := range w.Lower {
		lower[k] = f.compileInt(w.Lower[k])
		upper[k] = f.compileInt(w.Upper[k])
	}
	d := &withDesc{w: w, lower: lower, upper: upper, ids: len(w.Ids)}
	var bodyExpr ast.Expr
	switch op := w.Op.(type) {
	case *ast.GenArrayOp:
		shape := make([]int32, len(op.Shape))
		for k, se := range op.Shape {
			shape[k] = f.compileInt(se)
		}
		d.shape = shape
		d.elem = elemOf(w, f.c.info.TypeOf(w))
		d.resCl = clR
		bodyExpr = op.Body
	case *ast.FoldOp:
		d.fold = true
		d.foldKind, _ = interp.FoldKindOf(op.Kind)
		ir, ic := f.compileExpr(op.Init)
		d.foldInit = argDesc{reg: ir, cl: ic}
		d.resCl = classOf(f.c.info.TypeOf(w))
		bodyExpr = op.Body
	default:
		f.emit(instr{op: opFail, nd: w,
			aux: interp.Errorf(w, "unknown with-loop operation %T", w.Op)})
		return f.reg(), classOf(f.c.info.TypeOf(w))
	}
	d.body, d.captures = f.compileWithBody(w, bodyExpr)
	op := opWith
	if p := f.c.facts.PlanAt(w); p != nil {
		d.flat = f.flatPlan(w, p)
		f.c.withSites++
		op = opWithGen
		if d.fold {
			op = opWithFold
		}
	}
	dst := f.reg()
	f.emit(instr{op: op, a: dst, nd: w, aux: d})
	return dst, d.resCl
}

// flatPlan binds a proven plan's leaves in slot order — a local's
// register, a global loaded here (at a with-loop's entry, after the
// bounds, the shape and the base), an int literal, or an int scalar
// promoted into a float slot — and compiles the plan to its strip
// program. vet proved every leaf bound where the plan runs.
func (f *fnc) flatPlan(site ast.Expr, p *vet.WithPlan) *flatPlan {
	bind := func(leaves []ast.Expr, float bool) []int32 {
		regs := make([]int32, len(leaves))
		for k, x := range leaves {
			r, cl := f.compileExpr(x)
			if float && cl == clI {
				regs[k] = f.reg()
				f.emit(instr{op: opI2F, a: regs[k], b: r})
				continue
			}
			regs[k] = r
		}
		return regs
	}
	fp := &flatPlan{mats: bind(p.Mats, false), sI: bind(p.ScalarI, false), sF: bind(p.ScalarF, true),
		inline: p.Inline, nodes: p.Nodes}
	var ok bool
	if fp.prog, ok = matrix.CompileWith(p.Spec()); !ok {
		bail("the strip compiler refused the proven plan at %s", site.Span())
	}
	return fp
}

// compileWithBody lowers the with-loop body expression as a proto of
// its own: registers [0,len(ids)) hold the index variables, enclosing
// locals are copied in via the capture list (with-loop bodies are
// expressions — they read but never assign enclosing locals), and
// globals resolve through the shared global slots.
func (f *fnc) compileWithBody(w *ast.WithLoop, body ast.Expr) (int, []capture) {
	bf := &fnc{c: f.c}
	idRegs := make([]int32, len(w.Ids))
	for k := range w.Ids {
		idRegs[k] = bf.reg()
	}
	// Outer scope: captured enclosing locals, in deterministic
	// declaration order, innermost shadowing outermost.
	bf.pushScope()
	var captures []capture
	seen := map[string]bool{}
	for _, id := range w.Ids {
		seen[id] = true // ids shadow enclosing locals of the same name
	}
	for s := f.scope; s != nil; s = s.parent {
		for _, name := range s.names {
			if seen[name] {
				continue
			}
			seen[name] = true
			outer := s.vars[name]
			creg := bf.reg()
			bf.scope.bind(name, varSlot{reg: creg, ty: outer.ty, cl: outer.cl})
			captures = append(captures, capture{from: outer.reg, to: creg})
		}
	}
	// Inner scope: the index identifiers.
	bf.pushScope()
	for k, id := range w.Ids {
		bf.scope.bind(id, varSlot{reg: idRegs[k], ty: types.IntT, cl: clI})
	}
	r, cl := bf.compileExpr(body)
	bf.emit(instr{op: opRet, a: r, b: int32(cl), nd: body})
	pi := len(f.c.protos)
	f.c.protos = append(f.c.protos, &proto{
		name:  "<with-body>",
		code:  bf.code,
		nregs: bf.nreg,
	})
	return pi, captures
}

func (f *fnc) compileMatMap(e *ast.MatrixMap) (int32, class) {
	ar, ac := f.compileExpr(e.Arg)
	d := &mapDesc{e: e, arg: argDesc{reg: ar, cl: ac}, general: e.General, elem: elemOf(e, f.c.info.TypeOf(e))}
	for _, de := range e.Dims {
		lit, ok := de.(*ast.IntLit)
		if !ok {
			bail("matrixMap dimension at %s is no integer literal", de.Span())
		}
		d.dims = append(d.dims, int(lit.Value))
	}
	sig, ok := f.c.info.Funcs[e.Fun]
	if !ok {
		bail("matrixMap function %q is undeclared", e.Fun)
	}
	d.proto = f.protoOf(sig.Decl)
	if n := len(sig.Decl.Params); n != 1 {
		// The checker admits one matrix parameter only; execMatMap
		// binds exactly that one.
		bail("matrixMap function %q takes %d parameters", e.Fun, n)
	}
	dst := f.reg()
	f.emit(instr{op: opMatMap, a: dst, nd: e, aux: d})
	return dst, clR
}

// vmElemOf mirrors the tree walker's matrixElemOf (same error texts
// and nodes).
func vmElemOf(n ast.Node, ty *types.Type) (matrix.Elem, error) {
	if ty == nil || ty.Kind != types.Matrix {
		return 0, interp.Errorf(n, "internal error: expected a matrix type, have %s", ty)
	}
	switch ty.Elem.Kind {
	case types.Float:
		return matrix.Float, nil
	case types.Int:
		return matrix.Int, nil
	case types.Bool:
		return matrix.Bool, nil
	}
	return 0, interp.Errorf(n, "internal error: bad matrix element type %s", ty.Elem)
}

// elemOf is vmElemOf for a with-loop's or a matrixMap's type, which the
// checker pins: a type it rejects is a bail.
func elemOf(n ast.Node, ty *types.Type) matrix.Elem {
	elem, err := vmElemOf(n, ty)
	if err != nil {
		bail("%v", err)
	}
	return elem
}
