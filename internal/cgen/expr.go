// Expression translation. Scalar expressions become C expressions;
// matrix-valued expressions become owned cm_mat* temporaries produced
// by runtime calls (released at end of statement), except with-loops
// and matrixMap, which lower to explicit loop nests in withloop.go.
// Operands are evaluated left to right, as the VM evaluates them
// (sequence), and int arithmetic wraps through the prelude's cm_i*
// helpers.
package cgen

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/loopir"
	"repro/internal/types"
)

var cOpEnum = map[ast.BinOp]string{
	ast.OpAdd: "CM_ADD", ast.OpSub: "CM_SUB", ast.OpMul: "CM_MUL",
	ast.OpElemMul: "CM_MUL", ast.OpDiv: "CM_DIV", ast.OpMod: "CM_MOD",
	ast.OpEq: "CM_EQ", ast.OpNe: "CM_NE", ast.OpLt: "CM_LT",
	ast.OpLe: "CM_LE", ast.OpGt: "CM_GT", ast.OpGe: "CM_GE",
	ast.OpAnd: "CM_AND", ast.OpOr: "CM_OR",
}

var cOpScalar = map[ast.BinOp]string{
	ast.OpAdd: "+", ast.OpSub: "-", ast.OpMul: "*", ast.OpElemMul: "*",
	ast.OpDiv: "/", ast.OpMod: "%", ast.OpEq: "==", ast.OpNe: "!=",
	ast.OpLt: "<", ast.OpLe: "<=", ast.OpGt: ">", ast.OpGe: ">=",
	ast.OpAnd: "&&", ast.OpOr: "||",
}

// cOpInt names the wrapping helper of an int arithmetic operator.
var cOpInt = map[ast.BinOp]string{
	ast.OpAdd: "cm_iadd", ast.OpSub: "cm_isub", ast.OpMul: "cm_imul",
	ast.OpElemMul: "cm_imul", ast.OpDiv: "cm_idiv", ast.OpMod: "cm_imod",
}

func (f *fnEmitter) expr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.IntLit:
		return fmt.Sprintf("%dL", e.Value)
	case *ast.FloatLit:
		return loopir.FC(e.Value).String()
	case *ast.BoolLit:
		if e.Value {
			return "1"
		}
		return "0"
	case *ast.StrLit:
		return fmt.Sprintf("%q", e.Value)
	case *ast.Ident:
		return f.cvar(e.Name)

	case *ast.BinaryExpr:
		return f.binary(e)

	case *ast.UnaryExpr:
		x := f.expr(e.X)
		ty := f.g.info.TypeOf(e.X)
		switch {
		case ty.IsMatrix():
			neg := "0"
			if e.Op == ast.OpNeg {
				neg = "1"
			}
			return f.owned(f.g.info.TypeOf(e), fmt.Sprintf("cm_unary(%s, %s)", neg, x))
		case e.Op != ast.OpNeg:
			return "(!(" + x + "))"
		case ty.Kind == types.Int:
			return "cm_isub(0L, " + x + ")"
		}
		return "(-(" + x + "))"

	case *ast.CastExpr:
		x := f.expr(e.X)
		switch {
		case e.To == ast.PrimInt && f.g.info.TypeOf(e.X).Kind == types.Float:
			return "cm_ftoi(" + x + ")"
		case e.To == ast.PrimInt:
			return "((long)(" + x + "))"
		case e.To == ast.PrimFloat:
			return "((double)(" + x + "))"
		}
		return "((" + x + ") != 0)"

	case *ast.CallExpr:
		return f.call(e)

	case *ast.IndexExpr:
		return f.indexLoad(e)

	case *ast.EndExpr:
		if len(f.endCtx) == 0 {
			panic(bug("'end' outside index context"))
		}
		return f.endCtx[len(f.endCtx)-1]

	case *ast.RangeExpr:
		v := f.operands(e.Lo, e.Hi)
		return f.owned(f.g.info.TypeOf(e), fmt.Sprintf("cm_rangevec(%s, %s)", v[0], v[1]))

	case *ast.TupleExpr:
		ty := f.g.info.TypeOf(e)
		parts := f.operands(e.Elems...)
		for i, el := range e.Elems {
			parts[i] = f.g.convert(parts[i], f.g.info.TypeOf(el), ty.Elems[i])
		}
		return fmt.Sprintf("(%s){%s}", f.g.tupleType(ty), strings.Join(parts, ", "))

	case *ast.WithLoop:
		return f.emitWithLoop(e)

	case *ast.MatrixMap:
		return f.emitMatrixMap(e)

	case *ast.InitExpr:
		ty := f.g.info.TypeOf(e)
		return f.owned(ty, fmt.Sprintf("cm_alloc(%s, %d, (long[]){%s})",
			elemEnum(ty.Elem), ty.Rank, strings.Join(f.operands(e.Dims...), ", ")))
	}
	panic(bug("unknown expression %T", e))
}

// operands emits es left to right.
func (f *fnEmitter) operands(es ...ast.Expr) []string { return f.sequence(es, nil) }

// sequence emits es left to right, as the VM evaluates them, ends[k]
// (when ends is not nil) binding 'end' in es[k]. C leaves the order of
// operands unspecified, so an operand that a later operand's call could
// change is read into a temporary before that call runs.
func (f *fnEmitter) sequence(es []ast.Expr, ends []string) []string {
	vals := make([]string, len(es))
	for k, e := range es {
		if ends != nil {
			f.endCtx = append(f.endCtx, ends[k])
		}
		vals[k] = f.expr(e)
		if ends != nil {
			f.endCtx = f.endCtx[:len(f.endCtx)-1]
		}
		if f.effects(es[k+1:]...) {
			vals[k] = f.snapshot(vals[k], f.g.info.TypeOf(e))
		}
	}
	return vals
}

// effects reports whether evaluating any of es can change a value an
// operand read before it: whether it calls a user function.
func (f *fnEmitter) effects(es ...ast.Expr) bool {
	found := false
	visit := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			_, user := f.g.info.Funcs[n.Fun]
			found = found || user
		case *ast.MatrixMap:
			found = true
		}
		return !found
	}
	for _, e := range es {
		ast.Inspect(e, visit)
	}
	return found
}

// snapshot reads val into a temporary now, unless it is a constant or
// a generated temporary (which nothing assigns again); a refcounted
// value is retained for the statement.
func (f *fnEmitter) snapshot(val string, ty *types.Type) string {
	if val == "" || val[0] == '_' && isSimpleCName(val) || strings.ContainsRune("0123456789\"", rune(val[0])) {
		return val
	}
	switch ty.Kind {
	case types.Matrix, types.AnyMatrix, types.RcPtr, types.Tuple:
		name := f.owned(ty, val)
		retain(f.b, name, ty)
		return name
	}
	return f.temp(f.g.cType(ty), val)
}

func (f *fnEmitter) binary(e *ast.BinaryExpr) string {
	lt := f.g.info.TypeOf(e.L)
	rt := f.g.info.TypeOf(e.R)
	scalar := !lt.IsMatrix() && !rt.IsMatrix()
	if scalar && (e.Op == ast.OpAnd || e.Op == ast.OpOr) && f.effects(e.R) {
		return f.shortCircuit(e)
	}
	v := f.operands(e.L, e.R)
	l, r := v[0], v[1]
	resTy := f.g.info.TypeOf(e)
	switch {
	case lt.IsMatrix() && rt.IsMatrix():
		if e.Op == ast.OpMul {
			return f.owned(resTy, fmt.Sprintf("cm_matmul(%s, %s)", l, r))
		}
		return f.owned(resTy, fmt.Sprintf("cm_ew(%s, %s, %s)", cOpEnum[e.Op], l, r))
	case lt.IsMatrix():
		return f.owned(resTy, broadcast(e.Op, l, r, rt, 1))
	case rt.IsMatrix():
		return f.owned(resTy, broadcast(e.Op, r, l, lt, 0))
	case resTy.Kind == types.Int && cOpInt[e.Op] != "":
		return fmt.Sprintf("%s(%s, %s)", cOpInt[e.Op], l, r)
	}
	return fmt.Sprintf("(%s %s %s)", l, cOpScalar[e.Op], r)
}

// broadcast is the runtime call applying op between matrix m and the
// scalar s of type st, the matrix on the left when left is 1.
func broadcast(op ast.BinOp, m, s string, st *types.Type, left int) string {
	if st.Kind == types.Float {
		return fmt.Sprintf("cm_bc(%s, %s, CM_FLOAT, 0, %s, %d)", cOpEnum[op], m, s, left)
	}
	return fmt.Sprintf("cm_bc(%s, %s, %s, %s, 0, %d)", cOpEnum[op], m, elemEnum(st), s, left)
}

// shortCircuit emits a scalar && or || whose right operand calls a
// function: the right operand's statements run only when the left one
// does not decide, as in the VM.
func (f *fnEmitter) shortCircuit(e *ast.BinaryExpr) string {
	c := f.temp("int", f.expr(e.L))
	not := ""
	if e.Op == ast.OpOr {
		not = "!"
	}
	f.b.line("if (%s%s) {", not, c)
	f.b.indent++
	mark := len(f.temps)
	f.b.line("%s = %s;", c, f.expr(e.R))
	f.releaseTempsFrom(mark)
	f.b.indent--
	f.b.line("}")
	return c
}

func (f *fnEmitter) call(e *ast.CallExpr) string {
	// Builtins first.
	switch e.Fun {
	case "dimSize":
		v := f.operands(e.Args...)
		return fmt.Sprintf("cm_dim(%s, %s)", v[0], v[1])
	case "readMatrix":
		return f.owned(f.g.info.TypeOf(e), fmt.Sprintf("cm_read(%s)", f.expr(e.Args[0])))
	case "writeMatrix":
		v := f.operands(e.Args...)
		f.b.line("cm_write(%s, %s);", v[0], v[1])
		return ""
	case "print":
		v := f.expr(e.Args[0])
		if ty := f.g.info.TypeOf(e.Args[0]); ty.IsMatrix() {
			f.b.line("cm_printm(%s);", v)
		} else {
			f.b.line("cm_print(%s, &(%s){%s});", elemEnum(ty), cElemType(ty), v)
		}
		return ""
	case "rcnew":
		v := f.expr(e.Args[0])
		ty := f.g.info.TypeOf(e.Args[0])
		cell := f.owned(f.g.info.TypeOf(e), fmt.Sprintf("cm_cell_new(sizeof(%s), %s)",
			strings.TrimSpace(f.g.cType(ty)), f.g.cellDrop(ty)))
		f.b.line("%s = %s;", f.g.cellVal(ty, cell), v)
		retain(f.b, f.g.cellVal(ty, cell), ty) // the cell's own reference
		return cell
	case "rcget":
		return f.g.cellVal(f.g.info.TypeOf(e), f.expr(e.Args[0]))
	case "rcset":
		v := f.operands(e.Args...)
		elem := f.g.info.TypeOf(e.Args[0]).Elem
		f.assignVar(f.g.cellVal(elem, v[0]), elem, v[1], f.g.info.TypeOf(e.Args[1]))
		return ""
	case "rcrelease":
		f.b.line("cm_cell_release(%s);", f.expr(e.Args[0]))
		return ""
	}

	sig, ok := f.g.info.Funcs[e.Fun]
	if !ok {
		panic(bug("unknown function %q", e.Fun))
	}
	args := f.operands(e.Args...)
	for i, a := range e.Args {
		args[i] = f.g.convert(args[i], f.g.info.TypeOf(a), sig.Type.Params[i])
	}
	callExpr := fmt.Sprintf("%s(%s)", cname(e.Fun), strings.Join(args, ", "))
	switch ret := sig.Type.Ret; ret.Kind {
	case types.Matrix, types.AnyMatrix, types.Tuple, types.RcPtr:
		// Function results carry one owned reference (see stmt.go's
		// return protocol); register it as a statement temp.
		return f.owned(ret, callExpr)
	case types.Void:
		f.b.line("%s;", callExpr)
		return ""
	}
	return callExpr
}

// indexLoad compiles m[args...]: all-scalar selections load one
// element; others produce an owned sub-matrix.
func (f *fnEmitter) indexLoad(e *ast.IndexExpr) string {
	base, vals := f.indexOperands(e)
	if resTy := f.g.info.TypeOf(e); resTy.IsMatrix() {
		specs := f.indexSpecArray(e, vals)
		return f.owned(resTy, fmt.Sprintf("cm_index(%s, %d, %s)", base, len(e.Args), specs))
	}
	return cellRef(base, f.g.info.TypeOf(e.X), vals)
}

// cellRef is the lvalue of the cell of matrix base at scalar indices.
func cellRef(base string, ty *types.Type, idx []string) string {
	return fmt.Sprintf("%s->%s[cm_off(%s, %s)]", base, dataField(ty), base, strings.Join(idx, ", "))
}

func isSimpleCName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			return false
		}
	}
	return len(s) > 0
}

// indexOperands emits the base of e and then its index arguments' values
// in order, 'end' bound to the base's dimension sizes. The base is a C
// name: a temporary when it is an expression, or when an argument calls
// a function that could rebind it.
func (f *fnEmitter) indexOperands(e *ast.IndexExpr) (base string, vals []string) {
	base = f.expr(e.X)
	var es []ast.Expr
	var dims []int
	for d, a := range e.Args {
		switch a := a.(type) {
		case *ast.IdxScalar:
			es, dims = append(es, a.X), append(dims, d)
		case *ast.IdxRange:
			es, dims = append(es, a.Lo, a.Hi), append(dims, d, d)
		}
	}
	if !isSimpleCName(base) || f.effects(es...) {
		base = f.snapshot(base, f.g.info.TypeOf(e.X))
	}
	ends := make([]string, len(es))
	for k, d := range dims {
		ends[k] = fmt.Sprintf("(cm_dim(%s, %d) - 1)", base, d)
	}
	return base, f.sequence(es, ends)
}

// indexSpecArray materializes a cm_spec array variable for e's index
// arguments from their values.
func (f *fnEmitter) indexSpecArray(e *ast.IndexExpr, vals []string) string {
	parts := make([]string, len(e.Args))
	for d, a := range e.Args {
		switch a := a.(type) {
		case *ast.IdxScalar:
			if f.g.info.TypeOf(a.X).IsMatrix() {
				parts[d] = fmt.Sprintf("cm_maskspec(%s)", vals[0])
			} else {
				parts[d] = fmt.Sprintf("cm_scalar(%s)", vals[0])
			}
			vals = vals[1:]
		case *ast.IdxRange:
			parts[d] = fmt.Sprintf("cm_span(%s, %s)", vals[0], vals[1])
			vals = vals[2:]
		case *ast.IdxAll:
			parts[d] = "cm_allspec()"
		default:
			panic(bug("unknown index argument %T", a))
		}
	}
	name := f.g.fresh("sp")
	f.b.line("cm_spec %s[] = {%s};", name, strings.Join(parts, ", "))
	return name
}
