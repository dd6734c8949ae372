// Expression translation. Scalar expressions become C expressions;
// matrix-valued expressions become owned cm_mat* temporaries produced
// by runtime calls (released at end of statement), except with-loops
// and matrixMap, which lower to explicit loop nests in withloop.go.
package cgen

import (
	"fmt"
	"strings"

	"repro/internal/ast"
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

// cFloat renders a float literal with a trailing f suffix.
func cFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	if !strings.ContainsAny(s, ".e") {
		s += ".0"
	}
	return s + "f"
}

func (f *fnEmitter) expr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.IntLit:
		return fmt.Sprintf("%dL", e.Value)
	case *ast.FloatLit:
		return cFloat(e.Value)
	case *ast.BoolLit:
		if e.Value {
			return "1"
		}
		return "0"
	case *ast.StrLit:
		return fmt.Sprintf("%q", e.Value)
	case *ast.Ident:
		return cname(e.Name)

	case *ast.BinaryExpr:
		return f.binary(e)

	case *ast.UnaryExpr:
		x := f.expr(e.X)
		if f.g.info.TypeOf(e.X).IsMatrix() {
			neg := "0"
			if e.Op == ast.OpNeg {
				neg = "1"
			}
			return f.temp("cm_mat *", fmt.Sprintf("cm_unary(%s, %s)", neg, x))
		}
		if e.Op == ast.OpNeg {
			return "(-(" + x + "))"
		}
		return "(!(" + x + "))"

	case *ast.CastExpr:
		x := f.expr(e.X)
		switch e.To {
		case ast.PrimInt:
			return "((long)(" + x + "))"
		case ast.PrimFloat:
			return "((float)(" + x + "))"
		default:
			return "((" + x + ") != 0)"
		}

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
		lo := f.expr(e.Lo)
		hi := f.expr(e.Hi)
		return f.temp("cm_mat *", fmt.Sprintf("cm_rangevec(%s, %s)", lo, hi))

	case *ast.TupleExpr:
		ty := f.g.info.TypeOf(e)
		parts := make([]string, len(e.Elems))
		for i, el := range e.Elems {
			parts[i] = promoteScalar(f.expr(el), f.g.info.TypeOf(el), ty.Elems[i])
		}
		return fmt.Sprintf("(%s){%s}", f.g.tupleType(ty), strings.Join(parts, ", "))

	case *ast.WithLoop:
		return f.emitWithLoop(e)

	case *ast.MatrixMap:
		return f.emitMatrixMap(e)

	case *ast.InitExpr:
		ty := f.g.info.TypeOf(e)
		dims := make([]string, len(e.Dims))
		for i, d := range e.Dims {
			dims[i] = f.expr(d)
		}
		return f.temp("cm_mat *", fmt.Sprintf("cm_alloc(%s, %d, (long[]){%s})",
			elemEnum(ty), ty.Rank, strings.Join(dims, ", ")))
	}
	panic(bug("unknown expression %T", e))
}

func (f *fnEmitter) binary(e *ast.BinaryExpr) string {
	lt := f.g.info.TypeOf(e.L)
	rt := f.g.info.TypeOf(e.R)
	l := f.expr(e.L)
	r := f.expr(e.R)
	switch {
	case lt.IsMatrix() && rt.IsMatrix():
		if e.Op == ast.OpMul {
			return f.temp("cm_mat *", fmt.Sprintf("cm_matmul(%s, %s)", l, r))
		}
		return f.temp("cm_mat *", fmt.Sprintf("cm_ew(%s, %s, %s)", cOpEnum[e.Op], l, r))
	case lt.IsMatrix():
		return f.temp("cm_mat *", fmt.Sprintf("cm_bc(%s, %s, (double)(%s), %s, 1)",
			cOpEnum[e.Op], l, r, scalarElemEnum(rt)))
	case rt.IsMatrix():
		return f.temp("cm_mat *", fmt.Sprintf("cm_bc(%s, %s, (double)(%s), %s, 0)",
			cOpEnum[e.Op], r, l, scalarElemEnum(lt)))
	default:
		return fmt.Sprintf("(%s %s %s)", l, cOpScalar[e.Op], r)
	}
}

func scalarElemEnum(t *types.Type) string {
	switch t.Kind {
	case types.Float:
		return "CM_FLOAT"
	case types.Bool:
		return "CM_BOOL"
	default:
		return "CM_INT"
	}
}

func (f *fnEmitter) call(e *ast.CallExpr) string {
	// Builtins first.
	switch e.Fun {
	case "dimSize":
		m := f.expr(e.Args[0])
		return fmt.Sprintf("cm_dim(%s, %s)", m, f.expr(e.Args[1]))
	case "readMatrix":
		return f.temp("cm_mat *", fmt.Sprintf("cm_read(%s)", f.expr(e.Args[0])))
	case "writeMatrix":
		name := f.expr(e.Args[0])
		f.b.line("cm_write(%s, %s);", name, f.expr(e.Args[1]))
		return ""
	case "print":
		v := f.expr(e.Args[0])
		switch f.g.info.TypeOf(e.Args[0]).Kind {
		case types.Float:
			f.b.line("printf(\"%%g\\n\", (double)(%s));", v)
		case types.Bool:
			f.b.line("printf(\"%%s\\n\", (%s) ? \"true\" : \"false\");", v)
		case types.Matrix, types.AnyMatrix:
			f.b.line("cm_printmat(%s);", v)
		default:
			f.b.line("printf(\"%%ld\\n\", (long)(%s));", v)
		}
		return ""
	case "rcnew":
		v := f.expr(e.Args[0])
		name := f.g.fresh("cell")
		f.b.line("cm_cell *%s = cm_cell_new((double)(%s));", name, v)
		f.cellTemps = append(f.cellTemps, name)
		return name
	case "rcget":
		p := f.expr(e.Args[0])
		ty := f.g.info.TypeOf(e)
		return fmt.Sprintf("((%s)cm_cell_get(%s))", strings.TrimSpace(f.g.cType(ty)), p)
	case "rcset":
		p := f.expr(e.Args[0])
		f.b.line("cm_cell_set(%s, (double)(%s));", p, f.expr(e.Args[1]))
		return ""
	case "rcrelease":
		f.b.line("cm_cell_release(%s);", f.expr(e.Args[0]))
		return ""
	}

	sig, ok := f.g.info.Funcs[e.Fun]
	if !ok {
		panic(bug("unknown function %q", e.Fun))
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = promoteScalar(f.expr(a), f.g.info.TypeOf(a), sig.Type.Params[i])
	}
	callExpr := fmt.Sprintf("%s(%s)", cname(e.Fun), strings.Join(args, ", "))
	ret := sig.Type.Ret
	switch ret.Kind {
	case types.Matrix, types.AnyMatrix:
		// Function results carry one owned reference (see stmt.go's
		// return protocol); register it as a statement temp.
		return f.temp("cm_mat *", callExpr)
	case types.Tuple:
		name := f.g.fresh("tt")
		f.b.line("%s %s = %s;", f.g.tupleType(ret), name, callExpr)
		f.ownedTuples = append(f.ownedTuples, scopedVar{name, ret})
		return name
	case types.Void:
		f.b.line("%s;", callExpr)
		return ""
	default:
		return callExpr
	}
}

// indexLoad compiles m[args...]: all-scalar selections load one
// element; others produce an owned sub-matrix.
func (f *fnEmitter) indexLoad(e *ast.IndexExpr) string {
	base := f.expr(e.X)
	// 'end' needs a stable base to take cm_dim of.
	if !isSimpleCName(base) {
		b := f.g.fresh("b")
		f.b.line("cm_mat *%s = %s;", b, base)
		base = b
	}
	specs := f.indexSpecArray(e, base)
	resTy := f.g.info.TypeOf(e)
	if resTy.IsMatrix() {
		return f.temp("cm_mat *", fmt.Sprintf("cm_index(%s, %d, %s)", base, len(e.Args), specs))
	}
	load := fmt.Sprintf("cm_index_scalar(%s, %d, %s)", base, len(e.Args), specs)
	switch resTy.Kind {
	case types.Float:
		return "((float)" + load + ")"
	case types.Bool:
		return "(" + load + " != 0)"
	default:
		return "((long)" + load + ")"
	}
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

// indexSpecArray materializes a cm_spec array variable for e's index
// arguments, binding 'end' to the base's dimension sizes.
func (f *fnEmitter) indexSpecArray(e *ast.IndexExpr, base string) string {
	parts := make([]string, len(e.Args))
	for d, a := range e.Args {
		f.endCtx = append(f.endCtx, fmt.Sprintf("(cm_dim(%s, %d) - 1)", base, d))
		parts[d] = f.oneSpec(a)
		f.endCtx = f.endCtx[:len(f.endCtx)-1]
	}
	name := f.g.fresh("sp")
	f.b.line("cm_spec %s[] = {%s};", name, strings.Join(parts, ", "))
	return name
}

func (f *fnEmitter) oneSpec(a ast.IndexArg) string {
	switch a := a.(type) {
	case *ast.IdxScalar:
		v := f.expr(a.X)
		if f.g.info.TypeOf(a.X).IsMatrix() {
			return fmt.Sprintf("cm_maskspec(%s)", v)
		}
		return fmt.Sprintf("cm_scalar(%s)", v)
	case *ast.IdxRange:
		lo := f.expr(a.Lo)
		return fmt.Sprintf("cm_span(%s, %s)", lo, f.expr(a.Hi))
	case *ast.IdxAll:
		return "cm_allspec()"
	}
	panic(bug("unknown index argument %T", a))
}
