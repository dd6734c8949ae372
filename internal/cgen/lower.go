// Scalar body lowering for with-loops: the path that produces the
// Fig 3 loop nests with direct strided element access (slice
// elimination, §III-A.4), including nested scalar folds.
package cgen

import (
	"fmt"
	"maps"

	"repro/internal/ast"
	"repro/internal/loopir"
	"repro/internal/types"
)

// lowerBody lowers a with-loop body expression, which sem found scalar
// (Info.ScalarBodies), to a scalar loopir expression plus prelude
// statements for nested folds.
func (w *wlState) lowerBody(e ast.Expr) (pre []loopir.Stmt, val loopir.Expr) {
	switch e := e.(type) {
	case *ast.IntLit:
		return nil, loopir.IC(e.Value)
	case *ast.FloatLit:
		return nil, loopir.FC(e.Value)
	case *ast.BoolLit:
		if e.Value {
			return nil, loopir.IC(1)
		}
		return nil, loopir.IC(0)
	case *ast.Ident:
		return nil, loopir.V(cname(e.Name))
	case *ast.BinaryExpr:
		lp, lv := w.lowerBody(e.L)
		rp, rv := w.lowerBody(e.R)
		return append(lp, rp...), loopir.B(cOpScalar[e.Op], lv, rv)
	case *ast.UnaryExpr:
		p, v := w.lowerBody(e.X)
		if e.Op == ast.OpNeg {
			return p, &loopir.Un{Op: "-", X: v}
		}
		return p, &loopir.Un{Op: "!", X: v}
	case *ast.CastExpr:
		p, v := w.lowerBody(e.X)
		if e.To == ast.PrimInt {
			return p, &loopir.Un{Op: "(long)", X: v}
		}
		return p, &loopir.Un{Op: "(float)", X: v}
	case *ast.CallExpr: // dimSize(m, d)
		p, d := w.lowerBody(e.Args[1])
		return p, loopir.Call("cm_dim", loopir.V(cname(e.Args[0].(*ast.Ident).Name)), d)
	case *ast.EndExpr:
		return nil, w.endStk[len(w.endStk)-1]()
	case *ast.IndexExpr:
		return w.lowerIndex(e)
	case *ast.WithLoop:
		return w.lowerNestedFold(e, e.Op.(*ast.FoldOp))
	}
	panic(bug("%T in a with-loop body sem found scalar", e))
}

// lowerIndex compiles m[i, j, k] with all-scalar indices into either a
// direct strided load (slice elimination, -O) or a bounds-checked
// runtime accessor call (the ablation baseline).
func (w *wlState) lowerIndex(e *ast.IndexExpr) (pre []loopir.Stmt, val loopir.Expr) {
	baseTy := w.f.g.info.TypeOf(e.X)
	cn := cname(e.X.(*ast.Ident).Name)
	idxs := make([]loopir.Expr, len(e.Args))
	for d, a := range e.Args {
		// bind 'end' to shape[d]-1; the dim variable is hoisted only
		// if 'end' actually occurs in this index expression
		dd := d
		w.endStk = append(w.endStk, func() loopir.Expr {
			return loopir.B("-", loopir.V(w.dimVar(cn, dd)), loopir.IC(1))
		})
		p, v := w.lowerBody(a.(*ast.IdxScalar).X)
		w.endStk = w.endStk[:len(w.endStk)-1]
		pre = append(pre, p...)
		idxs[d] = v
	}
	if !w.f.g.opts.Optimize {
		// Baseline: bounds-checked accessor (no slice elimination).
		args := append([]loopir.Expr{loopir.V(cn)}, idxs...)
		call := loopir.Call(fmt.Sprintf("cm_at%d", len(idxs)), args...)
		if baseTy.Elem.Kind == types.Int {
			return pre, &loopir.Un{Op: "(long)", X: call}
		}
		return pre, &loopir.Un{Op: "(float)", X: call}
	}
	// Direct load through hoisted data and stride pointers.
	dn := w.dataVar(cn, baseTy)
	var linear loopir.Expr
	for d, idx := range idxs {
		term := loopir.Expr(idx)
		if baseTy.Rank > 1 {
			term = loopir.B("*", idx, loopir.V(w.strideVar(cn, d)))
		}
		if linear == nil {
			linear = term
		} else {
			linear = loopir.B("+", linear, term)
		}
	}
	return pre, loopir.Ld(dn, linear)
}

// dimVar hoists (once) a variable holding cm_dim(m, d).
func (w *wlState) dimVar(cn string, d int) string {
	name := fmt.Sprintf("%s_dim%d_w%d", cn, d, w.uid)
	if _, done := w.varTypes[name]; !done {
		w.hoist("long", name, fmt.Sprintf("%s->shape[%d]", cn, d))
	}
	return name
}

// dataVar hoists (once) the matrix's raw data pointer.
func (w *wlState) dataVar(cn string, ty *types.Type) string {
	name := fmt.Sprintf("%s_d_w%d", cn, w.uid)
	if _, done := w.varTypes[name]; !done {
		w.hoist(cElemType(ty)+" *", name, cn+"->"+dataField(ty))
	}
	return name
}

// strideVar hoists (once) one stride of the matrix.
func (w *wlState) strideVar(cn string, d int) string {
	name := fmt.Sprintf("%s_s%d_w%d", cn, d, w.uid)
	if _, done := w.varTypes[name]; !done {
		w.hoist("long", name, fmt.Sprintf("%s->strides[%d]", cn, d))
	}
	return name
}

// lowerNestedFold lowers an inner scalar fold with-loop (the Fig 1 →
// Fig 3 pattern) to its accumulator's declaration, its nest and the
// remainder nests of its splits.
func (w *wlState) lowerNestedFold(wl *ast.WithLoop, fo *ast.FoldOp) (pre []loopir.Stmt, val loopir.Expr) {
	rank := len(wl.Ids)
	los := make([]loopir.Expr, rank)
	his := make([]loopir.Expr, rank)
	for d := 0; d < rank; d++ {
		p, lo := w.lowerBody(wl.Lower[d])
		pre = append(pre, p...)
		p2, hi := w.lowerBody(wl.Upper[d])
		pre = append(pre, p2...)
		los[d], his[d] = lo, hi
	}
	pInit, initV := w.lowerBody(fo.Init)
	pre = append(pre, pInit...)
	bodyPre, bodyV := w.lowerBody(fo.Body)
	ctype := w.f.accCType(wl)
	w.seq++
	acc := fmt.Sprintf("_acc%d_%d", w.f.g.tmpN, w.seq)
	pre = append(pre, &loopir.DeclStmt{CType: ctype, Name: acc,
		Init: &loopir.Un{Op: "(" + ctype + ")", X: initV}})
	nest, rest := w.f.foldNest(wl, acc, los, his, bodyPre, bodyV)
	return append(append(pre, nest...), rest...), loopir.V(acc)
}

// generalBody translates an arbitrary body expression with the general
// expression emitter, for nests whose bodies are not scalar-lowerable;
// ids are the with-loop's indices, long in C. It returns raw C
// statements plus the C expression of the body value.
func (f *fnEmitter) generalBody(ids []string, e ast.Expr) (string, string) {
	sub := f.g.newFnEmitter(f.fn)
	sub.vars = maps.Clone(f.vars)
	for _, id := range ids {
		sub.vars[id] = types.IntT
	}
	sub.endCtx = f.endCtx
	val := sub.expr(e)
	// Materialize before releasing body temporaries.
	ty := f.g.info.TypeOf(e)
	ctype := "double"
	if ty.Kind == types.Int {
		ctype = "long"
	}
	res := f.g.fresh("bv")
	sub.b.line("%s %s = (%s)(%s);", ctype, res, ctype, val)
	sub.releaseTemps()
	return sub.b.String(), res
}
