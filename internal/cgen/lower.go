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
		return nil, loopir.V(w.f.cvar(e.Name))
	case *ast.BinaryExpr:
		lp, lv := w.lowerBody(e.L)
		rp, rv := w.lowerBody(e.R)
		pre = append(lp, rp...)
		// Index arithmetic stays plain C (an index that wraps is out of
		// range, which the VM traps), so unit strides stay visible.
		if fn := cOpInt[e.Op]; fn != "" && w.index == 0 && w.f.g.info.TypeOf(e).Kind == types.Int {
			return pre, loopir.Call(fn, lv, rv)
		}
		return pre, loopir.B(cOpScalar[e.Op], lv, rv)
	case *ast.UnaryExpr:
		p, v := w.lowerBody(e.X)
		switch {
		case e.Op != ast.OpNeg:
			return p, &loopir.Un{Op: "!", X: v}
		case w.index == 0 && w.f.g.info.TypeOf(e).Kind == types.Int:
			return p, loopir.Call("cm_isub", loopir.IC(0), v)
		}
		return p, &loopir.Un{Op: "-", X: v}
	case *ast.CastExpr:
		p, v := w.lowerBody(e.X)
		switch {
		case e.To == ast.PrimFloat:
			return p, &loopir.Un{Op: "(double)", X: v}
		case w.f.g.info.TypeOf(e.X).Kind == types.Float:
			return p, loopir.Call("cm_ftoi", v)
		}
		return p, &loopir.Un{Op: "(long)", X: v}
	case *ast.CallExpr: // dimSize(m, d)
		p, d := w.lowerBody(e.Args[1])
		return p, loopir.Call("cm_dim", loopir.V(w.f.cvar(e.Args[0].(*ast.Ident).Name)), d)
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
// direct strided load (slice elimination, -O), each index checked
// against its hoisted extent as cm_off checks it, or a load at cm_off
// (the ablation baseline).
func (w *wlState) lowerIndex(e *ast.IndexExpr) (pre []loopir.Stmt, val loopir.Expr) {
	baseTy := w.f.g.info.TypeOf(e.X)
	cn := w.f.cvar(e.X.(*ast.Ident).Name)
	idxs := make([]loopir.Expr, len(e.Args))
	for d, a := range e.Args {
		// bind 'end' to shape[d]-1; the dim variable is hoisted only
		// if 'end' actually occurs in this index expression
		dd := d
		w.endStk = append(w.endStk, func() loopir.Expr {
			return loopir.B("-", loopir.V(w.dimVar(cn, dd)), loopir.IC(1))
		})
		w.index++
		p, v := w.lowerBody(a.(*ast.IdxScalar).X)
		w.index--
		w.endStk = w.endStk[:len(w.endStk)-1]
		pre = append(pre, p...)
		idxs[d] = v
	}
	if !w.f.g.opts.Optimize {
		// Baseline: bounds-checked offset (no slice elimination).
		off := loopir.Call("cm_off", append([]loopir.Expr{loopir.V(cn)}, idxs...)...)
		return pre, loopir.Ld(cn+"->"+dataField(baseTy), off)
	}
	// Direct load through hoisted data and stride pointers.
	dn := w.dataVar(cn, baseTy)
	var linear loopir.Expr
	checks := make([]loopir.Check, len(idxs))
	for d, idx := range idxs {
		checks[d] = loopir.Check{Idx: idx, N: loopir.V(w.dimVar(cn, d)), Dim: d}
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
	return pre, &loopir.Load{Array: dn, Idx: linear, Checks: checks}
}

// hoistField hoists (once) name, holding a field of the matrix cn, or 0
// while cn is unassigned: a nest whose range is empty runs with a
// matrix its body would read still unbound, as the VM does.
func (w *wlState) hoistField(ctype, name, cn, field string) string {
	if _, done := w.varTypes[name]; !done {
		w.hoist(ctype, name, fmt.Sprintf("%s ? %s->%s : 0", cn, cn, field))
	}
	return name
}

// dimVar hoists (once) a variable holding the size of m's dimension d.
func (w *wlState) dimVar(cn string, d int) string {
	return w.hoistField("long", fmt.Sprintf("%s_dim%d_w%d", cn, d, w.uid), cn, fmt.Sprintf("shape[%d]", d))
}

// dataVar hoists (once) the matrix's raw data pointer.
func (w *wlState) dataVar(cn string, ty *types.Type) string {
	return w.hoistField(cElemType(ty.Elem)+" *", fmt.Sprintf("%s_d_w%d", cn, w.uid), cn, dataField(ty))
}

// strideVar hoists (once) one stride of the matrix.
func (w *wlState) strideVar(cn string, d int) string {
	return w.hoistField("long", fmt.Sprintf("%s_s%d_w%d", cn, d, w.uid), cn, fmt.Sprintf("strides[%d]", d))
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
	var bodyPre []loopir.Stmt
	var bodyV loopir.Expr
	w.f.withIds(wl.Ids, func() { bodyPre, bodyV = w.lowerBody(fo.Body) })
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
// the with-loop's indices are bound in f. It returns raw C statements
// plus the C variable holding the body value, in its own type.
func (f *fnEmitter) generalBody(e ast.Expr) (string, string) {
	sub := f.g.newFnEmitter(f.fn)
	sub.vars = maps.Clone(f.vars)
	sub.endCtx = f.endCtx
	// Materialize before releasing body temporaries.
	res := sub.temp(f.g.cType(f.g.info.TypeOf(e)), sub.expr(e))
	sub.releaseTemps()
	return sub.b.String(), res
}
