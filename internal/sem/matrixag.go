// Semantic attribute-grammar fragments contributed by the matrix and
// transform extensions. These add equations for the host's analysis
// attributes on the extensions' own productions (with-loops,
// matrixMap, init, transform clauses), plus the transform extension's
// own loopIds/idsOut attributes (transformag.go) — composing with the
// host spec exactly as the paper's Silver extension specifications do.
package sem

import (
	"repro/internal/ast"
	"repro/internal/attr"
	"repro/internal/types"
)

// OwnerMatrixSem and OwnerTransformSem tag the extension AG specs.
const (
	OwnerMatrixSem    = "matrix"
	OwnerTransformSem = "transform"
)

// MatrixAG builds the matrix extension's semantic specification.
func MatrixAG() *attr.AGSpec {
	s := newSpec(OwnerMatrixSem)
	s.nts(ntWithOp, ntWithSuffix)
	occ, p, syn, inh := s.occ, s.prod, s.syn, s.inh
	occ(aErrs, ntWithOp, ntWithSuffix)
	occ(aOwnErrs, ntWithOp, ntWithSuffix)
	occ(aTyp, ntWithOp)
	occ(aEnv, ntWithOp)

	p("withLoop", ntExpr, false, ntExprList, ntExprList, ntWithOp, ntWithSuffix)
	p("genarrayOp", ntWithOp, false, ntExprList, ntExpr)
	p("foldOp", ntWithOp, false, ntExpr, ntExpr)
	p("matrixMap", ntExpr, false, ntExpr)
	p("initExpr", ntExpr, false, ntExprList)
	p("emptySuffix", ntWithSuffix, false)

	// --- with-loop (§III-A.4) ---
	syn("withLoop", aTyp, func(t *attr.Tree) any { return typOf(t.Child(2)) })
	syn("withLoop", aOwnErrs, func(t *attr.Tree) any {
		w := t.Value.(*ast.WithLoop)
		var errs errlist
		// "The number of expressions in both the upper bound and lower
		// bound should match the number of Id's provided" (§III-A.4).
		if len(w.Lower) != len(w.Ids) || len(w.Upper) != len(w.Ids) {
			errs = append(errs, errf(w,
				"with-loop generator arity mismatch: %d lower bound(s), %d index(es), %d upper bound(s)",
				len(w.Lower), len(w.Ids), len(w.Upper)))
		}
		seen := map[string]bool{}
		for _, id := range w.Ids {
			if seen[id] {
				errs = append(errs, errf(w, "duplicate with-loop index %q", id))
			}
			seen[id] = true
		}
		for bi, ts := range [][]*types.Type{typsOf(t.Child(0)), typsOf(t.Child(1))} {
			bounds := [][]ast.Expr{w.Lower, w.Upper}[bi]
			for i, ty := range ts {
				if ty.Kind != types.Int && ty.Kind != types.Invalid {
					at := ast.Node(w)
					if i < len(bounds) {
						at = bounds[i]
					}
					errs = append(errs, errf(at, "with-loop bounds must be int, got %s", ty))
				}
			}
		}
		// "...which should also match the number of dimensions provided
		// in the Operation."
		if ga, ok := w.Op.(*ast.GenArrayOp); ok && len(ga.Shape) != len(w.Ids) {
			errs = append(errs, errf(ga,
				"genarray shape has %d dimension(s) but the generator defines %d index(es)",
				len(ga.Shape), len(w.Ids)))
		}
		return errs
	})
	inh("withLoop", 0, aEnv, func(p *attr.Tree, c int) any { return env(p) })
	inh("withLoop", 1, aEnv, func(p *attr.Tree, c int) any { return env(p) })
	inh("withLoop", 0, aInIndex, func(p *attr.Tree, c int) any { return false })
	inh("withLoop", 1, aInIndex, func(p *attr.Tree, c int) any { return false })
	inh("withLoop", 2, aEnv, func(p *attr.Tree, c int) any {
		w := p.Value.(*ast.WithLoop)
		sc := env(p).Push()
		for _, id := range w.Ids {
			sc = sc.Bind(id, types.IntT, w)
		}
		return sc
	})

	// --- genarray ---
	syn("genarrayOp", aTyp, func(t *attr.Tree) any {
		op := t.Value.(*ast.GenArrayOp)
		body := typOf(t.Child(1))
		if !body.IsScalar() {
			return types.InvalidT
		}
		return types.MatrixOf(body, len(op.Shape))
	})
	syn("genarrayOp", aOwnErrs, func(t *attr.Tree) any {
		op := t.Value.(*ast.GenArrayOp)
		var errs errlist
		for i, ty := range typsOf(t.Child(0)) {
			if ty.Kind != types.Int && ty.Kind != types.Invalid {
				at := ast.Node(op)
				if i < len(op.Shape) {
					at = op.Shape[i]
				}
				errs = append(errs, errf(at, "genarray shape must be int expressions, got %s", ty))
			}
		}
		body := typOf(t.Child(1))
		if !body.IsScalar() && body.Kind != types.Invalid {
			errs = append(errs, errf(op.Body, "genarray element expression must be scalar, got %s", body))
		}
		return errs
	})
	inh("genarrayOp", -1, aEnv, func(p *attr.Tree, c int) any { return p.Inh(aEnv) })
	inh("genarrayOp", 0, aInIndex, func(p *attr.Tree, c int) any { return false })
	inh("genarrayOp", 1, aInIndex, func(p *attr.Tree, c int) any { return false })

	// --- fold ---
	syn("foldOp", aTyp, func(t *attr.Tree) any {
		op := t.Value.(*ast.FoldOp)
		base, body := typOf(t.Child(0)), typOf(t.Child(1))
		if base.Kind == types.Invalid || body.Kind == types.Invalid {
			return types.InvalidT
		}
		if !base.IsNumeric() || !body.IsNumeric() {
			return types.InvalidT
		}
		_ = op
		if base.Kind == types.Float || body.Kind == types.Float {
			return types.FloatT
		}
		return types.IntT
	})
	syn("foldOp", aOwnErrs, func(t *attr.Tree) any {
		op := t.Value.(*ast.FoldOp)
		base, body := typOf(t.Child(0)), typOf(t.Child(1))
		var errs errlist
		if base.Kind != types.Invalid && !base.IsNumeric() {
			errs = append(errs, errf(op.Init, "fold base value must be numeric, got %s", base))
		}
		if body.Kind != types.Invalid && !body.IsNumeric() {
			errs = append(errs, errf(op.Body, "fold body must be numeric, got %s", body))
		}
		return errs
	})
	inh("foldOp", -1, aEnv, func(p *attr.Tree, c int) any { return p.Inh(aEnv) })
	inh("foldOp", 0, aInIndex, func(p *attr.Tree, c int) any { return false })
	inh("foldOp", 1, aInIndex, func(p *attr.Tree, c int) any { return false })

	// --- matrixMap (§III-A.5) ---
	mmResolve := func(t *attr.Tree) (*types.Type, errlist) {
		m := t.Value.(*ast.MatrixMap)
		arg := typOf(t.Child(0))
		if arg.Kind == types.Invalid {
			return types.InvalidT, nil
		}
		if arg.Kind != types.Matrix {
			return types.InvalidT, errlist{errf(m.Arg, "matrixMap requires a matrix argument, got %s", arg)}
		}
		var dims []int
		seen := map[int]bool{}
		var errs errlist
		for _, d := range m.Dims {
			lit, ok := d.(*ast.IntLit)
			if !ok {
				errs = append(errs, errf(d, "matrixMap dimensions must be integer literals"))
				continue
			}
			v := int(lit.Value)
			if v < 0 || v >= arg.Rank {
				errs = append(errs, errf(d, "matrixMap dimension %d out of range for rank-%d matrix", v, arg.Rank))
				continue
			}
			if seen[v] {
				errs = append(errs, errf(d, "duplicate matrixMap dimension %d", v))
				continue
			}
			seen[v] = true
			dims = append(dims, v)
		}
		if len(errs) > 0 {
			return types.InvalidT, errs
		}
		if len(dims) == 0 || len(dims) >= arg.Rank {
			return types.InvalidT, errlist{errf(m,
				"matrixMap must select between 1 and rank-1 dimensions (rank %d, selected %d)", arg.Rank, len(dims))}
		}
		sig := env(t).Lookup(m.Fun)
		if sig == nil {
			return types.InvalidT, errlist{errf(m, "undeclared function %q in matrixMap", m.Fun)}
		}
		ft := sig.Type
		if ft.Kind != types.Func {
			return types.InvalidT, errlist{errf(m, "%q is not a function", m.Fun)}
		}
		want := types.MatrixOf(arg.Elem, len(dims))
		if len(ft.Params) != 1 || !types.Equal(ft.Params[0], want) {
			return types.InvalidT, errlist{errf(m,
				"matrixMap function %q must take exactly one %s parameter, has signature %s", m.Fun, want, ft)}
		}
		ret := ft.Ret
		if ret.Kind != types.Matrix || ret.Rank != len(dims) {
			return types.InvalidT, errlist{errf(m,
				"matrixMap function %q must return a rank-%d matrix, returns %s", m.Fun, len(dims), ret)}
		}
		// "the result is always the same size and rank as the matrix
		// getting mapped over" — element type comes from f's result.
		return types.MatrixOf(ret.Elem, arg.Rank), nil
	}
	syn("matrixMap", aTyp, func(t *attr.Tree) any { ty, _ := mmResolve(t); return ty })
	syn("matrixMap", aOwnErrs, func(t *attr.Tree) any { _, errs := mmResolve(t); return errs })
	inh("matrixMap", 0, aEnv, func(p *attr.Tree, c int) any { return env(p) })
	inh("matrixMap", 0, aInIndex, func(p *attr.Tree, c int) any { return false })

	// --- init ---
	initResolve := func(t *attr.Tree) (*types.Type, errlist) {
		e := t.Value.(*ast.InitExpr)
		if e.Type == nil {
			return types.InvalidT, errlist{errf(e, "init requires a Matrix type as its first argument")}
		}
		ty, errs := resolveType(e.Type, e)
		if ty.Kind != types.Matrix {
			return types.InvalidT, errs
		}
		if len(e.Dims) != ty.Rank {
			errs = append(errs, errf(e, "init of %s requires %d dimension size(s), got %d",
				ty, ty.Rank, len(e.Dims)))
		}
		for i, dt := range typsOf(t.Child(0)) {
			if dt.Kind != types.Int && dt.Kind != types.Invalid {
				at := ast.Node(e)
				if i < len(e.Dims) {
					at = e.Dims[i]
				}
				errs = append(errs, errf(at, "init dimension sizes must be int, got %s", dt))
			}
		}
		return ty, errs
	}
	syn("initExpr", aTyp, func(t *attr.Tree) any { ty, _ := initResolve(t); return ty })
	syn("initExpr", aOwnErrs, func(t *attr.Tree) any { _, errs := initResolve(t); return errs })
	inh("initExpr", 0, aEnv, func(p *attr.Tree, c int) any { return env(p) })
	inh("initExpr", 0, aInIndex, func(p *attr.Tree, c int) any { return false })

	// --- empty transform suffix ---
	syn("emptySuffix", aOwnErrs, func(t *attr.Tree) any { return errlist(nil) })

	s.addErrsProjections()
	return s.AGSpec
}
