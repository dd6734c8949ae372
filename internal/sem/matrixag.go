// Semantic attribute-grammar fragments contributed by the matrix and
// transform extensions. These add equations for the host's analysis
// attributes on the extensions' own productions (with-loops,
// matrixMap, init, transform clauses), plus the transform extension's
// own loopIds/idsOut attributes — composing with the host spec exactly
// as the paper's Silver extension specifications do.
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

// TransformAG builds the transform extension's semantic specification
// (§V): clause indices must name loop indices that exist at that point
// in the clause sequence, split/tile factors must be positive, and
// split-introduced names must be fresh.
func TransformAG() *attr.AGSpec {
	s := newSpec(OwnerTransformSem)
	s.nts(ntClause)
	s.attrs(attr.Inherited, aLoopIds)
	s.attrs(attr.Synthesized, aIdsOut)
	occ, p, syn, inh := s.occ, s.prod, s.syn, s.inh
	occ(aLoopIds, ntWithSuffix, ntClause)
	occ(aIdsOut, ntClause)
	occ(aErrs, ntClause)
	occ(aOwnErrs, ntClause)
	p("transformSuffix", ntWithSuffix, true, ntClause)
	for _, c := range []string{"splitClause", "vectorizeClause", "parallelizeClause",
		"reorderClause", "tileClause", "unrollClause"} {
		p(c, ntClause, false)
	}

	// The matrix extension's withLoop production supplies the initial
	// loop-index set to its WithSuffix child. The transform extension
	// owns the loopIds attribute, so it provides this equation — the
	// composition pattern the MWDA's ownership rule permits.
	inh("withLoop", 3, aLoopIds, func(p *attr.Tree, c int) any {
		return append([]string(nil), p.Value.(*ast.WithLoop).Ids...)
	})

	syn("transformSuffix", aOwnErrs, func(t *attr.Tree) any { return errlist(nil) })
	inh("transformSuffix", -1, aLoopIds, func(p *attr.Tree, c int) any {
		if c == 0 {
			return p.Inh(aLoopIds)
		}
		return p.Child(c - 1).Syn(aIdsOut)
	})

	ids := func(t *attr.Tree) []string { return t.Inh(aLoopIds).([]string) }
	has := func(list []string, x string) bool {
		for _, s := range list {
			if s == x {
				return true
			}
		}
		return false
	}

	syn("splitClause", aOwnErrs, func(t *attr.Tree) any {
		c := t.Value.(*ast.SplitClause)
		var errs errlist
		if !has(ids(t), c.Index) {
			errs = append(errs, errf(c, "split: no loop index %q in this with-loop (have %s)", c.Index, fmtNames(ids(t))))
		}
		if f, ok := c.Factor.(*ast.IntLit); !ok || f.Value < 1 {
			errs = append(errs, errf(c, "split factor must be a positive integer"))
		}
		if c.Inner == c.Outer {
			errs = append(errs, errf(c, "split inner and outer names must differ"))
		}
		for _, n := range []string{c.Inner, c.Outer} {
			if has(ids(t), n) {
				errs = append(errs, errf(c, "split name %q collides with an existing loop index", n))
			}
		}
		return errs
	})
	syn("splitClause", aIdsOut, func(t *attr.Tree) any {
		c := t.Value.(*ast.SplitClause)
		var out []string
		for _, id := range ids(t) {
			if id != c.Index {
				out = append(out, id)
			}
		}
		return append(out, c.Inner, c.Outer)
	})

	indexOnly := func(word string, get func(v any) string) func(t *attr.Tree) any {
		return func(t *attr.Tree) any {
			idx := get(t.Value)
			if !has(ids(t), idx) {
				return errlist{errf(t.Value.(ast.Node),
					"%s: no loop index %q in this with-loop (have %s)", word, idx, fmtNames(ids(t)))}
			}
			return errlist(nil)
		}
	}
	passIds := func(t *attr.Tree) any { return ids(t) }

	syn("vectorizeClause", aOwnErrs, indexOnly("vectorize",
		func(v any) string { return v.(*ast.VectorizeClause).Index }))
	syn("vectorizeClause", aIdsOut, passIds)
	syn("parallelizeClause", aOwnErrs, indexOnly("parallelize",
		func(v any) string { return v.(*ast.ParallelizeClause).Index }))
	syn("parallelizeClause", aIdsOut, passIds)

	syn("reorderClause", aOwnErrs, func(t *attr.Tree) any {
		c := t.Value.(*ast.ReorderClause)
		var errs errlist
		for _, idx := range c.Indices {
			if !has(ids(t), idx) {
				errs = append(errs, errf(c, "reorder: no loop index %q in this with-loop (have %s)", idx, fmtNames(ids(t))))
			}
		}
		return errs
	})
	syn("reorderClause", aIdsOut, passIds)

	syn("tileClause", aOwnErrs, func(t *attr.Tree) any {
		c := t.Value.(*ast.TileClause)
		var errs errlist
		for _, idx := range []string{c.IndexA, c.IndexB} {
			if !has(ids(t), idx) {
				errs = append(errs, errf(c, "tile: no loop index %q in this with-loop (have %s)", idx, fmtNames(ids(t))))
			}
		}
		for _, f := range []ast.Expr{c.FactorA, c.FactorB} {
			if lit, ok := f.(*ast.IntLit); !ok || lit.Value < 1 {
				errs = append(errs, errf(c, "tile factors must be positive integers"))
			}
		}
		if c.IndexA == c.IndexB {
			errs = append(errs, errf(c, "tile requires two distinct loop indices"))
		}
		return errs
	})
	syn("tileClause", aIdsOut, func(t *attr.Tree) any {
		// tile desugars to split a + split b + reorder (see loopir);
		// the derived inner/outer names are internal, so later clauses
		// keep referring to the original indices.
		return ids(t)
	})

	syn("unrollClause", aOwnErrs, func(t *attr.Tree) any {
		c := t.Value.(*ast.UnrollClause)
		errs := indexOnly("unroll", func(v any) string { return v.(*ast.UnrollClause).Index })(t).(errlist)
		if lit, ok := c.Factor.(*ast.IntLit); !ok || lit.Value < 1 {
			errs = append(errs, errf(c, "unroll factor must be a positive integer"))
		}
		return errs
	})
	syn("unrollClause", aIdsOut, passIds)

	s.addErrsProjections()
	return s.AGSpec
}
