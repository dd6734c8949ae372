// With-loop and matrixMap lowering (§III-A.4/5, §V, §III-C).
//
// A with-loop expands to an explicit loop nest (Fig 1 → Fig 3). When
// sem found the body scalar (Info.ScalarBodies) the nest reads matrix
// data through hoisted data/stride pointers — the slice-elimination
// optimization of §III-A.4 ("there was no need to iterate over a
// copied slice of mat"); with -O off, element access goes through
// bounds-checked runtime accessors instead (the ablation baseline).
// Nested scalar folds lower into accumulator loops inside the nest,
// which is exactly the Fig 3 shape. Every other body is general
// translated C inside the nest.
//
// User transform clauses (§V) apply loopir rewrites; the outermost
// loop is auto-parallelized per §III-C — lifted into a worker function
// dispatched on the fork-join pool in pthread mode ("we actually lift
// this out into a new function so that the spawned threads can get
// direct access to it"), or annotated with an OpenMP pragma in omp
// mode (Fig 11).
package cgen

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/loopir"
	"repro/internal/types"
)

// wlState is per-with-loop lowering state.
type wlState struct {
	f  *fnEmitter
	wl *ast.WithLoop
	// hoisted declarations emitted before the nest ("floated above
	// the outermost for loop", Fig 11).
	hoisted *indentWriter
	// types of hoisted / captured C variables, for pthread lifting.
	varTypes map[string]string
	endStk   []func() loopir.Expr
	index    int // > 0 while an index argument lowers
	seq      int
	// uid distinguishes this nest's hoisted pointer names: two
	// with-loops in one function may read the same matrix (which can
	// be rebound between them), so each nest re-reads data/stride/dim
	// pointers under its own names.
	uid int
}

func (f *fnEmitter) newWL(wl *ast.WithLoop) *wlState {
	f.wlN++
	return &wlState{f: f, wl: wl, hoisted: &indentWriter{}, uid: f.wlN,
		varTypes: map[string]string{}}
}

func (w *wlState) hoist(ctype, name, init string) string {
	w.hoisted.line("%s%s = %s;", padType(ctype), name, init)
	w.varTypes[name] = ctype
	return name
}

// emitWithLoop compiles one with-loop expression, returning the C
// expression holding its value.
func (f *fnEmitter) emitWithLoop(wl *ast.WithLoop) string {
	w := f.newWL(wl)
	rank := len(wl.Ids)
	los := make([]loopir.Expr, rank)
	his := make([]loopir.Expr, rank)
	for d := 0; d < rank; d++ {
		los[d] = w.boundExpr(wl.Lower[d])
		his[d] = w.boundExpr(wl.Upper[d])
	}

	switch op := wl.Op.(type) {
	case *ast.GenArrayOp:
		return f.emitGenArray(w, wl, op, los, his)
	case *ast.FoldOp:
		return f.emitFold(w, wl, op, los, his)
	}
	panic(bug("unknown with-loop op %T", wl.Op))
}

// cElemType is the C type of a matrix cell of scalar type t.
func cElemType(t *types.Type) string {
	switch t.Kind {
	case types.Float:
		return "double"
	case types.Int:
		return "long"
	default:
		return "unsigned char"
	}
}

func dataField(t *types.Type) string {
	switch t.Elem.Kind {
	case types.Float:
		return "f"
	case types.Int:
		return "i"
	default:
		return "b"
	}
}

func (f *fnEmitter) emitGenArray(w *wlState, wl *ast.WithLoop, op *ast.GenArrayOp,
	los, his []loopir.Expr) string {
	resTy := f.g.info.TypeOf(wl)
	rank := len(wl.Ids)
	shs := make([]loopir.Expr, rank)
	shStrs := make([]string, rank)
	for d, se := range op.Shape {
		shs[d] = w.boundExpr(se)
		shStrs[d] = shs[d].String()
	}
	out := f.g.fresh("wl")
	w.hoisted.line("cm_mat *%s = cm_alloc(%s, %d, (long[]){%s});",
		out, elemEnum(resTy.Elem), rank, strings.Join(shStrs, ", "))
	w.varTypes[out] = "cm_mat *"
	// "the shape in the operation must be a superset of the indexes in
	// the generator, which is something that can be checked at runtime"
	var checks []string
	for d := 0; d < rank; d++ {
		checks = append(checks, fmt.Sprintf("%s < 0 || %s > %s", los[d], his[d], shs[d]))
	}
	w.hoisted.line("if (%s) cm_die(\"genarray shape is not a superset of the generator\");",
		strings.Join(checks, " || "))

	// Transpose fast path: a body that is exactly src[j, i] over the
	// full output shape skips the strided nest (whose inner stride is
	// the source row length) for the cache-blocked runtime kernel.
	if src, ok := w.transposeSource(wl, op, resTy); ok {
		f.emitNest(w, []loopir.Stmt{
			&loopir.Raw{Code: fmt.Sprintf("cm_transpose(%s, %s);", out, f.cvar(src))}}, nil)
		f.temps = append(f.temps, scopedVar{out, resTy})
		return out
	}
	outD := w.hoist(cElemType(resTy.Elem)+" *", out+"_d", out+"->"+dataField(resTy))

	// Linear output offset ((i*sh1 + j)*sh2 + k)...
	var linear loopir.Expr = loopir.V(cname(wl.Ids[0]))
	for d := 1; d < rank; d++ {
		linear = loopir.B("+", loopir.B("*", linear, shs[d]), loopir.V(cname(wl.Ids[d])))
	}

	var inner []loopir.Stmt
	f.withIds(wl.Ids, func() {
		if f.g.info.ScalarBodies[wl] {
			pre, val := w.lowerBody(op.Body)
			inner = append(pre, &loopir.AssignStmt{LHS: loopir.Ld(outD, linear), RHS: val})
		} else {
			raw, cval := f.generalBody(op.Body)
			raw += fmt.Sprintf("%s = %s;", loopir.Ld(outD, linear), cval)
			inner = []loopir.Stmt{&loopir.Raw{Code: raw}}
		}
	})
	nest, rest := f.applyTransforms(buildNest(wl.Ids, los, his, inner), wl.Transforms)
	f.autoParallel(nest, wl.Transforms)
	f.emitNest(w, nest, rest)
	f.temps = append(f.temps, scopedVar{out, resTy})
	if !f.g.opts.Optimize {
		// Library-style baseline of §III-A.4: the with-loop result is
		// copied into its destination instead of moved.
		return f.owned(resTy, fmt.Sprintf("cm_copy(%s)", out))
	}
	return out
}

func (f *fnEmitter) emitFold(w *wlState, wl *ast.WithLoop, op *ast.FoldOp,
	los, his []loopir.Expr) string {
	ctype := f.accCType(wl)
	initV := f.expr(op.Init)
	acc := w.hoist(ctype, f.g.fresh("acc"), fmt.Sprintf("(%s)(%s)", ctype, initV))
	var pre []loopir.Stmt
	var val loopir.Expr
	f.withIds(wl.Ids, func() {
		if f.g.info.ScalarBodies[wl] {
			pre, val = w.lowerBody(op.Body)
		} else {
			raw, cval := f.generalBody(op.Body)
			pre, val = []loopir.Stmt{&loopir.Raw{Code: strings.TrimRight(raw, "\n")}}, loopir.V(cval)
		}
	})
	// Folds run sequentially in generated code (the parallel construct
	// is the enclosing genarray, as in Fig 1); see DESIGN.md.
	nest, rest := f.foldNest(wl, acc, los, his, pre, val)
	f.emitNest(w, nest, rest)
	return acc
}

// accCType is the C type of a fold's accumulator: its static type's.
func (f *fnEmitter) accCType(wl *ast.WithLoop) string { return f.g.cType(f.g.info.TypeOf(wl)) }

// foldNest builds a fold's loop nest over [los, his), at top level or
// nested in a scalar body: pre computes each cell's value val, which
// the body combines into acc, and the fold's own transform clauses
// rewrite the nest. rest holds the remainder nests of their splits.
func (f *fnEmitter) foldNest(wl *ast.WithLoop, acc string, los, his []loopir.Expr,
	pre []loopir.Stmt, val loopir.Expr) (nest, rest []loopir.Stmt) {
	inner := append(pre, &loopir.AssignStmt{LHS: loopir.V(acc),
		RHS: foldCombine(wl.Op.(*ast.FoldOp).Kind, f.g.info.TypeOf(wl).Kind == types.Int, loopir.V(acc), val)})
	return f.applyTransforms(buildNest(wl.Ids, los, his, inner), wl.Transforms)
}

// foldCombine is one fold step, as matrix's combine: an int + or *
// wraps; of two equal values min keeps the right operand and max the
// left, and since a comparison with a NaN is false, min takes the right
// operand and max keeps the left.
func foldCombine(kind ast.FoldKind, isInt bool, acc, v loopir.Expr) loopir.Expr {
	switch {
	case kind == ast.FoldMin:
		return &loopir.Cond{C: loopir.B("<", acc, v), T: acc, F: v}
	case kind == ast.FoldMax:
		return &loopir.Cond{C: loopir.B("<", acc, v), T: v, F: acc}
	case isInt && kind == ast.FoldAdd:
		return loopir.Call("cm_iadd", acc, v)
	case isInt:
		return loopir.Call("cm_imul", acc, v)
	case kind == ast.FoldAdd:
		return loopir.B("+", acc, v)
	}
	return loopir.B("*", acc, v)
}

func buildNest(ids []string, los, his []loopir.Expr, inner []loopir.Stmt) []loopir.Stmt {
	body := inner
	for d := len(ids) - 1; d >= 0; d-- {
		body = []loopir.Stmt{&loopir.Loop{
			Index: cname(ids[d]), Lo: los[d], Hi: his[d], Body: body}}
	}
	return body
}

// transposeSource reports whether a genarray is a whole-shape
// transpose — rank 2, zero lower bounds, upper bounds syntactically
// equal to the shape, and a body that is exactly src[j, i] on a
// rank-2 matrix of the result's element kind — returning the source
// matrix name. Only the optimized build takes the fast path; the
// ablation baseline keeps its bounds-checked accessor nest. The
// kernel runs serially even in pthread mode: a blocked transpose on
// the pool would be coordination-bound at these tile sizes.
func (w *wlState) transposeSource(wl *ast.WithLoop, op *ast.GenArrayOp,
	resTy *types.Type) (string, bool) {
	if !w.f.g.opts.Optimize || len(wl.Ids) != 2 || len(wl.Transforms) != 0 {
		return "", false
	}
	for d := 0; d < 2; d++ {
		lo, ok := wl.Lower[d].(*ast.IntLit)
		if !ok || lo.Value != 0 || !sameBound(wl.Upper[d], op.Shape[d]) {
			return "", false
		}
	}
	ix, ok := op.Body.(*ast.IndexExpr)
	if !ok || len(ix.Args) != 2 {
		return "", false
	}
	base, ok := ix.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	ty := w.f.g.info.TypeOf(base)
	if ty.Kind != types.Matrix || ty.Rank != 2 ||
		ty.Elem.Kind != resTy.Elem.Kind {
		return "", false
	}
	for d, want := range []string{wl.Ids[1], wl.Ids[0]} {
		sc, ok := ix.Args[d].(*ast.IdxScalar)
		if !ok {
			return "", false
		}
		id, ok := sc.X.(*ast.Ident)
		if !ok || id.Name != want {
			return "", false
		}
	}
	return base.Name, true
}

// sameBound: syntactic equality for the bound forms boundExpr keeps
// cheap — integer literals and plain identifiers. Anything else is
// conservatively unequal (each side would hoist to its own variable).
func sameBound(a, b ast.Expr) bool {
	switch a := a.(type) {
	case *ast.IntLit:
		bl, ok := b.(*ast.IntLit)
		return ok && a.Value == bl.Value
	case *ast.Ident:
		bi, ok := b.(*ast.Ident)
		return ok && a.Name == bi.Name
	}
	return false
}

// boundExpr evaluates a with-loop bound or shape expression: integer
// literals stay as IR constants (so transformations like split see
// zero-based, constant-trip loops); anything else is evaluated once
// and hoisted into a variable.
func (w *wlState) boundExpr(e ast.Expr) loopir.Expr {
	if lit, ok := e.(*ast.IntLit); ok {
		return loopir.IC(lit.Value)
	}
	v := w.f.expr(e)
	return loopir.V(w.hoist("long", w.f.g.fresh("b"), v))
}

// applyTransforms applies the §V clauses, which sem has checked, to
// the nest; rest collects the remainder nests of its splits.
func (f *fnEmitter) applyTransforms(nest []loopir.Stmt, clauses []ast.TransformClause) (out, rest []loopir.Stmt) {
	for _, c := range clauses {
		var r []loopir.Stmt
		switch c := c.(type) {
		case *ast.SplitClause:
			nest, r = loopir.Split(nest, cname(c.Index), c.Factor.(*ast.IntLit).Value,
				cname(c.Inner), cname(c.Outer))
		case *ast.VectorizeClause:
			loopir.Vectorize(nest, cname(c.Index))
			f.g.usesVectors = true
		case *ast.ParallelizeClause:
			loopir.Parallelize(nest, cname(c.Index))
		case *ast.ReorderClause:
			order := make([]string, len(c.Indices))
			for i, n := range c.Indices {
				order[i] = cname(n)
			}
			nest = loopir.Reorder(nest, order)
		case *ast.TileClause:
			nest, r = loopir.Tile(nest, cname(c.IndexA), c.FactorA.(*ast.IntLit).Value,
				cname(c.IndexB), c.FactorB.(*ast.IntLit).Value)
		case *ast.UnrollClause:
			nest = loopir.Unroll(nest, cname(c.Index), c.Factor.(*ast.IntLit).Value)
		}
		rest = append(rest, r...)
	}
	return nest, rest
}

// autoParallel marks the outermost loop parallel (§III-C automatic
// parallelization) unless the user gave explicit transform clauses —
// then their parallelize decision stands alone.
func (f *fnEmitter) autoParallel(nest []loopir.Stmt, clauses []ast.TransformClause) {
	if f.g.opts.Par == ParNone || len(clauses) > 0 {
		return
	}
	for _, s := range nest {
		if l, ok := s.(*loopir.Loop); ok {
			l.Parallel = true
			return
		}
	}
}
