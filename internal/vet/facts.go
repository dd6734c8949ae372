// vet.Facts — proven program facts exported for consumers outside the
// diagnostics pipeline: one table of flat plans (withplan.go's WithPlan)
// by site. A with-loop's plan is its body; a chain's is a maximal
// fusable elementwise expression tree, whose every stage is
// effect-free, whose intermediates are provably unaliased (kernel
// results are fresh allocations and never observable), and whose
// per-stage semantics are total after admission, so the VM may execute
// the whole chain as one loop with block-local temporaries instead of
// materializing a full matrix per stage (the paper's §III-A.4 "no
// extraneous copy" fusion).
//
// A chain is written as the rank-1 plan the strip engine runs: every
// matrix leaf loaded at id 0, a range leaf as id 0 plus its lo (slot A
// of its WPushScalarI, the hi slot B), WI2F after an int leaf of a float
// chain, one arithmetic instruction per stage, in post-order (the last
// is the root). Admission replays the same plan, and the plan's Nodes —
// range leaves and stages in plan order — anchor its errors.
//
// Legality is deliberately strict so the fused loop can replay the
// unfused engine's observable behavior exactly — same error, same
// error site, same allocation-budget consumption. A chain root the
// finder tries is declined with the first of these rules its tree
// breaks:
//
//   - "chain element type": the root is no int or float matrix;
//   - "stage operator": a stage is no + - .* * /; "matrix product": a *
//     of two matrices; "int division": / on an int chain (int division
//     can trap per element mid-loop, % traps, comparisons and logical
//     ops change the element type);
//   - "int stage on a float chain": every interior stage has the
//     chain's element type exactly;
//   - "leaf element type": a matrix leaf has the chain's element type
//     or — a promoting leaf — is int on a float chain: WI2F follows its
//     load, and nothing is charged for it, as the unfused kernels make
//     no copy of it either (matrix/fuse.go);
//   - "float scalar on an int chain": it would promote the chain;
//   - "range bound": a range leaf's bounds are int literals or scalar
//     int identifiers. A range leaf is the cell's id plus lo: no vector
//     is built, and admission admits, at the leaf's place in the
//     post-order, the one the unfused engine would have;
//   - an expression form as the leaf rule names it ("expression
//     CallExpr", ...): matrix leaves are plain identifiers of concrete
//     matrix type (binding-time coercion pins the runtime element type;
//     AnyMatrix readMatrix results are excluded: "operand type") or
//     range literals; scalar leaves are literals or scalar identifiers —
//     no calls, no indexing, nothing that could observe or modify state
//     mid-expression;
//   - "global not bound yet": a leaf in a global initializer, or in a
//     function one calls, names that global or a later one;
//   - "one stage of identifiers": a chain of identifiers needs two
//     stages to be worth fusing; one with a range or a promoting leaf
//     saves a temporary from its first.
//
// Nested stages of a proven chain are consumed by it and not tried
// again; a declined root's operands are tried in turn.
package vet

import (
	"maps"

	"repro/internal/ast"
	"repro/internal/matrix"
	"repro/internal/sem"
	"repro/internal/types"
)

// Facts is the proven-facts side table computed once per checked
// program and cached content-addressed by the driver.
type Facts struct {
	plans map[ast.Expr]*WithPlan // by with-loop, or by chain root
}

// PlanAt returns the flat plan proven for e, a with-loop or a chain
// root, or nil.
func (f *Facts) PlanAt(e ast.Expr) *WithPlan {
	if f == nil {
		return nil
	}
	return f.plans[e]
}

// ComputeFacts proves fusion-legality facts over a checked program.
// Safe on partially-checked programs (missing type info simply proves
// nothing).
func ComputeFacts(prog *ast.Program, info *sem.Info) *Facts {
	return computeFacts(prog, info, nil)
}

// computeFacts is ComputeFacts, listing every site it tries in sites
// when sites is not nil.
func computeFacts(prog *ast.Program, info *sem.Info, sites *[]WithSite) *Facts {
	f := &Facts{plans: map[ast.Expr]*WithPlan{}}
	if prog == nil || info == nil {
		return f
	}
	ff := &factFinder{info: info, facts: f, sites: sites}
	// A global initializer runs before its global and the later ones are
	// bound, and so does every function it calls: unbound holds them
	// while such code is walked, and nil otherwise. In a function, a
	// local named like one of them is declined too: the finder keeps no
	// scopes.
	var globals []string
	for _, d := range prog.Decls {
		if g, ok := d.(*ast.GlobalVarDecl); ok {
			globals = append(globals, g.Name)
		}
	}
	var first map[string]int
	if len(globals) > 0 {
		first = firstCallers(prog)
	}
	unbound := func(from int) map[string]bool {
		m := map[string]bool{}
		for _, name := range globals[from:] {
			m[name] = true
		}
		return m
	}
	gi := 0
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			ff.unbound = nil
			if from, ok := first[d.Name]; ok {
				ff.unbound = unbound(from)
			}
			ff.stmt(d.Body)
		case *ast.GlobalVarDecl:
			ff.unbound = unbound(gi)
			ff.expr(d.Init)
			gi++
		}
	}
	return f
}

// firstCallers maps every function a global initializer calls, directly
// or through other functions, to the index of the first such global.
func firstCallers(prog *ast.Program) map[string]int {
	first := map[string]int{}
	callees := map[string]map[string]bool{}
	gi := 0
	for _, d := range prog.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			fx := newEffects()
			stmtEffects(fn.Body, fx)
			callees[fn.Name] = fx.callees
		}
	}
	for _, d := range prog.Decls {
		g, ok := d.(*ast.GlobalVarDecl)
		if !ok {
			continue
		}
		fx := newEffects()
		exprEffects(g.Init, fx)
		for work := fx.callees; len(work) > 0; {
			next := map[string]bool{}
			for name := range work {
				if _, seen := first[name]; !seen {
					first[name] = gi
					maps.Copy(next, callees[name])
				}
			}
			work = next
		}
		gi++
	}
	return first
}

type factFinder struct {
	info    *sem.Info
	facts   *Facts
	sites   *[]WithSite     // WithSites' list, nil for ComputeFacts
	unbound map[string]bool // in a global initializer, the globals not bound yet
}

func (ff *factFinder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.Stmts {
			ff.stmt(st)
		}
	case *ast.DeclStmt:
		ff.expr(s.Init)
	case *ast.AssignStmt:
		for _, l := range s.LHS {
			ff.expr(l)
		}
		ff.expr(s.RHS)
	case *ast.IfStmt:
		ff.expr(s.Cond)
		ff.stmt(s.Then)
		ff.stmt(s.Else)
	case *ast.WhileStmt:
		ff.expr(s.Cond)
		ff.stmt(s.Body)
	case *ast.ForStmt:
		ff.stmt(s.Init)
		ff.expr(s.Cond)
		ff.stmt(s.Body)
		ff.stmt(s.Post)
	case *ast.ReturnStmt:
		ff.expr(s.Value)
	case *ast.ExprStmt:
		ff.expr(s.X)
	case *ast.SpawnStmt:
		ff.expr(s.Call)
	}
}

// expr records the maximal fusable chain rooted at x, or recurses into
// subexpressions looking for nested roots.
func (ff *factFinder) expr(x ast.Expr) {
	if x == nil {
		return
	}
	if b, ok := x.(*ast.BinaryExpr); ok && ff.chain(b) {
		// Leaves of a proven chain hold no further chains: they are
		// identifiers and literals by construction.
		return
	}
	switch x := x.(type) {
	case *ast.UnaryExpr:
		ff.expr(x.X)
	case *ast.BinaryExpr:
		ff.expr(x.L)
		ff.expr(x.R)
	case *ast.CastExpr:
		ff.expr(x.X)
	case *ast.CallExpr:
		for _, a := range x.Args {
			ff.expr(a)
		}
	case *ast.IndexExpr:
		ff.expr(x.X)
		for _, a := range x.Args {
			switch a := a.(type) {
			case *ast.IdxScalar:
				ff.expr(a.X)
			case *ast.IdxRange:
				ff.expr(a.Lo)
				ff.expr(a.Hi)
			}
		}
	case *ast.RangeExpr:
		ff.expr(x.Lo)
		ff.expr(x.Hi)
	case *ast.TupleExpr:
		for _, el := range x.Elems {
			ff.expr(el)
		}
	case *ast.WithLoop:
		ff.withLoop(x)
	case *ast.MatrixMap:
		ff.expr(x.Arg)
		for _, d := range x.Dims {
			ff.expr(d)
		}
	case *ast.InitExpr:
		for _, d := range x.Dims {
			ff.expr(d)
		}
	}
}

// withLoop records the facts of a with-loop: its bounds' and body's,
// then its own plan (kept out of expr, whose frame every node pays for).
func (ff *factFinder) withLoop(x *ast.WithLoop) {
	for _, b := range x.Lower {
		ff.expr(b)
	}
	for _, b := range x.Upper {
		ff.expr(b)
	}
	switch op := x.Op.(type) {
	case *ast.GenArrayOp:
		for _, sx := range op.Shape {
			ff.expr(sx)
		}
		ff.expr(op.Body)
	case *ast.FoldOp:
		ff.expr(op.Init)
		ff.expr(op.Body)
	}
	// Bodies and bounds keep their own facts (a nested with-loop
	// inside a non-flat body can still get its own plan).
	p, why := proveWith(ff.info, x, ff.unbound)
	ff.record(x, p, why)
}

// chain tries the matrix-typed binary expression x as a chain root and
// reports whether it is one.
func (ff *factFinder) chain(x *ast.BinaryExpr) bool {
	if t := ff.info.TypeOf(x); t == nil || t.Kind != types.Matrix {
		return false
	}
	p, why := proveChain(ff.info, x, ff.unbound)
	return ff.record(x, p, why)
}

// record enters a site's plan in the table, and the site in the list
// when there is one; it reports whether the site has a plan.
func (ff *factFinder) record(x ast.Expr, p *WithPlan, why WithDecline) bool {
	if p != nil {
		ff.facts.plans[x] = p
	}
	if ff.sites != nil {
		*ff.sites = append(*ff.sites, WithSite{At: x, Plan: p, Decline: why})
	}
	return p != nil
}

// proveChain writes the elementwise expression tree rooted at root as a
// rank-1 plan, or says which rule of the package comment it breaks.
func proveChain(info *sem.Info, root *ast.BinaryExpr, unbound map[string]bool) (*WithPlan, WithDecline) {
	b := newBuilder(info, unbound)
	t := info.TypeOf(root)
	if t.Elem == nil || (t.Elem.Kind != types.Float && t.Elem.Kind != types.Int) {
		return nil, WithDecline{Rule: "chain element type", Span: root.Span()}
	}
	float := t.Elem.Kind == types.Float
	b.plan.Rank, b.plan.Float, b.plan.OutFloat = 1, float, float
	if !b.stage(root) {
		return nil, b.why
	}
	if len(b.plan.Nodes) < 2 && !b.lifted {
		return nil, WithDecline{Rule: "one stage of identifiers", Span: root.Span()}
	}
	return b.plan, WithDecline{}
}

// stage appends the plan of one operand of a chain — a leaf, or an
// interior node after its operands' (post-order) — or declines it.
func (b *withBuilder) stage(x ast.Expr) bool {
	t := b.info.TypeOf(x)
	float := b.plan.Float
	switch {
	case t == nil:
	case t.Kind == types.Int || t.Kind == types.Float:
		if t.Kind == types.Float && !float {
			return b.decline(x, "float scalar on an int chain")
		}
		// An int scalar on a float chain converts before the loop, like
		// the one BroadcastExec binds to its program's float slot: free.
		switch x := x.(type) {
		case *ast.IntLit:
			b.emit(pick(float, matrix.WithInstr{Op: matrix.WPushFloat, F: float64(x.Value)}, matrix.WithInstr{Op: matrix.WPushInt, K: x.Value}))
		case *ast.FloatLit:
			b.emit(matrix.WithInstr{Op: matrix.WPushFloat, F: x.Value})
		case *ast.Ident:
			s, ok := b.leaf(x, pick(float, &b.plan.ScalarF, &b.plan.ScalarI))
			b.emit(matrix.WithInstr{Op: pick(float, matrix.WPushScalarF, matrix.WPushScalarI), A: s})
			return ok
		default:
			return b.decline(x, "")
		}
		return true
	case t.Kind == types.Matrix:
		if t.Elem == nil || t.Elem.Kind != types.Int && (t.Elem.Kind != types.Float || !float) {
			return b.decline(x, "leaf element type")
		}
		promote := float && t.Elem.Kind == types.Int
		switch x := x.(type) {
		case *ast.Ident:
			s, ok := b.mat(x, pick(float && !promote, matrix.Float, matrix.Int))
			if !ok {
				return false
			}
			b.emit(matrix.WithInstr{Op: matrix.WPushID})
			b.emit(matrix.WithInstr{Op: pick(float && !promote, matrix.WLoadF, matrix.WLoadI), A: s, B: 1})
		case *ast.RangeExpr:
			lo, ok := b.bound(x.Lo)
			hi, ok2 := b.bound(x.Hi)
			if !ok || !ok2 {
				return false
			}
			b.emit(matrix.WithInstr{Op: matrix.WPushID})
			b.emit(matrix.WithInstr{Op: matrix.WPushScalarI, A: lo, B: hi})
			b.emit(matrix.WithInstr{Op: matrix.WAddI})
			b.plan.Nodes = append(b.plan.Nodes, x)
			b.lifted = true
		case *ast.BinaryExpr:
			if promote {
				return b.decline(x, "int stage on a float chain")
			}
			op, ok := b.stageOp(x)
			if !ok || !b.stage(x.L) || !b.stage(x.R) {
				return false
			}
			b.emit(matrix.WithInstr{Op: op})
			b.plan.Nodes = append(b.plan.Nodes, x)
			return true
		default:
			return b.decline(x, "")
		}
		if promote {
			b.emit(matrix.WithInstr{Op: matrix.WI2F})
			b.lifted = true
		}
		return true
	}
	return b.decline(x, "operand type")
}

// bound interns a range leaf's bound, read before the loop with nothing
// observed: an int literal or a scalar int identifier.
func (b *withBuilder) bound(x ast.Expr) (int32, bool) {
	switch x.(type) {
	case *ast.IntLit, *ast.Ident:
		if b.kindOf(x) == types.Int {
			return b.leaf(x, &b.plan.ScalarI)
		}
	}
	return 0, b.decline(x, "range bound")
}

// stageOp maps a matrix-typed binary node's operator to the plan's, or
// declines it (see the package comment for the rationale per operator).
func (b *withBuilder) stageOp(x *ast.BinaryExpr) (matrix.WithOp, bool) {
	op := x.Op
	switch op {
	case ast.OpElemMul:
		op = ast.OpMul
	case ast.OpMul:
		// Matrix * matrix is matmul; only scalar scaling is elementwise.
		if (b.kindOf(x.L) == types.Invalid) == (b.kindOf(x.R) == types.Invalid) {
			return 0, b.decline(x, "matrix product")
		}
	case ast.OpDiv:
		if !b.plan.Float {
			return 0, b.decline(x, "int division")
		}
	}
	ops, ok := arith[op]
	if !ok {
		return 0, b.decline(x, "stage operator")
	}
	return ops[pick(b.plan.Float, 1, 0)], true
}

// pick is a when c holds, else b.
func pick[T any](c bool, a, b T) T {
	if c {
		return a
	}
	return b
}
