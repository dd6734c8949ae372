// vet.Facts — proven program facts exported for consumers outside the
// diagnostics pipeline. The first (and so far only) fact family is
// fusion legality: chained elementwise matrix expressions whose every
// stage is effect-free, whose intermediates are provably unaliased
// (kernel results are fresh allocations and never observable), and
// whose per-stage semantics are total after admission, so the VM may
// execute the whole chain as one loop with block-local temporaries
// instead of materializing a full matrix per stage (the paper's
// §III-A.4 "no extraneous copy" fusion).
//
// Legality is deliberately strict so the fused loop can replay the
// unfused engine's observable behavior exactly — same error, same
// error site, same allocation-budget consumption:
//
//   - stage ops: .+ .- .* always; * only with a scalar operand
//     (matrix*matrix is matmul); / only on float chains (int division
//     can trap per element mid-loop); never %, comparisons or logical
//     ops (comparisons change the element type, % traps);
//   - every interior stage has the chain's element type exactly; a
//     matrix leaf has it too or — a promoting leaf — is int on a float
//     chain: WI2F follows its load, and nothing is charged for it, as
//     the unfused kernels make no copy of it either (matrix/fuse.go);
//   - matrix leaves are plain identifiers of concrete matrix type
//     (binding-time coercion pins the runtime element type; AnyMatrix
//     readMatrix results are excluded) or range literals whose bounds
//     are int literals or scalar int identifiers; scalar leaves are
//     literals or scalar identifiers — no calls, no indexing, nothing
//     that could observe or modify state mid-expression. A range leaf
//     is the cell's id plus lo: no vector is built, and admission
//     admits, at the leaf's place in the post-order, the one the unfused
//     engine would have;
//   - float scalar leaves only on float chains (an int chain with a
//     float scalar promotes).
//
// A chain of identifiers needs two stages to be worth fusing, one with
// a range or a promoting leaf saves a temporary from its first; nested
// stages of a recorded chain are consumed by it and not re-recorded.
package vet

import (
	"repro/internal/ast"
	"repro/internal/matrix"
	"repro/internal/sem"
	"repro/internal/types"
)

// ChainLeaf is one runtime leaf of a chain: a matrix identifier, loaded
// by the plan's next WLoad* slot, or a scalar, pushed by its next
// WPushScalar* slot of the file Int names. On a float chain an int
// matrix is a promoting leaf, an int scalar identifier takes a float
// slot (the VM converts it once, before the loop), and the int slots are
// the bounds of range leaves, lo then hi. Literal scalar leaves are
// constants of the plan.
type ChainLeaf struct {
	X      ast.Expr // an identifier, or a range bound: identifier or int literal
	Scalar bool
	Int    bool // the slot, or the matrix's cells, are int
}

// Chain is a maximal fusable elementwise expression tree, written as
// the rank-1 plan the strip engine runs: every matrix leaf loaded at id
// 0, a range leaf as id 0 plus its lo, WI2F after an int leaf of a float
// chain, one arithmetic instruction per stage, in post-order (the last
// is the root). Admission replays the same plan.
type Chain struct {
	Elem   types.Kind // element type of every stage: Float or Int
	Code   []matrix.WithInstr
	Leaves []ChainLeaf // in tree evaluation order, which is slot order
	Nodes  []ast.Node  // per admission, in plan order: a range leaf's RangeExpr, a stage's BinaryExpr — error spans anchor here

	lifted bool // holds a range or a promoting leaf
}

// Facts is the proven-facts side table computed once per checked
// program and cached content-addressed by the driver.
type Facts struct {
	chains map[ast.Expr]*Chain
	withs  map[*ast.WithLoop]*WithPlan
}

// ChainAt returns the fusable chain rooted at e, or nil.
func (f *Facts) ChainAt(e ast.Expr) *Chain {
	if f == nil {
		return nil
	}
	return f.chains[e]
}

// ChainCount reports how many fusable chains were proven.
func (f *Facts) ChainCount() int {
	if f == nil {
		return 0
	}
	return len(f.chains)
}

// ComputeFacts proves fusion-legality facts over a checked program.
// Safe on partially-checked programs (missing type info simply proves
// nothing).
func ComputeFacts(prog *ast.Program, info *sem.Info) *Facts {
	return computeFacts(prog, info, nil)
}

// computeFacts is ComputeFacts, listing every with-loop it meets in sites
// when sites is not nil.
func computeFacts(prog *ast.Program, info *sem.Info, sites *[]WithSite) *Facts {
	f := &Facts{chains: map[ast.Expr]*Chain{}, withs: map[*ast.WithLoop]*WithPlan{}}
	if prog == nil || info == nil {
		return f
	}
	ff := &factFinder{info: info, facts: f, sites: sites}
	// A global initializer runs before its global and the later ones are
	// bound: unbound holds them while it is walked, and nil otherwise.
	unbound := map[string]bool{}
	for _, d := range prog.Decls {
		if g, ok := d.(*ast.GlobalVarDecl); ok {
			unbound[g.Name] = true
		}
	}
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			ff.unbound = nil
			ff.stmt(d.Body)
		case *ast.GlobalVarDecl:
			ff.unbound = unbound
			ff.expr(d.Init)
			delete(unbound, d.Name)
		}
	}
	return f
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
	if b, ok := x.(*ast.BinaryExpr); ok {
		if c := ff.buildChain(b); c != nil {
			ff.facts.chains[x] = c
			// Leaves of a recorded chain hold no further chains:
			// they are identifiers and literals by construction.
			return
		}
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
	wp, why := proveWith(ff.info, x, ff.unbound)
	if wp != nil {
		ff.facts.withs[x] = wp
	}
	if ff.sites != nil {
		*ff.sites = append(*ff.sites, WithSite{Loop: x, Plan: wp, Decline: why})
	}
}

// buildChain proves the expression tree rooted at root fusable and
// writes its plan, or returns nil.
func (ff *factFinder) buildChain(root *ast.BinaryExpr) *Chain {
	t := ff.info.TypeOf(root)
	if t == nil || t.Kind != types.Matrix || t.Elem == nil {
		return nil
	}
	elem := t.Elem.Kind
	if elem != types.Float && elem != types.Int {
		return nil
	}
	c := &Chain{Elem: elem}
	if !ff.stage(c, root) || (len(c.Nodes) < 2 && !c.lifted) {
		return nil
	}
	return c
}

// slot counts the chain's leaves of one kind so far: the next one's slot.
// Matrix slots are one sequence whatever their cells.
func (c *Chain) slot(scalar, int bool) int32 {
	n := int32(0)
	for _, l := range c.Leaves {
		if l.Scalar == scalar && (!scalar || l.Int == int) {
			n++
		}
	}
	return n
}

// stage appends the plan of one operand — a leaf, or an interior node
// after its operands' (post-order) — or reports it unfusable.
func (ff *factFinder) stage(c *Chain, x ast.Expr) bool {
	t := ff.info.TypeOf(x)
	if t == nil {
		return false
	}
	float := c.Elem == types.Float
	switch t.Kind {
	case types.Int, types.Float:
		if t.Kind == types.Float && !float {
			return false // float scalar promotes an int chain
		}
		// An int scalar on a float chain converts before the loop, like
		// the one BroadcastExec binds to its program's float slot: free.
		switch x := x.(type) {
		case *ast.IntLit:
			if float {
				c.Code = append(c.Code, matrix.WithInstr{Op: matrix.WPushFloat, F: float64(x.Value)})
			} else {
				c.Code = append(c.Code, matrix.WithInstr{Op: matrix.WPushInt, K: x.Value})
			}
		case *ast.FloatLit:
			c.Code = append(c.Code, matrix.WithInstr{Op: matrix.WPushFloat, F: x.Value})
		case *ast.Ident:
			c.Code = append(c.Code, matrix.WithInstr{Op: pick(float, matrix.WPushScalarF, matrix.WPushScalarI), A: c.slot(true, !float)})
			c.Leaves = append(c.Leaves, ChainLeaf{X: x, Scalar: true, Int: !float})
		default:
			return false
		}
		return true

	case types.Matrix:
		if t.Elem == nil || (t.Elem.Kind != c.Elem && t.Elem.Kind != types.Int) {
			return false
		}
		promote := t.Elem.Kind != c.Elem
		switch x := x.(type) {
		case *ast.Ident:
			c.Code = append(c.Code, matrix.WithInstr{Op: matrix.WPushID},
				matrix.WithInstr{Op: pick(float && !promote, matrix.WLoadF, matrix.WLoadI), A: c.slot(false, false), B: 1})
			c.Leaves = append(c.Leaves, ChainLeaf{X: x, Int: t.Elem.Kind == types.Int})
		case *ast.RangeExpr:
			if !ff.rangeBound(x.Lo) || !ff.rangeBound(x.Hi) {
				return false
			}
			c.Code = append(c.Code, matrix.WithInstr{Op: matrix.WPushID},
				matrix.WithInstr{Op: matrix.WPushScalarI, A: c.slot(true, true)}, matrix.WithInstr{Op: matrix.WAddI})
			c.Leaves = append(c.Leaves, ChainLeaf{X: x.Lo, Scalar: true, Int: true}, ChainLeaf{X: x.Hi, Scalar: true, Int: true})
			c.Nodes = append(c.Nodes, x)
			c.lifted = true
		case *ast.BinaryExpr:
			op, ok := ff.stageOp(x, float)
			if !ok || promote || !ff.stage(c, x.L) || !ff.stage(c, x.R) {
				return false
			}
			c.Code = append(c.Code, matrix.WithInstr{Op: op})
			c.Nodes = append(c.Nodes, x)
			return true
		default:
			return false
		}
		if promote {
			c.Code = append(c.Code, matrix.WithInstr{Op: matrix.WI2F})
			c.lifted = true
		}
		return true
	}
	return false
}

// rangeBound reports whether a range leaf's bound can be read before the
// loop with nothing observed: an int literal or a scalar int identifier.
func (ff *factFinder) rangeBound(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.IntLit:
		return true
	case *ast.Ident:
		t := ff.info.TypeOf(x)
		return t != nil && t.Kind == types.Int
	}
	return false
}

// stageOp maps a matrix-typed binary node's operator to the plan's, or
// reports it unfusable (see the package comment for the rationale per
// operator).
func (ff *factFinder) stageOp(x *ast.BinaryExpr, float bool) (matrix.WithOp, bool) {
	switch x.Op {
	case ast.OpAdd:
		return pick(float, matrix.WAddF, matrix.WAddI), true
	case ast.OpSub:
		return pick(float, matrix.WSubF, matrix.WSubI), true
	case ast.OpElemMul:
		return pick(float, matrix.WMulF, matrix.WMulI), true
	case ast.OpMul:
		// Matrix * matrix is matmul; only scalar scaling is elementwise.
		lt, rt := ff.info.TypeOf(x.L), ff.info.TypeOf(x.R)
		lScalar := lt != nil && (lt.Kind == types.Int || lt.Kind == types.Float)
		rScalar := rt != nil && (rt.Kind == types.Int || rt.Kind == types.Float)
		return pick(float, matrix.WMulF, matrix.WMulI), lScalar != rScalar
	case ast.OpDiv:
		// Int division traps per element; only float chains fuse it.
		return matrix.WDivF, float
	}
	return 0, false
}

// pick is a when c holds, else b.
func pick[T any](c bool, a, b T) T {
	if c {
		return a
	}
	return b
}
