// With-loop compilation proofs, and the plan every Facts entry is. A
// genarray/fold body that is an effect-free scalar index expression is
// written here in the flat postfix plan language of matrix.WithInstr (a
// fused chain, facts.go, in the same language by the same builder);
// the VM has matrix.CompileWith turn the plan into a strip program,
// binds the leaves — a local's register, or a global read once at loop
// entry — and runs the loop through matrix.GenArrayFlat/FoldFlat
// instead of a per-element closure. What is decided here is not decided
// again: the VM compiles flat every site proven here and no other.
//
// The plan language:
//
//	ids, int and float literals, int and float scalar identifiers
//	+ - * and negation on both types; float /
//	int / and int % by a non-zero integer literal (c or -c)
//	(int) and (float) casts, of a bool too
//	== != < <= > >= (promoted as scalarOp promotes), && || ! and bool
//	  literals: a bool is a 0/1 mask on the int stack; both sides of
//	  && and || are evaluated, being pure and trap-free
//	a call of a pure scalar function, emitted in place (inline.go), an
//	  if in it a select: both arms evaluated, blended by the mask
//	m[e1, ..., ek] for a matrix identifier m of pinned element type and
//	  rank k, every index an int expression of the index language: ids,
//	  int literals, int scalar identifiers, + - * negation, / and % by a
//	  literal
//	with ([l...] <= [ids] < [u...]) fold(op, base, body) nested in a
//	  body: bounds in the index language and not mentioning the
//	  enclosing loop's innermost id, base and body in the plan language
//	  (the body may use the fold's own ids), emitted as a
//	  WFoldI/WFoldF ... WFoldEnd bracket of the outer plan
//
// Legality is strict for the same reason chain fusion is: the flat
// engine must replay the closure engine's observables exactly, and the
// plan language has no failure paths. Excluded on principle: `%` and
// int `/` by anything but a non-zero literal (the closure path traps
// per element mid-loop), bool bodies (bool cells), calls the inliner
// cannot prove pure, `end` (needs the enclosing indexing context),
// nested genarrays (matrix values), a genarray whose shape does not
// have one extent an id (admission fails), a leaf in a global
// initializer, or in a function one calls, naming a global not bound
// yet (the closure path fails "undeclared" at the first cell), and any
// leaf that is not a plain identifier or literal. Transform clauses are
// no reason: only the C back end applies them, and every engine here
// computes what the untransformed loop does. A float-typed `/` is total
// (IEEE), so it is allowed on float bodies. A nested fold keeps a plan
// of its own as well: it is what runs when the outer loop stays on the
// closure path.
package vet

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/types"
)

// WithPlan is a proven flat plan: a with-loop's body, or a chain (see
// facts.go). Leaves are the identifiers — and a chain range's int
// literal bounds — each slot reads, at its first use; the VM binds each
// before the loop, in slot order: a local's register, a global loaded
// then, after the bounds, the shape and the base, an int literal, or
// an int scalar promoted into a float slot (a chain's). The body cannot
// rebind a global (it is pure), so only a spawned task could between
// two cells: a determinacy race, which cmvet reports.
type WithPlan struct {
	Fold     bool
	Kind     matrix.FoldKind // Fold only
	Rank     int             // the loop's generated ids; a chain's is 1
	Code     []matrix.WithInstr
	Mats     []ast.Expr    // matrix leaves, by WLoad* slot
	MatElem  []matrix.Elem // proven element type per matrix leaf
	ScalarI  []ast.Expr    // int scalar leaves, by WPushScalarI slot
	ScalarF  []ast.Expr    // float scalar leaves, by WPushScalarF slot
	Float    bool          // body's static type is float
	OutFloat bool          // the cells written, or the fold's accumulator, are float
	Inline   int           // frames the deepest call emitted in place opens below the loop's: enclosing nested folds + calls nested; 0: none
	Nodes    []ast.Node    // a chain's admissions in plan order — a range leaf's RangeExpr, a stage's BinaryExpr — where its errors anchor; nil for a with-loop
}

// Spec is the plan as the strip compiler takes it.
func (p *WithPlan) Spec() matrix.WithSpec {
	return matrix.WithSpec{Code: p.Code, Rank: p.Rank, MatElem: p.MatElem, ScalarI: len(p.ScalarI),
		ScalarF: len(p.ScalarF), Float: p.Float, OutFloat: p.OutFloat}
}

// WithDecline is why a site has no flat plan: the first rule of the plan
// language it breaks, and the node that breaks it.
type WithDecline struct {
	Rule string
	Span source.Span
}

// WithSite is one site ComputeFacts tries — a with-loop, or a chain
// root — and what it proves of it: a plan, or the decline (Rule "" when
// Plan is set).
type WithSite struct {
	At      ast.Expr
	Plan    *WithPlan
	Decline WithDecline
}

// WithSites lists every site of a checked program, a with-loop after
// the loops in it and a chain root before the roots it declines: the
// explain pass (ComputeFacts, whose table is cached, keeps no list).
func WithSites(prog *ast.Program, info *sem.Info) []WithSite {
	var sites []WithSite
	computeFacts(prog, info, &sites)
	return sites
}

// proveWith compiles w's body to a flat plan, or says which rule of the
// flat language it breaks. unbound holds the globals not bound yet where
// w runs: in a global initializer, or a function one calls, that global's
// and the later ones'.
func proveWith(info *sem.Info, w *ast.WithLoop, unbound map[string]bool) (*WithPlan, WithDecline) {
	b := newBuilder(info, unbound)
	if !b.generator(w) {
		return nil, b.why
	}
	for k, name := range w.Ids {
		b.ids[name] = k // a repeated name shadows: the last binding wins
	}
	b.nids, b.strip = len(w.Ids), len(w.Ids)-1
	b.plan.Rank = len(w.Ids)
	t := info.TypeOf(w)
	var body ast.Expr
	switch op := w.Op.(type) {
	case *ast.GenArrayOp:
		if len(op.Shape) != len(w.Ids) {
			return nil, WithDecline{Rule: "shape arity", Span: op.Span()}
		}
		body = op.Body
		b.plan.OutFloat = t != nil && t.Elem != nil && t.Elem.Kind == types.Float
	case *ast.FoldOp:
		body = op.Body
		b.plan.Fold = true
		b.plan.OutFloat = scalarKind(t) == types.Float
		var ok bool
		if b.plan.Kind, ok = interp.FoldKindOf(op.Kind); !ok && !b.decline(op, "fold operator") {
			return nil, b.why
		}
	default:
		return nil, WithDecline{Rule: "with-loop operation", Span: w.Span()}
	}
	k, ok := b.build(body)
	if !ok || (k == types.Bool && !b.decline(body, "bool body")) {
		return nil, b.why
	}
	b.plan.Float = k == types.Float
	return b.plan, WithDecline{}
}

// generator checks the loop's own shape: one bound a generated id a side.
func (b *withBuilder) generator(w *ast.WithLoop) bool {
	if len(w.Ids) == 0 || len(w.Lower) != len(w.Ids) || len(w.Upper) != len(w.Ids) {
		return b.decline(w, "generator arity")
	}
	return true
}

type withBuilder struct {
	info    *sem.Info
	unbound map[string]bool // globals a global initializer cannot read yet
	ids     map[string]int  // generated ids in scope, by name
	nids    int             // how many: a nested fold numbers its ids on from here
	strip   int             // the loop's innermost id: nested fold bounds must not vary along it
	plan    *WithPlan
	why     WithDecline // the first rule broken
	env     *inlined    // the callee being emitted, nil in the body itself
	folds   int         // nested folds enclosing the node being built: each opens a frame a cell on the closure path
	lifted  bool        // a chain holds a range or a promoting leaf
}

func newBuilder(info *sem.Info, unbound map[string]bool) *withBuilder {
	return &withBuilder{info: info, unbound: unbound, ids: map[string]int{}, plan: &WithPlan{}}
}

func (b *withBuilder) emit(in matrix.WithInstr) {
	b.plan.Code = append(b.plan.Code, in)
}

// decline records the rule n breaks, unless a deeper node already
// recorded one, and reports failure. An empty rule names the form of n,
// an expression the plan language has no place for.
func (b *withBuilder) decline(n ast.Node, rule string) bool {
	if b.why.Rule != "" {
		return false
	}
	if rule == "" {
		rule = "expression " + strings.TrimPrefix(fmt.Sprintf("%T", n), "*ast.")
	}
	b.why = WithDecline{Rule: rule, Span: n.Span()}
	return false
}

// kindOf returns the checker's scalar kind for e (Invalid when e is
// untyped or not a scalar).
func (b *withBuilder) kindOf(e ast.Expr) types.Kind {
	return scalarKind(b.info.TypeOf(e))
}

// build compiles e, returning its scalar kind. The emitted code's
// value is bit-identical to tree evaluation of e: promotions are
// emitted exactly where scalarOp would promote, casts truncate the
// same way, and operand order is preserved.
func (b *withBuilder) build(e ast.Expr) (types.Kind, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		b.emit(matrix.WithInstr{Op: matrix.WPushInt, K: e.Value})
		return types.Int, true
	case *ast.FloatLit:
		b.emit(matrix.WithInstr{Op: matrix.WPushFloat, F: e.Value})
		return types.Float, true
	case *ast.BoolLit:
		b.emit(matrix.WithInstr{Op: matrix.WPushInt, K: pick[int64](e.Value, 1, 0)})
		return types.Bool, true
	case *ast.Ident:
		if k, ok := b.ids[e.Name]; ok {
			b.emit(matrix.WithInstr{Op: matrix.WPushID, A: int32(k)})
			return types.Int, true
		}
		if b.env != nil {
			return b.param(e)
		}
		switch b.kindOf(e) {
		case types.Int:
			s, ok := b.leaf(e, &b.plan.ScalarI)
			b.emit(matrix.WithInstr{Op: matrix.WPushScalarI, A: s})
			return types.Int, ok
		case types.Float:
			s, ok := b.leaf(e, &b.plan.ScalarF)
			b.emit(matrix.WithInstr{Op: matrix.WPushScalarF, A: s})
			return types.Float, ok
		}
		return 0, b.decline(e, "identifier not an int or float scalar")
	case *ast.UnaryExpr:
		if e.Op == ast.OpNot {
			if !b.mask(e.X) {
				return 0, false
			}
			b.emit(matrix.WithInstr{Op: matrix.WPushInt})
			b.emit(matrix.WithInstr{Op: matrix.WCmpI, A: int32(matrix.OpEq)})
			return types.Bool, true
		}
		k, ok := b.build(e.X)
		if !ok || k == types.Bool {
			return 0, ok && b.decline(e, "negated bool")
		}
		b.emit(matrix.WithInstr{Op: pick(k == types.Float, matrix.WNegF, matrix.WNegI)})
		return k, true
	case *ast.CastExpr:
		k, ok := b.build(e.X)
		if !ok {
			return 0, false
		}
		// A mask is already the (int) of its bool.
		switch e.To {
		case ast.PrimFloat:
			if k != types.Float {
				b.emit(matrix.WithInstr{Op: matrix.WI2F})
			}
			return types.Float, true
		case ast.PrimInt:
			if k == types.Float {
				b.emit(matrix.WithInstr{Op: matrix.WF2I})
			}
			return types.Int, true
		}
		return 0, b.decline(e, "cast to bool")
	case *ast.BinaryExpr:
		return b.binary(e)
	case *ast.IndexExpr:
		return b.load(e)
	case *ast.CallExpr:
		return b.call(e)
	case *ast.WithLoop:
		if b.env != nil {
			return 0, b.decline(e, "with-loop in a callee")
		}
		return b.nestedFold(e)
	}
	return 0, b.decline(e, "")
}

// mask compiles a condition: e must come out a bool.
func (b *withBuilder) mask(e ast.Expr) bool {
	k, ok := b.build(e)
	return ok && (k == types.Bool || b.decline(e, "condition not a bool"))
}

// intLiteral matches the divisors `%` and int `/` may take: c or -c.
func intLiteral(e ast.Expr) (int64, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, true
	case *ast.UnaryExpr:
		if lit, ok := e.X.(*ast.IntLit); ok && e.Op == ast.OpNeg {
			return -lit.Value, true
		}
	}
	return 0, false
}

// buildInt compiles e, which must come out int.
func (b *withBuilder) buildInt(e ast.Expr) bool {
	k, ok := b.build(e)
	return ok && (k == types.Int || b.decline(e, "operand not int"))
}

// byLiteral compiles l / c or l % c over ints, with buildInt or index
// compiling l. A zero or non-literal divisor is outside the language:
// it traps per element on the closure path.
func (b *withBuilder) byLiteral(e *ast.BinaryExpr, left func(ast.Expr) bool) bool {
	c, ok := intLiteral(e.R)
	switch {
	case !ok || c == 0:
		return b.decline(e.R, "divisor not a non-zero literal")
	case b.kindOf(e.L) != types.Int:
		return b.decline(e.L, "operand not int")
	case !left(e.L):
		return false
	}
	op := matrix.WDivI
	if e.Op == ast.OpMod {
		op = matrix.WModI
	}
	b.emit(matrix.WithInstr{Op: op, K: c})
	return true
}

// nestedFold compiles a fold nested in a body as a bracket of the
// enclosing plan: base, then the bounds, then the bracketed body. The
// fold's ids are numbered after those in scope and shadow them by name
// inside the body only.
func (b *withBuilder) nestedFold(w *ast.WithLoop) (types.Kind, bool) {
	op, ok := w.Op.(*ast.FoldOp)
	if !ok {
		return 0, b.decline(w, "nested genarray")
	}
	if !b.generator(w) {
		return 0, false
	}
	kind, ok := interp.FoldKindOf(op.Kind)
	if !ok {
		return 0, b.decline(op, "fold operator")
	}
	// The fold's static type is float when base or body is: an int base
	// is promoted up front and an int body per element, under every kind.
	bodyK := b.kindOf(op.Body)
	res := b.kindOf(w)
	if bodyK == types.Invalid || res == types.Invalid {
		return 0, b.decline(op.Body, "nested fold not int or float")
	}
	baseK, ok := b.build(op.Init)
	if !ok {
		return 0, false
	}
	if baseK == types.Int && res == types.Float {
		b.emit(matrix.WithInstr{Op: matrix.WI2F})
	}
	for k := range w.Ids {
		if !b.uniformIndex(w.Lower[k]) || !b.uniformIndex(w.Upper[k]) {
			return 0, false
		}
	}
	begin := len(b.plan.Code)
	open := matrix.WithInstr{Op: matrix.WFoldI, A: int32(len(w.Ids)), B: int32(b.nids), Kind: kind}
	if res == types.Float {
		open.Op = matrix.WFoldF
	}
	b.emit(open)
	outer := b.ids
	b.ids = maps.Clone(outer)
	for k, name := range w.Ids {
		b.ids[name] = b.nids + k
	}
	b.nids += len(w.Ids)
	b.folds++
	gotK, ok := b.build(op.Body)
	b.folds--
	b.nids -= len(w.Ids)
	b.ids = outer
	if !ok || gotK != bodyK {
		return 0, ok && b.decline(op.Body, "kind differs from the checker's")
	}
	if bodyK == types.Int && res == types.Float {
		b.emit(matrix.WithInstr{Op: matrix.WI2F})
	}
	b.plan.Code[begin].K = int64(len(b.plan.Code))
	b.emit(matrix.WithInstr{Op: matrix.WFoldEnd, A: int32(begin)})
	return res, true
}

// uniformIndex compiles a nested fold bound: an index expression that
// is the same for every cell along the enclosing loop's innermost id,
// so a strip of cells runs its inner trips in lockstep.
func (b *withBuilder) uniformIndex(e ast.Expr) bool {
	switch {
	case b.kindOf(e) != types.Int:
		return b.decline(e, "nested fold bound not int")
	case b.usesStrip(e):
		return b.decline(e, "nested fold bound varies along the strip")
	}
	return b.index(e)
}

// usesStrip reports whether an index-language expression mentions the
// loop's innermost id.
func (b *withBuilder) usesStrip(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		k, ok := b.ids[e.Name]
		return ok && k == b.strip
	case *ast.UnaryExpr:
		return b.usesStrip(e.X)
	case *ast.BinaryExpr:
		return b.usesStrip(e.L) || b.usesStrip(e.R)
	}
	return false
}

func (b *withBuilder) binary(e *ast.BinaryExpr) (types.Kind, bool) {
	switch e.Op {
	case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv:
	case ast.OpMod:
		if b.kindOf(e) != types.Int {
			return 0, b.decline(e, "float %")
		}
		return types.Int, b.byLiteral(e, b.buildInt)
	case ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
		return b.compare(e)
	case ast.OpAnd, ast.OpOr:
		if !b.mask(e.L) || !b.mask(e.R) {
			return 0, false
		}
		// Over masks a && b is a * b, and a || b is a + b != 0.
		if e.Op == ast.OpAnd {
			b.emit(matrix.WithInstr{Op: matrix.WMulI})
		} else {
			b.emit(matrix.WithInstr{Op: matrix.WAddI})
			b.emit(matrix.WithInstr{Op: matrix.WPushInt})
			b.emit(matrix.WithInstr{Op: matrix.WCmpI, A: int32(matrix.OpNe)})
		}
		return types.Bool, true
	default:
		return 0, b.decline(e, "operator .*")
	}
	lk, rk := b.kindOf(e.L), b.kindOf(e.R)
	if lk == types.Invalid || rk == types.Invalid {
		return 0, b.decline(e, "operand not an int or float scalar")
	}
	float := lk == types.Float || rk == types.Float
	if e.Op == ast.OpDiv && !float {
		return types.Int, b.byLiteral(e, b.buildInt)
	}
	if !b.promoted(e.L, lk, float) || !b.promoted(e.R, rk, float) {
		return 0, false
	}
	b.emit(matrix.WithInstr{Op: arith[e.Op][pick(float, 1, 0)]})
	return pick(float, types.Float, types.Int), true
}

// arith is the plan opcode of an arithmetic operator: int, then float.
var arith = map[ast.BinOp][2]matrix.WithOp{
	ast.OpAdd: {matrix.WAddI, matrix.WAddF}, ast.OpSub: {matrix.WSubI, matrix.WSubF},
	ast.OpMul: {matrix.WMulI, matrix.WMulF}, ast.OpDiv: {matrix.WDivF, matrix.WDivF},
}

// promoted compiles an operand of the checker's kind k, converted to
// float when the operation is: where scalarOp promotes. The kinds come
// from the checker up front because the conversion must follow the
// operand's own code, before the other operand's is emitted.
func (b *withBuilder) promoted(e ast.Expr, k types.Kind, float bool) bool {
	got, ok := b.build(e)
	if !ok || got != k {
		return ok && b.decline(e, "kind differs from the checker's")
	}
	if k == types.Int && float {
		b.emit(matrix.WithInstr{Op: matrix.WI2F})
	}
	return true
}

// compare compiles a comparison to a mask: int against int compares
// ints, any other numeric pair floats with the int side promoted.
func (b *withBuilder) compare(e *ast.BinaryExpr) (types.Kind, bool) {
	lk, rk := b.kindOf(e.L), b.kindOf(e.R)
	if lk == types.Invalid || rk == types.Invalid {
		return 0, b.decline(e, "operand not an int or float scalar")
	}
	float := lk == types.Float || rk == types.Float
	if !b.promoted(e.L, lk, float) || !b.promoted(e.R, rk, float) {
		return 0, false
	}
	// ast's comparisons and matrix's are declared in the same order.
	b.emit(matrix.WithInstr{Op: pick(float, matrix.WCmpF, matrix.WCmpI), A: int32(matrix.OpEq + matrix.Op(e.Op-ast.OpEq))})
	return types.Bool, true
}

// load compiles a matrix element access m[i, j, ...]: a plain matrix
// identifier (not AnyMatrix — the element type must be pinned), every
// index a scalar int expression from the restricted index language.
func (b *withBuilder) load(e *ast.IndexExpr) (types.Kind, bool) {
	id, ok := e.X.(*ast.Ident)
	if !ok {
		return 0, b.decline(e.X, "indexed base not an identifier")
	}
	if b.env != nil {
		return 0, b.decline(id, "callee reads a global") // its parameters are scalars
	}
	if _, isID := b.ids[id.Name]; isID {
		return 0, b.decline(id, "indexed base is a generated id")
	}
	t := b.info.TypeOf(id)
	if t == nil || t.Kind != types.Matrix || t.Elem == nil || t.Rank != len(e.Args) {
		return 0, b.decline(e, "load not one cell of a typed matrix")
	}
	var elem matrix.Elem
	switch t.Elem.Kind {
	case types.Int:
		elem = matrix.Int
	case types.Float:
		elem = matrix.Float
	default:
		return 0, b.decline(e, "load of a bool matrix")
	}
	if len(e.Args) == 0 {
		return 0, b.decline(e, "load not one cell of a typed matrix")
	}
	// Index language first (no partial emission on failure matters: a
	// failed plan is discarded whole).
	for _, a := range e.Args {
		s, ok := a.(*ast.IdxScalar)
		if !ok {
			return 0, b.decline(a, "index not a scalar")
		}
		if !b.index(s.X) {
			return 0, false
		}
	}
	s, ok := b.mat(id, elem)
	if !ok {
		return 0, false
	}
	float := elem == matrix.Float
	b.emit(matrix.WithInstr{Op: pick(float, matrix.WLoadF, matrix.WLoadI), A: s, B: int32(len(e.Args))})
	return pick(float, types.Float, types.Int), true
}

// index compiles one index subexpression: ids, int literals, int
// scalar identifiers, +, -, *, negation, and / and % by a literal — the
// language the flat engine's interval analysis can bound.
func (b *withBuilder) index(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.IntLit:
		b.emit(matrix.WithInstr{Op: matrix.WPushInt, K: e.Value})
		return true
	case *ast.Ident:
		if k, ok := b.ids[e.Name]; ok {
			b.emit(matrix.WithInstr{Op: matrix.WPushID, A: int32(k)})
			return true
		}
		if b.kindOf(e) == types.Int {
			s, ok := b.leaf(e, &b.plan.ScalarI)
			b.emit(matrix.WithInstr{Op: matrix.WPushScalarI, A: s})
			return ok
		}
		return b.decline(e, "index identifier not an int scalar")
	case *ast.UnaryExpr:
		if e.Op != ast.OpNeg {
			return b.decline(e, "index outside the index language")
		}
		if !b.index(e.X) {
			return false
		}
		b.emit(matrix.WithInstr{Op: matrix.WNegI})
		return true
	case *ast.BinaryExpr:
		var op matrix.WithOp
		switch e.Op {
		case ast.OpAdd:
			op = matrix.WAddI
		case ast.OpSub:
			op = matrix.WSubI
		case ast.OpMul:
			op = matrix.WMulI
		case ast.OpDiv, ast.OpMod:
			if b.kindOf(e) != types.Int {
				return b.decline(e, "index outside the index language")
			}
			return b.byLiteral(e, b.index)
		default:
			return b.decline(e, "index outside the index language")
		}
		if b.kindOf(e) != types.Int {
			return b.decline(e, "index outside the index language")
		}
		if !b.index(e.L) || !b.index(e.R) {
			return false
		}
		b.emit(matrix.WithInstr{Op: op})
		return true
	}
	return b.decline(e, "index outside the index language")
}

// leaf interns x — an identifier, or a chain range's int literal bound
// — into a slot list, unless it names a global not bound yet where the
// plan runs.
func (b *withBuilder) leaf(x ast.Expr, slots *[]ast.Expr) (int32, bool) {
	name := ast.ExprString(x)
	if b.unbound[name] {
		return 0, b.decline(x, "global not bound yet")
	}
	s := slices.IndexFunc(*slots, func(l ast.Expr) bool { return ast.ExprString(l) == name })
	if s < 0 {
		s = len(*slots)
		*slots = append(*slots, x)
	}
	return int32(s), true
}

// mat interns a matrix leaf of proven element type elem.
func (b *withBuilder) mat(id *ast.Ident, elem matrix.Elem) (int32, bool) {
	s, ok := b.leaf(id, &b.plan.Mats)
	if ok && int(s) == len(b.plan.MatElem) {
		b.plan.MatElem = append(b.plan.MatElem, elem)
	}
	return s, ok
}
