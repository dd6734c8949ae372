// With-loop compilation proofs — the second Facts family. A
// genarray/fold body that is an effect-free scalar index expression is
// written here in the flat postfix plan language of matrix.WithInstr;
// the VM has matrix.CompileWith turn the plan into a strip program,
// resolves the leaf names against its registers and runs the loop
// through matrix.GenArrayFlat/FoldFlat instead of a per-element closure.
//
// The plan language:
//
//	ids, int and float literals, int and float scalar identifiers
//	+ - * and negation on both types; float /
//	int / and int % by a non-zero integer literal (c or -c)
//	(int) and (float) casts
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
// per element mid-loop), comparisons and logicals (bool bodies), calls
// (effects, recursion), `end` (needs the enclosing indexing context),
// nested genarrays (matrix values), a nested min/max fold of an int
// body from a float base (the boxed accumulator keeps the winner's
// dynamic type), transform clauses, and any leaf that is not a plain
// identifier or literal. A float-typed `/` is total (IEEE), so it is
// allowed on float bodies. A nested fold keeps a plan of its own as
// well: it is what runs when the outer loop stays on the closure path.
package vet

import (
	"maps"

	"repro/internal/ast"
	"repro/internal/matrix"
	"repro/internal/sem"
	"repro/internal/types"
)

// WithPlan is a proven flat-compilable with-loop body. Leaves are
// recorded by name; the VM resolves them against local registers at
// compile time (globals decline — a racy global rebind must keep
// closure semantics) and re-verifies elements at run time.
type WithPlan struct {
	Fold    bool
	Kind    matrix.FoldKind // Fold only
	Code    []matrix.WithInstr
	Mats    []string      // matrix leaf names, by WLoad* slot
	MatElem []matrix.Elem // proven element type per matrix leaf
	ScalarI []string      // int scalar leaf names, by WPushScalarI slot
	ScalarF []string      // float scalar leaf names, by WPushScalarF slot
	Float   bool          // body's static type is float
}

// WithAt returns the flat plan proven for w, or nil.
func (f *Facts) WithAt(w *ast.WithLoop) *WithPlan {
	if f == nil {
		return nil
	}
	return f.withs[w]
}

// WithCount reports how many with-loops were proven flat-compilable.
func (f *Facts) WithCount() int {
	if f == nil {
		return 0
	}
	return len(f.withs)
}

// proveWith compiles w's body to a flat plan, or returns nil if any
// part of it falls outside the flat language.
func proveWith(info *sem.Info, w *ast.WithLoop) *WithPlan {
	if len(w.Transforms) != 0 || len(w.Ids) == 0 ||
		len(w.Lower) != len(w.Ids) || len(w.Upper) != len(w.Ids) {
		return nil
	}
	b := &withBuilder{
		info:  info,
		ids:   map[string]int{},
		plan:  &WithPlan{},
		mats:  map[string]int{},
		sInts: map[string]int{},
		sFlts: map[string]int{},
	}
	for k, name := range w.Ids {
		b.ids[name] = k // a repeated name shadows: the last binding wins
	}
	b.nids, b.strip = len(w.Ids), len(w.Ids)-1
	var body ast.Expr
	switch op := w.Op.(type) {
	case *ast.GenArrayOp:
		body = op.Body
	case *ast.FoldOp:
		body = op.Body
		b.plan.Fold = true
		var ok bool
		if b.plan.Kind, ok = foldKindOf(op.Kind); !ok {
			return nil
		}
	default:
		return nil
	}
	k, ok := b.build(body)
	if !ok {
		return nil
	}
	b.plan.Float = k == types.Float
	return b.plan
}

// foldKindOf maps the parsed fold operator to the engines'.
func foldKindOf(k ast.FoldKind) (matrix.FoldKind, bool) {
	switch k {
	case ast.FoldAdd:
		return matrix.FoldAdd, true
	case ast.FoldMul:
		return matrix.FoldMul, true
	case ast.FoldMin:
		return matrix.FoldMin, true
	case ast.FoldMax:
		return matrix.FoldMax, true
	}
	return 0, false
}

type withBuilder struct {
	info  *sem.Info
	ids   map[string]int // generated ids in scope, by name
	nids  int            // how many: a nested fold numbers its ids on from here
	strip int            // the loop's innermost id: nested fold bounds must not vary along it
	plan  *WithPlan
	mats  map[string]int
	sInts map[string]int
	sFlts map[string]int
}

func (b *withBuilder) emit(in matrix.WithInstr) {
	b.plan.Code = append(b.plan.Code, in)
}

// kindOf returns the checker's scalar kind for e (Invalid when e is
// untyped or not a scalar).
func (b *withBuilder) kindOf(e ast.Expr) types.Kind {
	t := b.info.TypeOf(e)
	if t == nil || (t.Kind != types.Int && t.Kind != types.Float) {
		return types.Invalid
	}
	return t.Kind
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
	case *ast.Ident:
		if k, ok := b.ids[e.Name]; ok {
			b.emit(matrix.WithInstr{Op: matrix.WPushID, A: int32(k)})
			return types.Int, true
		}
		switch b.kindOf(e) {
		case types.Int:
			b.emit(matrix.WithInstr{Op: matrix.WPushScalarI, A: int32(b.slot(b.sInts, &b.plan.ScalarI, e.Name))})
			return types.Int, true
		case types.Float:
			b.emit(matrix.WithInstr{Op: matrix.WPushScalarF, A: int32(b.slot(b.sFlts, &b.plan.ScalarF, e.Name))})
			return types.Float, true
		}
		return 0, false
	case *ast.UnaryExpr:
		if e.Op != ast.OpNeg {
			return 0, false
		}
		k, ok := b.build(e.X)
		if !ok {
			return 0, false
		}
		if k == types.Float {
			b.emit(matrix.WithInstr{Op: matrix.WNegF})
		} else {
			b.emit(matrix.WithInstr{Op: matrix.WNegI})
		}
		return k, true
	case *ast.CastExpr:
		k, ok := b.build(e.X)
		if !ok {
			return 0, false
		}
		switch {
		case e.To == ast.PrimFloat && k == types.Int:
			b.emit(matrix.WithInstr{Op: matrix.WI2F})
			return types.Float, true
		case e.To == ast.PrimFloat && k == types.Float:
			return types.Float, true
		case e.To == ast.PrimInt && k == types.Float:
			b.emit(matrix.WithInstr{Op: matrix.WF2I})
			return types.Int, true
		case e.To == ast.PrimInt && k == types.Int:
			return types.Int, true
		}
		return 0, false
	case *ast.BinaryExpr:
		return b.binary(e)
	case *ast.IndexExpr:
		return b.load(e)
	case *ast.WithLoop:
		return b.nestedFold(e)
	}
	return 0, false
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
	return ok && k == types.Int
}

// byLiteral compiles l / c or l % c over ints, with buildInt or index
// compiling l. A zero or non-literal divisor is outside the language:
// it traps per element on the closure path.
func (b *withBuilder) byLiteral(e *ast.BinaryExpr, left func(ast.Expr) bool) bool {
	c, ok := intLiteral(e.R)
	if !ok || c == 0 || b.kindOf(e.L) != types.Int || !left(e.L) {
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
	if !ok || len(w.Transforms) != 0 || len(w.Ids) == 0 ||
		len(w.Lower) != len(w.Ids) || len(w.Upper) != len(w.Ids) {
		return 0, false
	}
	kind, ok := foldKindOf(op.Kind)
	if !ok {
		return 0, false
	}
	// The fold's static type is float when base or body is; the engines
	// promote an int base up front and an int body per element, which is
	// exact for + and * but not for min/max over a float base.
	bodyK := b.kindOf(op.Body)
	res := b.kindOf(w)
	if bodyK == types.Invalid || res == types.Invalid ||
		(res == types.Float && bodyK == types.Int && (kind == matrix.FoldMin || kind == matrix.FoldMax)) {
		return 0, false
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
	gotK, ok := b.build(op.Body)
	b.nids -= len(w.Ids)
	b.ids = outer
	if !ok || gotK != bodyK {
		return 0, false
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
	return b.kindOf(e) == types.Int && !b.usesStrip(e) && b.index(e)
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
			return 0, false
		}
		return types.Int, b.byLiteral(e, b.buildInt)
	default:
		return 0, false
	}
	// Promotion sites must be known before the right operand's code is
	// emitted (the int value to convert would otherwise be buried under
	// it on the wrong stack), so kinds come from the checker up front.
	lk, rk := b.kindOf(e.L), b.kindOf(e.R)
	if lk == types.Invalid || rk == types.Invalid {
		return 0, false
	}
	res := types.Int
	if lk == types.Float || rk == types.Float {
		res = types.Float
	}
	if e.Op == ast.OpDiv && res != types.Float {
		return types.Int, b.byLiteral(e, b.buildInt)
	}
	gotL, ok := b.build(e.L)
	if !ok || gotL != lk {
		return 0, false
	}
	if lk == types.Int && res == types.Float {
		b.emit(matrix.WithInstr{Op: matrix.WI2F})
	}
	gotR, ok := b.build(e.R)
	if !ok || gotR != rk {
		return 0, false
	}
	if rk == types.Int && res == types.Float {
		b.emit(matrix.WithInstr{Op: matrix.WI2F})
	}
	var op matrix.WithOp
	switch e.Op {
	case ast.OpAdd:
		if res == types.Float {
			op = matrix.WAddF
		} else {
			op = matrix.WAddI
		}
	case ast.OpSub:
		if res == types.Float {
			op = matrix.WSubF
		} else {
			op = matrix.WSubI
		}
	case ast.OpMul:
		if res == types.Float {
			op = matrix.WMulF
		} else {
			op = matrix.WMulI
		}
	case ast.OpDiv:
		op = matrix.WDivF
	}
	b.emit(matrix.WithInstr{Op: op})
	return res, true
}

// load compiles a matrix element access m[i, j, ...]: a plain matrix
// identifier (not AnyMatrix — the element type must be pinned), every
// index a scalar int expression from the restricted index language.
func (b *withBuilder) load(e *ast.IndexExpr) (types.Kind, bool) {
	id, ok := e.X.(*ast.Ident)
	if !ok {
		return 0, false
	}
	if _, isID := b.ids[id.Name]; isID {
		return 0, false
	}
	t := b.info.TypeOf(id)
	if t == nil || t.Kind != types.Matrix || t.Elem == nil || t.Rank != len(e.Args) {
		return 0, false
	}
	var elem matrix.Elem
	switch t.Elem.Kind {
	case types.Int:
		elem = matrix.Int
	case types.Float:
		elem = matrix.Float
	default:
		return 0, false
	}
	if len(e.Args) == 0 {
		return 0, false
	}
	// Index language first (no partial emission on failure matters: a
	// failed plan is discarded whole).
	for _, a := range e.Args {
		s, ok := a.(*ast.IdxScalar)
		if !ok || !b.index(s.X) {
			return 0, false
		}
	}
	slot := b.slot(b.mats, &b.plan.Mats, id.Name)
	for len(b.plan.MatElem) <= slot {
		b.plan.MatElem = append(b.plan.MatElem, elem)
	}
	if b.plan.MatElem[slot] != elem {
		return 0, false
	}
	var op matrix.WithOp
	k := types.Int
	if elem == matrix.Float {
		op = matrix.WLoadF
		k = types.Float
	} else {
		op = matrix.WLoadI
	}
	b.emit(matrix.WithInstr{Op: op, A: int32(slot), B: int32(len(e.Args))})
	return k, true
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
			b.emit(matrix.WithInstr{Op: matrix.WPushScalarI, A: int32(b.slot(b.sInts, &b.plan.ScalarI, e.Name))})
			return true
		}
		return false
	case *ast.UnaryExpr:
		if e.Op != ast.OpNeg || !b.index(e.X) {
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
			return b.kindOf(e) == types.Int && b.byLiteral(e, b.index)
		default:
			return false
		}
		if b.kindOf(e) != types.Int || !b.index(e.L) || !b.index(e.R) {
			return false
		}
		b.emit(matrix.WithInstr{Op: op})
		return true
	}
	return false
}

// slot interns a leaf name into its slot list.
func (b *withBuilder) slot(m map[string]int, names *[]string, name string) int {
	if s, ok := m[name]; ok {
		return s
	}
	s := len(*names)
	m[name] = s
	*names = append(*names, name)
	return s
}
