// The vet checker: a forward abstract interpretation over the checked
// AST. Each variable carries a vstate (scalar constant fact, per-
// dimension shape facts, definite-assignment bit, rc may/must-released
// bits); if/else clones and joins the environment, loops are widened
// by a syntactic pre-scan of the body's assignments and releases
// before a single body pass.
package vet

import (
	"fmt"
	"strconv"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/types"
)

// maxRank caps the rank for which per-dimension facts are tracked, so
// fuzzed programs declaring absurd ranks cannot make vet allocate
// proportionally. Beyond the cap shapes are simply unknown.
const maxRank = 64

// --- dimension/scalar facts ---

type factKind uint8

const (
	fUnknown factKind = iota
	fConst            // value/extent is the compile-time constant c
	fSym              // unknown but equal to every other fact with this sym
)

type fact struct {
	kind factKind
	c    int64
	sym  int
}

func constFact(c int64) fact { return fact{kind: fConst, c: c} }

// factsConflict reports whether two facts are provably different.
func factsConflict(a, b fact) bool {
	return a.kind == fConst && b.kind == fConst && a.c != b.c
}

// joinFact is the lattice join: keep a fact only if both sides agree.
func joinFact(a, b fact) fact {
	if a.kind == fConst && b.kind == fConst && a.c == b.c {
		return a
	}
	if a.kind == fSym && b.kind == fSym && a.sym == b.sym {
		return a
	}
	return fact{}
}

// mergeFact refines two facts known to describe the same value (e.g.
// the two operands of an elementwise op): prefer the more precise one.
func mergeFact(a, b fact) fact {
	if a.kind == fConst {
		return a
	}
	if b.kind == fConst {
		return b
	}
	if a.kind == fSym {
		return a
	}
	return b
}

func factStr(f fact) string {
	if f.kind == fConst {
		return strconv.FormatInt(f.c, 10)
	}
	return "?"
}

func joinDims(a, b []fact) []fact {
	if len(a) != len(b) {
		return nil
	}
	out := make([]fact, len(a))
	for i := range a {
		out[i] = joinFact(a[i], b[i])
	}
	return out
}

// --- per-variable state ---

// declInfo is the per-declaration record, shared by every vstate (and
// every branch clone) referring to the same declaration. It
// accumulates whole-lifetime facts: was the variable ever read, was a
// use-before-assign already reported, and the rc release state merged
// over every point where the variable's scope ends.
type declInfo struct {
	name        string
	node        ast.Node
	ty          *types.Type
	global      bool
	used        bool
	ubaReported bool

	rcSeen    bool // lifetime-end state merged at least once
	rcMayAcc  bool // released on at least one lifetime-ending path
	rcMustAcc bool // released on every lifetime-ending path
	rcSite    source.Span
}

// vstate is the abstract value of one variable on one path.
type vstate struct {
	ty       *types.Type
	decl     *declInfo // nil for parameters and with-loop ids
	global   bool
	assigned bool
	fact     fact   // scalar constant fact (ints only)
	dims     []fact // per-dimension extents when ty is a matrix
	rcMay    bool   // may have been rcreleased on this path
	rcMust   bool   // definitely rcreleased on this path
	rcSite   source.Span
}

type env map[string]*vstate

func (e env) clone() env {
	out := make(env, len(e))
	for k, v := range e {
		c := *v
		c.dims = append([]fact(nil), v.dims...)
		out[k] = &c
	}
	return out
}

func joinStates(a, b *vstate) *vstate {
	out := *a
	out.assigned = a.assigned && b.assigned
	out.fact = joinFact(a.fact, b.fact)
	out.dims = joinDims(a.dims, b.dims)
	out.rcMay = a.rcMay || b.rcMay
	out.rcMust = a.rcMust && b.rcMust
	if !out.rcSite.Start.IsValid() {
		out.rcSite = b.rcSite
	}
	return &out
}

// exprVal is the abstract value of an expression.
type exprVal struct {
	fact   fact
	dims   []fact
	rcMay  bool
	rcMust bool
	rcSite source.Span
}

// --- the checker ---

type globalBind struct {
	name string
	ty   *types.Type
	di   *declInfo
}

type checker struct {
	info    *sem.Info
	diags   []source.Diagnostic
	decls   []*declInfo
	globals []*globalBind
	nextSym int
	endDims []fact // 'end' binding stack, one per nested index argument
}

func (c *checker) freshFact() fact {
	c.nextSym++
	return fact{kind: fSym, sym: c.nextSym}
}

func (c *checker) freshDims(n int) []fact {
	if n <= 0 || n > maxRank {
		return nil
	}
	out := make([]fact, n)
	for i := range out {
		out[i] = c.freshFact()
	}
	return out
}

func unknownDims(n int) []fact {
	if n <= 0 || n > maxRank {
		return nil
	}
	return make([]fact, n)
}

func typeOf(te ast.TypeExpr) *types.Type {
	if te == nil {
		return types.InvalidT
	}
	return types.MustFrom(te)
}

func isMatrixT(t *types.Type) bool { return t != nil && t.Kind == types.Matrix }
func isRcT(t *types.Type) bool     { return t != nil && t.Kind == types.RcPtr }

func (c *checker) report(code string, sev source.Severity, n ast.Node, rel []source.Related, format string, args ...any) {
	if n == nil {
		return
	}
	sp := n.Span()
	if !sp.Start.IsValid() {
		return
	}
	if !sp.End.IsValid() || sp.End.Offset < sp.Start.Offset {
		sp.End = sp.Start
	}
	var related []source.Related
	for _, r := range rel {
		if r.Span.Start.IsValid() {
			related = append(related, r)
		}
	}
	c.diags = append(c.diags, source.Diagnostic{
		Code:     code,
		Severity: sev,
		Span:     sp,
		Message:  fmt.Sprintf(format, args...),
		Related:  related,
	})
}

func releasedHere(site source.Span) []source.Related {
	if !site.Start.IsValid() {
		return nil
	}
	return []source.Related{{Span: site, Message: "released here"}}
}

// --- program / function level ---

func (c *checker) program(prog *ast.Program) {
	// Global initializers are analyzed once, in declaration order, with
	// earlier globals' facts visible to later initializers.
	ge := env{}
	for _, d := range prog.Decls {
		g, ok := d.(*ast.GlobalVarDecl)
		if !ok {
			continue
		}
		var val exprVal
		if g.Init != nil {
			val = c.expr(g.Init, ge)
		}
		ty := c.info.GlobalTypes[g.Name]
		if ty == nil {
			ty = typeOf(g.Type)
		}
		di := &declInfo{name: g.Name, node: g, ty: ty, global: true}
		c.decls = append(c.decls, di)
		c.globals = append(c.globals, &globalBind{name: g.Name, ty: ty, di: di})
		st := &vstate{ty: ty, decl: di, global: true, assigned: true}
		if isMatrixT(ty) {
			if g.Init != nil && len(val.dims) == ty.Rank {
				st.dims = val.dims
			} else {
				st.dims = c.freshDims(ty.Rank)
			}
		}
		if g.Init != nil {
			st.fact = val.fact
		}
		ge[g.Name] = st
	}

	for _, d := range prog.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		c.function(fn)
	}

	for _, di := range c.decls {
		if di.used {
			continue
		}
		kind := "variable"
		if di.global {
			kind = "global variable"
		}
		c.report(CodeUnusedVar, source.Warning, di.node, nil, "%s %q declared but never used", kind, di.name)
	}
	for _, di := range c.decls {
		if di.global || !isRcT(di.ty) || !di.rcSeen {
			continue
		}
		if di.rcMayAcc && !di.rcMustAcc {
			c.report(CodeRCLeak, source.Warning, di.node, releasedHere(di.rcSite),
				"refcounted pointer %q is released on some paths but not on all of them", di.name)
		}
	}
}

func (c *checker) function(fn *ast.FuncDecl) {
	e := env{}
	// Globals enter every function with unknown values: any call chain
	// may have mutated them since initialization.
	for _, g := range c.globals {
		st := &vstate{ty: g.ty, decl: g.di, global: true, assigned: true}
		if isMatrixT(g.ty) {
			st.dims = c.freshDims(g.ty.Rank)
		}
		e[g.name] = st
	}
	for _, p := range fn.Params {
		if p == nil || p.Name == "" {
			continue
		}
		ty := typeOf(p.Type)
		st := &vstate{ty: ty, assigned: true}
		if isMatrixT(ty) {
			st.dims = c.freshDims(ty.Rank)
		}
		e[p.Name] = st
	}

	reach := c.stmt(fn.Body, e)
	if reach {
		var ret *types.Type
		if sig := c.info.Funcs[fn.Name]; sig != nil && sig.Type != nil {
			ret = sig.Type.Ret
		} else {
			ret = typeOf(fn.Ret)
		}
		if ret != nil && ret.Kind != types.Void && ret.Kind != types.Invalid {
			c.report(CodeMissingReturn, source.Warning, fn, nil,
				"function %q may reach the end of its body without returning a value", fn.Name)
		}
	}
}

// mergeRcExit folds a variable's path state into its declaration's
// lifetime accumulator. Called wherever the variable's scope can end:
// at each return statement and when its block is popped.
func (c *checker) mergeRcExit(st *vstate) {
	di := st.decl
	if di == nil || di.global || !isRcT(di.ty) {
		return
	}
	if !di.rcSeen {
		di.rcSeen = true
		di.rcMustAcc = true
	}
	di.rcMayAcc = di.rcMayAcc || st.rcMay
	di.rcMustAcc = di.rcMustAcc && st.rcMust
	if st.rcSite.Start.IsValid() {
		di.rcSite = st.rcSite
	}
}

// --- statements ---

// stmt analyzes one statement and reports whether the statement can
// complete normally (i.e. the following statement is reachable).
func (c *checker) stmt(s ast.Stmt, e env) bool {
	switch s := s.(type) {
	case nil:
		return true

	case *ast.BlockStmt:
		return c.block(s, e)

	case *ast.DeclStmt:
		c.declStmt(s, e)
		return true

	case *ast.AssignStmt:
		c.assignStmt(s, e)
		return true

	case *ast.IfStmt:
		return c.ifStmt(s, e)

	case *ast.WhileStmt:
		c.expr(s.Cond, e)
		c.widenLoop(e, s.Body, nil)
		be := e.clone()
		c.stmt(s.Body, be)
		if isConstTrue(s.Cond) && !hasLoopBreak(s.Body) {
			return false // while(true) without break never completes
		}
		return true

	case *ast.ForStmt:
		var initDecl *ast.DeclStmt
		var prev *vstate
		var had bool
		if d, ok := s.Init.(*ast.DeclStmt); ok {
			initDecl = d
			prev, had = e[d.Name]
		}
		c.stmt(s.Init, e)
		if s.Cond != nil {
			c.expr(s.Cond, e)
		}
		c.widenLoop(e, s.Body, s.Post)
		be := e.clone()
		if c.stmt(s.Body, be) {
			c.stmt(s.Post, be)
		}
		infinite := s.Cond == nil || isConstTrue(s.Cond)
		if initDecl != nil {
			if st, ok := e[initDecl.Name]; ok {
				c.mergeRcExit(st)
			}
			if had {
				e[initDecl.Name] = prev
			} else {
				delete(e, initDecl.Name)
			}
		}
		return !(infinite && !hasLoopBreak(s.Body))

	case *ast.ReturnStmt:
		if s.Value != nil {
			c.expr(s.Value, e)
		}
		for _, name := range sortedKeys(e) {
			c.mergeRcExit(e[name])
		}
		return false

	case *ast.BreakStmt, *ast.ContinueStmt:
		return false

	case *ast.ExprStmt:
		c.expr(s.X, e)
		return true

	case *ast.SpawnStmt:
		c.expr(s.Call, e)
		if s.Target != "" {
			if st, ok := e[s.Target]; ok {
				st.assigned = true
				st.fact = fact{}
				if isMatrixT(st.ty) {
					st.dims = c.freshDims(st.ty.Rank)
				}
			}
		}
		return true

	case *ast.SyncStmt:
		return true
	}
	return true
}

func (c *checker) block(b *ast.BlockStmt, e env) bool {
	type saved struct {
		name string
		prev *vstate
		had  bool
	}
	var scope []saved
	reach := true
	for _, st := range b.Stmts {
		if !reach {
			c.report(CodeUnreachable, source.Warning, st, nil, "unreachable code")
			break
		}
		if d, ok := st.(*ast.DeclStmt); ok {
			prev, had := e[d.Name]
			scope = append(scope, saved{d.Name, prev, had})
		}
		reach = c.stmt(st, e)
	}
	for i := len(scope) - 1; i >= 0; i-- {
		sv := scope[i]
		if cur, ok := e[sv.name]; ok {
			c.mergeRcExit(cur)
		}
		if sv.had {
			e[sv.name] = sv.prev
		} else {
			delete(e, sv.name)
		}
	}
	return reach
}

func (c *checker) declStmt(d *ast.DeclStmt, e env) {
	var val exprVal
	if d.Init != nil {
		val = c.expr(d.Init, e)
	}
	ty := typeOf(d.Type)
	di := &declInfo{name: d.Name, node: d, ty: ty}
	c.decls = append(c.decls, di)
	st := &vstate{ty: ty, decl: di}
	if d.Init != nil {
		st.assigned = true
		st.fact = val.fact
		if isMatrixT(ty) {
			if len(val.dims) == ty.Rank {
				st.dims = val.dims
			} else {
				st.dims = c.freshDims(ty.Rank)
			}
		}
		st.rcMay, st.rcMust, st.rcSite = val.rcMay, val.rcMust, val.rcSite
	}
	e[d.Name] = st
}

func (c *checker) assignStmt(s *ast.AssignStmt, e env) {
	val := c.expr(s.RHS, e)
	single := len(s.LHS) == 1
	for _, lhs := range s.LHS {
		switch t := lhs.(type) {
		case *ast.Ident:
			st, ok := e[t.Name]
			if !ok {
				// Undeclared (sem reports it) — bind loosely so later
				// reads don't cascade.
				e[t.Name] = &vstate{ty: c.info.TypeOf(t), assigned: true}
				continue
			}
			st.assigned = true
			if single {
				st.fact = val.fact
				if isMatrixT(st.ty) {
					if len(val.dims) == st.ty.Rank {
						st.dims = val.dims
					} else {
						st.dims = c.freshDims(st.ty.Rank)
					}
				} else {
					st.dims = nil
				}
				st.rcMay, st.rcMust, st.rcSite = val.rcMay, val.rcMust, val.rcSite
			} else {
				// Tuple destructuring: element values are opaque.
				st.fact = fact{}
				if isMatrixT(st.ty) {
					st.dims = c.freshDims(st.ty.Rank)
				}
				st.rcMay, st.rcMust = false, false
			}
		case *ast.IndexExpr:
			c.indexedStore(t, val, e)
		default:
			c.expr(lhs, e)
		}
	}
}

// indexedStore analyzes m[...] = rhs: the index arguments are checked
// exactly as on the read side, then a sliced store's extents are
// compared against the RHS's.
func (c *checker) indexedStore(ix *ast.IndexExpr, val exprVal, e env) {
	lv := c.indexExpr(ix, e)
	if len(lv.dims) > 0 && len(val.dims) == len(lv.dims) {
		for i := range lv.dims {
			if factsConflict(lv.dims[i], val.dims[i]) {
				c.report(CodeShapeMismatch, source.Error, ix, nil,
					"cannot store a slice of length %s into a destination of length %s (dimension %d)",
					factStr(val.dims[i]), factStr(lv.dims[i]), i)
			}
		}
	}
}

func (c *checker) ifStmt(s *ast.IfStmt, e env) bool {
	c.expr(s.Cond, e)
	et := e.clone()
	rt := c.stmt(s.Then, et)
	ee := e.clone()
	re := true
	if s.Else != nil {
		re = c.stmt(s.Else, ee)
	}
	switch {
	case rt && re:
		for name := range e {
			a, okA := et[name]
			b, okB := ee[name]
			if okA && okB {
				e[name] = joinStates(a, b)
			}
		}
	case rt:
		copyEnv(e, et)
	case re:
		copyEnv(e, ee)
	default:
		copyEnv(e, et) // both branches terminate; state is dead anyway
	}
	return rt || re
}

// copyEnv overwrites dst's entries with src's states for dst's keys.
func copyEnv(dst, src env) {
	for name := range dst {
		if st, ok := src[name]; ok {
			dst[name] = st
		}
	}
}

// isConstTrue reports whether a loop condition is the literal true (or
// a nonzero int literal).
func isConstTrue(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.BoolLit:
		return x.Value
	case *ast.IntLit:
		return x.Value != 0
	}
	return false
}
