// The bytecode compiler: lowers a checked AST to Program protos that
// reproduce the tree walker's semantics (evaluation order, error text,
// error position). A bail aborts compilation with an error; every bail
// is an internal-consistency assertion no checked program reaches, and
// the driver reports one as an internal error, never running the
// program another way.
package vm

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/sem"
	"repro/internal/types"
	"repro/internal/vet"
)

// compileError aborts compilation (recovered in Compile).
type compileError struct{ err error }

func bail(format string, args ...any) {
	panic(compileError{fmt.Errorf("vm: "+format, args...)})
}

// Compile lowers a checked program to bytecode. A nil error means the
// compiled Program reproduces the tree walker's observable behavior
// (stdout, traps, exit code, budget accounting) exactly; any construct
// the compiler cannot pin down returns an error instead.
func Compile(prog *ast.Program, info *sem.Info) (p *Program, err error) {
	return CompileWithFacts(prog, info, vet.ComputeFacts(prog, info))
}

// CompileWithFacts is Compile with the vet.Facts side table handed in
// (bench/ times the analysis and the lowering apart). facts may be nil:
// the program compiles without fusion.
func CompileWithFacts(prog *ast.Program, info *sem.Info, facts *vet.Facts) (p *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(compileError)
			if !ok {
				panic(r)
			}
			p, err = nil, ce.err
		}
	}()
	c := &compiler{
		prog:     prog,
		info:     info,
		facts:    facts,
		protoIdx: map[string]int{},
		globIdx:  map[string]int{},
		kInt:     map[int64]int32{},
		kFloat:   map[float64]int32{},
		kStr:     map[string]int32{},
	}
	// Pass 1: assign slots so bodies can reference any function or (in
	// function bodies) any global regardless of declaration order.
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if _, dup := c.protoIdx[d.Name]; dup {
				bail("duplicate function %q", d.Name)
			}
			c.protoIdx[d.Name] = len(c.protos)
			c.protos = append(c.protos, &proto{name: d.Name, decl: d})
		case *ast.GlobalVarDecl:
			if _, dup := c.globIdx[d.Name]; dup {
				bail("duplicate global %q", d.Name)
			}
			ty, terr := types.FromAST(d.Type)
			if terr != nil {
				// The tree walker diagnoses this before running anything;
				// keep the exact wrapped error as the first ginit op.
				ty = types.InvalidT
			}
			c.globIdx[d.Name] = len(c.globals)
			c.globals = append(c.globals, globalDef{name: d.Name, ty: ty, cl: classOf(ty)})
		}
	}
	// Pass 2: function bodies.
	for _, d := range prog.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			c.compileFunc(c.protoIdx[fd.Name], fd)
		}
	}
	c.compileGinit()
	main := -1
	if sig, ok := info.Funcs["main"]; ok {
		mi, ok := c.protoIdx[sig.Decl.Name]
		if !ok {
			bail("main signature has no compiled proto")
		}
		main = mi
	}
	return &Program{
		prog:       prog,
		info:       info,
		protos:     c.protos,
		consts:     c.consts,
		globals:    c.globals,
		ginit:      c.ginit,
		main:       main,
		fusedSites: c.fusedSites,
		withSites:  c.withSites,
	}, nil
}

type compiler struct {
	prog       *ast.Program
	info       *sem.Info
	facts      *vet.Facts
	fusedSites int
	withSites  int
	protos     []*proto
	protoIdx   map[string]int
	globals    []globalDef
	globIdx    map[string]int
	ginit      *proto

	consts []value
	kInt   map[int64]int32
	kFloat map[float64]int32
	kStr   map[string]int32
}

func (c *compiler) constVal(v value) int32 {
	c.consts = append(c.consts, v)
	return int32(len(c.consts) - 1)
}

func (c *compiler) constInt(n int64) int32 {
	if k, ok := c.kInt[n]; ok {
		return k
	}
	k := c.constVal(value{i: n})
	c.kInt[n] = k
	return k
}

func (c *compiler) constFloat(f float64) int32 {
	if k, ok := c.kFloat[f]; ok {
		return k
	}
	k := c.constVal(value{f: f})
	c.kFloat[f] = k
	return k
}

func (c *compiler) constBoxed(v any) int32 {
	if s, ok := v.(string); ok {
		if k, ok := c.kStr[s]; ok {
			return k
		}
		k := c.constVal(value{r: v})
		c.kStr[s] = k
		return k
	}
	return c.constVal(value{r: v})
}

// varSlot is one compile-time variable binding.
type varSlot struct {
	reg int32
	ty  *types.Type
	cl  class
}

// cscope is one lexical block's bindings; names keeps declaration
// order so capture lists (and therefore compiled programs) are
// deterministic.
type cscope struct {
	parent *cscope
	names  []string
	vars   map[string]varSlot
}

func (s *cscope) bind(name string, slot varSlot) {
	if s.vars == nil {
		s.vars = map[string]varSlot{} // most blocks declare nothing
	}
	if _, ok := s.vars[name]; !ok {
		s.names = append(s.names, name)
	}
	s.vars[name] = slot
}

// fnc compiles one proto.
type fnc struct {
	c       *compiler
	code    []instr
	nreg    int
	scope   *cscope
	refRegs []int32
	// rets is the first of nrets return slots: registers the elements of
	// `return (e1, ..., ek);` are left in (a tuple-returning function's).
	rets, nrets int32
	// keeps counts the frame-local sites and destination calls compiled
	// (see keepFor).
	keeps int32
	// endStack tracks enclosing index dimensions for 'end'.
	endStack []endEntry
	// breaks/continues are per-enclosing-loop patch lists.
	breaks    [][]int
	continues [][]int
	// epilogue collects jumps to the function end (break/continue with
	// no enclosing loop, matching the tree walker's silent unwinding).
	epilogue []int
}

// endEntry is one open index dimension: what an 'end' read inside it
// is computed from (compileExpr's EndExpr case emits the opDimEnd, so a
// dimension nobody reads 'end' in costs nothing).
type endEntry struct {
	base int32 // base matrix R register
	dim  int32
	node ast.Node // the enclosing IndexExpr (error attribution)
}

// dest names the register a consumer wants an expression's value in: a
// scalar variable's own register, so that nothing sits between a
// computed value and the variable it is assigned to (the paper's
// §III-A.4). Only the last instruction of the expression may write it,
// after reading its operands: the variable may be one of them.
type dest struct {
	reg int32 // < 0: none
	cl  class
}

var noDest = dest{reg: -1}

// destOf is the destination an assignment to slot offers. A boxed
// variable offers none: it is rebound, not written (opBindR).
func destOf(slot varSlot) dest {
	if slot.cl == clR {
		return noDest
	}
	return dest{reg: slot.reg, cl: slot.cl}
}

// out is where an instruction producing a value of class cl writes: the
// wanted register when the classes agree, a fresh temporary otherwise.
func (f *fnc) out(d dest, cl class) int32 {
	if d.reg >= 0 && d.cl == cl {
		return d.reg
	}
	return f.reg()
}

func (f *fnc) emit(i instr) int {
	f.code = append(f.code, i)
	return len(f.code) - 1
}

func (f *fnc) reg() int32 {
	r := f.nreg
	f.nreg++
	if r > 1<<20 {
		bail("function needs more than %d registers", 1<<20)
	}
	return int32(r)
}

func (f *fnc) patch(sites []int) {
	to := int32(len(f.code))
	for _, s := range sites {
		f.code[s].c = to
	}
}

func (f *fnc) pushScope() { f.scope = &cscope{parent: f.scope} }
func (f *fnc) popScope()  { f.scope = f.scope.parent }

func (f *fnc) resolve(name string) (varSlot, bool) {
	for s := f.scope; s != nil; s = s.parent {
		if slot, ok := s.vars[name]; ok {
			return slot, true
		}
	}
	return varSlot{}, false
}

// resolveGlobal finds a global by name. Whether it is bound yet where
// it is read or written is the machine's to say (Machine.bound).
func (f *fnc) resolveGlobal(name string) (int, *globalDef, bool) {
	gi, ok := f.c.globIdx[name]
	if !ok {
		return 0, nil, false
	}
	return gi, &f.c.globals[gi], true
}

func (f *fnc) declare(name string, ty *types.Type) varSlot {
	slot := f.newSlot(ty)
	f.scope.bind(name, slot)
	return slot
}

// newSlot allocates a variable's register without binding its name yet:
// a declaration's initializer is compiled into the slot while the name
// still resolves to the enclosing binding (int x = x + 5).
func (f *fnc) newSlot(ty *types.Type) varSlot {
	slot := varSlot{reg: f.reg(), ty: ty, cl: classOf(ty)}
	if slot.cl == clR {
		f.refRegs = append(f.refRegs, slot.reg)
	}
	return slot
}

// compileFunc lowers one function declaration into its pre-assigned
// proto slot.
func (c *compiler) compileFunc(pi int, fd *ast.FuncDecl) {
	sig, ok := c.info.Funcs[fd.Name]
	if !ok || sig.Decl != fd {
		bail("function %q missing from checker info", fd.Name)
	}
	f := &fnc{c: c}
	f.pushScope()
	params := make([]paramDef, len(fd.Params))
	for k, p := range fd.Params {
		ty, err := types.FromAST(p.Type)
		if err != nil {
			// The tree walker re-derives parameter types per call and
			// errors at call time; too exotic to mirror in bytecode.
			bail("parameter %q of %q has an invalid type: %v", p.Name, fd.Name, err)
		}
		slot := f.declare(p.Name, ty)
		params[k] = paramDef{reg: slot.reg, ty: ty, cl: slot.cl}
	}
	if ret := sig.Type.Ret; ret != nil && ret.Kind == types.Tuple {
		f.rets, f.nrets = int32(f.nreg), int32(len(ret.Elems))
		f.nreg += len(ret.Elems)
	}
	f.compileStmt(fd.Body)
	f.patch(f.epilogue)
	pr := c.protos[pi]
	pr.rets = f.rets
	pr.code = fuseAcrossStatements(f.code)
	pr.nregs = f.nreg
	pr.params = params
	pr.refRegs = f.refRegs
	pr.retTy = sig.Type.Ret
	pr.keeps = int(f.keeps)
}

// keepFor numbers the frame's Keep of e when vet proved e a frame-local
// allocation site or a destination call, is keepDest when it proved e a
// return-local site, and is -1 for any other expression.
func (f *fnc) keepFor(e ast.Expr) int32 {
	switch {
	case f.c.facts.FrameLocal(e) || f.c.facts.Destination(e):
		f.keeps++
		return f.keeps - 1
	case f.c.facts.ReturnLocal(e):
		return keepDest
	}
	return -1
}

// compileGinit lowers the global initializers: no step ticks (the tree
// walker's run loop calls evalExpr directly, not execStmt), a pending
// flush after every global, and bind-into-slot semantics identical to
// the tree's global frame.
func (c *compiler) compileGinit() {
	f := &fnc{c: c}
	f.pushScope()
	gi := 0
	for _, d := range c.prog.Decls {
		g, ok := d.(*ast.GlobalVarDecl)
		if !ok {
			continue
		}
		def := &c.globals[gi]
		if _, terr := types.FromAST(g.Type); terr != nil {
			f.emit(instr{op: opFail, nd: g, aux: interp.WrapError(g, terr)})
			break
		}
		var reg int32
		var cl class
		if g.Init != nil {
			r0, c0 := f.compileExpr(g.Init)
			reg, cl = f.coerceTo(g, def.ty, r0, c0, noDest)
		} else {
			reg, cl = f.zeroOf(def.ty, noDest)
		}
		if def.cl == clR {
			if cl != clR {
				bail("global %q: class mismatch %d vs %d", g.Name, def.cl, cl)
			}
			f.emit(instr{op: opGBindR, a: int32(gi), b: reg, c: 1, nd: g})
		} else {
			f.emit(instr{op: opGStore, a: int32(gi), b: reg, c: 1, nd: g})
		}
		f.emit(instr{op: opFlush})
		gi++
	}
	c.ginit = &proto{name: "<globals>", code: f.code, nregs: f.nreg, keeps: int(f.keeps)}
}

// zeroOf emits the declared type's zero value (interp.ZeroValue), a
// scalar's straight into d when d wants one.
func (f *fnc) zeroOf(ty *types.Type, d dest) (int32, class) {
	cl := classOf(ty)
	r := f.out(d, cl)
	switch cl {
	case clI, clB:
		f.emit(instr{op: opConstI, a: r, b: 0})
	case clF:
		f.emit(instr{op: opLoadK, a: r, b: f.c.constFloat(0)})
	default:
		f.emit(instr{op: opLoadK, a: r, b: f.c.constBoxed(interp.ZeroValue(ty))})
	}
	return r, cl
}

// coerceTo emits the binding-time coercion of (reg, cl) to declared
// type ty at node nd (tree: coerceToType), returning a register of
// ty's class (d when the coercion is an instruction and d wants it).
func (f *fnc) coerceTo(nd ast.Node, ty *types.Type, reg int32, cl class, d dest) (int32, class) {
	tcl := classOf(ty)
	switch {
	case tcl == cl && cl != clR:
		return reg, cl
	case tcl == clF && cl == clI:
		r := f.out(d, clF)
		f.emit(instr{op: opI2F, a: r, b: reg})
		return r, clF
	case tcl == clR:
		r := f.reg()
		f.emit(instr{op: opCoerce, a: r, nd: nd,
			aux: &typeAux{ty: ty, src: argDesc{reg: reg, cl: cl}}})
		return r, clR
	case cl == clR:
		// Dynamic value into a scalar slot: coerce (validates / promotes)
		// then unbox. Unreachable in checked programs for anything but
		// Invalid statics, where the tree walker would store the boxed
		// value; keep the conservative runtime check.
		r := f.reg()
		f.emit(instr{op: opCoerce, a: r, nd: nd,
			aux: &typeAux{ty: ty, src: argDesc{reg: reg, cl: cl}}})
		out := f.out(d, tcl)
		switch tcl {
		case clI:
			f.emit(instr{op: opToInt, a: out, b: r, nd: nd})
		case clF:
			f.emit(instr{op: opUnboxF, a: out, b: r, nd: nd})
		default:
			f.emit(instr{op: opToBool, a: out, b: r, nd: nd})
		}
		return out, tcl
	}
	// Statically impossible scalar/scalar mismatch (e.g. bool into int):
	// the checker rejects these programs before execution.
	bail("unassignable scalar classes %d -> %d at %s", cl, tcl, nd.Span())
	return 0, tcl
}

// step emits the statement-entry opcode (flush + cancel poll + step
// budget tick): the one-tick-per-executed-statement contract.
func (f *fnc) step(s ast.Stmt) {
	var nd ast.Node
	if s != nil {
		nd = s
	}
	f.emit(instr{op: opStep, a: 1, nd: nd})
}

func (f *fnc) compileStmt(s ast.Stmt) {
	f.step(s)
	f.compileStmtInner(s)
}

func (f *fnc) compileStmtInner(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
		return

	case *ast.BlockStmt:
		f.pushScope()
		for _, st := range s.Stmts {
			f.compileStmt(st)
		}
		f.popScope()

	case *ast.DeclStmt:
		ty, err := types.FromAST(s.Type)
		if err != nil {
			f.emit(instr{op: opFail, nd: s, aux: interp.WrapError(s, err)})
			// Keep scopes coherent for the (unreachable) rest.
			ty = types.InvalidT
		}
		slot := f.newSlot(ty)
		if s.Init != nil {
			f.assignLocal(s, slot, s.Init)
		} else {
			reg, cl := f.zeroOf(ty, destOf(slot))
			f.storeVar(slot, reg, cl)
		}
		f.scope.bind(s.Name, slot)

	case *ast.AssignStmt:
		if len(s.LHS) == 1 {
			if id, ok := s.LHS[0].(*ast.Ident); ok {
				if slot, ok := f.resolve(id.Name); ok {
					f.assignLocal(id, slot, s.RHS)
					return
				}
			}
		}
		if rets := f.compileTupleCall(s); rets != nil {
			for k, l := range s.LHS {
				f.compileAssign(l, rets[k].reg, rets[k].cl)
			}
			return
		}
		rr, rc := f.compileExpr(s.RHS)
		if len(s.LHS) == 1 {
			f.compileAssign(s.LHS[0], rr, rc)
			return
		}
		if rc != clR {
			// Statically a non-tuple: the tree walker fails the runtime
			// tuple check with this exact text.
			f.emit(instr{op: opFail, nd: s,
				aux: interp.Errorf(s, "destructuring assignment requires a %d-tuple", len(s.LHS))})
			return
		}
		f.emit(instr{op: opTupCheck, a: rr, b: int32(len(s.LHS)), nd: s})
		for k, l := range s.LHS {
			t := f.reg()
			f.emit(instr{op: opTupGet, a: t, b: rr, c: int32(k)})
			f.compileAssign(l, t, clR)
		}

	case *ast.IfStmt:
		fall := f.branch(s.Cond, false)
		f.compileStmt(s.Then)
		if s.Else != nil {
			out := f.emit(instr{op: opJmp})
			f.patch(fall)
			f.compileStmt(s.Else)
			f.patch([]int{out})
		} else {
			f.patch(fall)
		}

	case *ast.WhileStmt:
		f.compileLoop(s.Cond, s.Body, nil)

	case *ast.ForStmt:
		f.pushScope()
		if s.Init != nil {
			f.compileStmt(s.Init)
		}
		f.compileLoop(s.Cond, s.Body, s.Post)
		f.popScope()

	case *ast.ReturnStmt:
		if s.Value == nil {
			f.emit(instr{op: opRet, a: -1, nd: s})
			return
		}
		if te, ok := s.Value.(*ast.TupleExpr); ok && len(te.Elems) == int(f.nrets) {
			f.emit(instr{op: opRetTup, a: f.rets, nd: s, aux: f.compileArgs(te.Elems)})
			f.emit(instr{op: opRet, a: -1, nd: s})
			return
		}
		r, cl := f.compileExpr(s.Value)
		f.emit(instr{op: opRet, a: r, b: int32(cl), nd: s})

	case *ast.ExprStmt:
		f.compileExpr(s.X)

	case *ast.BreakStmt:
		site := f.emit(instr{op: opJmp, nd: s})
		if n := len(f.breaks); n > 0 {
			f.breaks[n-1] = append(f.breaks[n-1], site)
		} else {
			// No enclosing loop: the tree walker unwinds to the function
			// end silently (ctlBreak reaches callFunction as a no-op).
			f.epilogue = append(f.epilogue, site)
		}
	case *ast.ContinueStmt:
		site := f.emit(instr{op: opJmp, nd: s})
		if n := len(f.continues); n > 0 {
			f.continues[n-1] = append(f.continues[n-1], site)
		} else {
			f.epilogue = append(f.epilogue, site)
		}

	case *ast.SpawnStmt:
		f.compileSpawn(s)

	case *ast.SyncStmt:
		f.emit(instr{op: opSync, nd: s})

	default:
		f.emit(instr{op: opFail, nd: s, aux: interp.Errorf(s, "unknown statement %T", s)})
	}
}

// storeVar writes an already-coerced value into a variable slot
// (bind-new-release-old for boxed classes).
func (f *fnc) storeVar(slot varSlot, reg int32, cl class) {
	if slot.cl != cl {
		bail("slot class mismatch %d vs %d", slot.cl, cl)
	}
	switch {
	case slot.cl == clR:
		f.emit(instr{op: opBindR, a: slot.reg, b: reg})
	case reg != slot.reg: // else the expression was compiled into the slot
		f.emit(instr{op: opMove, a: slot.reg, b: reg})
	}
}

// assignLocal compiles slot = e at node nd: e's last instruction writes
// the variable's own register when it can (a scalar of the variable's
// class), and the binding-time coercion and a move cover the rest.
func (f *fnc) assignLocal(nd ast.Node, slot varSlot, e ast.Expr) {
	d := destOf(slot)
	r, cl := f.compileExprTo(e, d)
	r, cl = f.coerceTo(nd, slot.ty, r, cl, d)
	f.storeVar(slot, r, cl)
}

// compileLoop lowers while (cond) body and the loop part of for (;
// cond; post) body rotated: the condition is tested once on entry and
// again, negated, at the bottom, where it jumps back to the body, so an
// iteration runs no unconditional jump. continue lands on the post
// statement's entry (on the bottom test when there is none), break past
// the bottom test. A nil cond is for (;;).
func (f *fnc) compileLoop(cond ast.Expr, body, post ast.Stmt) {
	f.breaks = append(f.breaks, nil)
	f.continues = append(f.continues, nil)
	var exit []int
	if cond != nil {
		exit = f.branch(cond, false)
	}
	top := int32(len(f.code))
	f.compileStmt(body)
	n := len(f.breaks) - 1
	f.patch(f.continues[n])
	if post != nil {
		f.compileStmt(post)
	}
	var back []int
	if cond != nil {
		back = f.branch(cond, true)
	} else {
		back = []int{f.emit(instr{op: opJmp})}
	}
	for _, site := range back {
		f.code[site].c = top
	}
	f.patch(f.breaks[n])
	f.patch(exit)
	f.breaks = f.breaks[:n]
	f.continues = f.continues[:n]
}

// compileAssign stores an evaluated RHS into an lvalue, mirroring the
// tree walker's assignTo.
func (f *fnc) compileAssign(lhs ast.Expr, reg int32, cl class) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if slot, ok := f.resolve(l.Name); ok {
			r, c := f.coerceTo(l, slot.ty, reg, cl, destOf(slot))
			f.storeVar(slot, r, c)
			return
		}
		if gi, def, ok := f.resolveGlobal(l.Name); ok {
			r, c := f.coerceTo(l, def.ty, reg, cl, noDest)
			if def.cl != c {
				bail("global %q assign class mismatch", l.Name)
			}
			if def.cl == clR {
				f.emit(instr{op: opGBindR, a: int32(gi), b: r, nd: l})
			} else {
				f.emit(instr{op: opGStore, a: int32(gi), b: r, nd: l})
			}
			return
		}
		f.emit(instr{op: opFail, nd: l, aux: interp.Errorf(l, "undeclared variable %q", l.Name)})

	case *ast.IndexExpr:
		base, bcl := f.compileExpr(l.X)
		if bcl != clR {
			f.emit(instr{op: opFail, nd: l, aux: unassignedBase(l, true)})
			return
		}
		if f.fusedSet(l, base, reg, cl) {
			return
		}
		f.emit(instr{op: opIdxCheck, a: base, b: int32(len(l.Args)), c: 1, nd: l})
		plans := f.compilePlans(l, base)
		f.emit(instr{op: opSetIndex, a: base, nd: l,
			aux: &setIndexDesc{e: l, plans: plans, val: argDesc{reg: reg, cl: cl}}})

	default:
		f.emit(instr{op: opFail, nd: lhs,
			aux: interp.Errorf(lhs, "cannot assign to %s", ast.ExprString(lhs))})
	}
}

// compileSpawn lowers spawn f(args) [into target]: the static checks
// come first (before argument evaluation, like the tree walker), then
// the arguments, then the spawn op with a statically resolved target.
func (f *fnc) compileSpawn(s *ast.SpawnStmt) {
	call, ok := s.Call.(*ast.CallExpr)
	if !ok {
		f.emit(instr{op: opFail, nd: s, aux: interp.Errorf(s, "spawn requires a function call")})
		return
	}
	sig, ok := f.c.info.Funcs[call.Fun]
	if !ok {
		f.emit(instr{op: opFail, nd: s,
			aux: interp.Errorf(s, "spawn requires a user-defined function, %q is not one", call.Fun)})
		return
	}
	d := &spawnDesc{s: s, proto: f.protoOf(sig.Decl), args: f.compileArgs(call.Args), name: s.Target}
	if s.Target == "" {
		d.target = targetRef{kind: tgNone}
	} else if slot, ok := f.resolve(s.Target); ok {
		d.target = targetRef{kind: tgLocal, reg: slot.reg, cl: slot.cl, ty: slot.ty}
	} else if gi, def, ok := f.resolveGlobal(s.Target); ok {
		d.target = targetRef{kind: tgGlobal, reg: int32(gi), cl: def.cl, ty: def.ty}
	} else {
		d.target = targetRef{kind: tgUndeclared}
	}
	f.emit(instr{op: opSpawn, nd: s, aux: d})
}

// branch compiles a statement condition as control flow: it returns the
// patch sites of the jumps taken when the condition's value is when, and
// falls through otherwise. && and || of bools branch per operand (the
// tree walker's short circuit, with no bool materialised), ! of a bool
// flips when, integer comparisons fuse into compare-and-branch forms,
// and everything else evaluates to a bool register (with the tree
// walker's runtime check for non-bool statics).
func (f *fnc) branch(cond ast.Expr, when bool) []int {
	isBool := func(e ast.Expr) bool { return f.c.info.TypeOf(e).Kind == types.Bool }
	switch e := cond.(type) {
	case *ast.UnaryExpr:
		if e.Op == ast.OpNot && isBool(e.X) {
			return f.branch(e.X, !when)
		}
	case *ast.BinaryExpr:
		if (e.Op == ast.OpAnd || e.Op == ast.OpOr) && isBool(e.L) && isBool(e.R) {
			if (e.Op == ast.OpAnd) != when {
				// false && _ and true || _ decide the condition as when.
				return append(f.branch(e.L, when), f.branch(e.R, when)...)
			}
			decided := f.branch(e.L, !when) // the other way: skip the right operand
			sites := f.branch(e.R, when)
			f.patch(decided)
			return sites
		}
		op := e.Op
		if neg, ok := negatedCmp[op]; ok && when {
			op = neg
		}
		if forms, ok := fusableIntCmp[op]; ok &&
			f.c.info.TypeOf(e.L).Kind == types.Int &&
			f.c.info.TypeOf(e.R).Kind == types.Int {
			if k, ok := smallIntLit(e.R); ok {
				l := f.operand(e.L, clI)
				return []int{f.emit(instr{op: forms.kform, a: l, b: k, nd: e})}
			}
			if k, ok := smallIntLit(e.L); ok {
				r := f.operand(e.R, clI)
				return []int{f.emit(instr{op: swapCmp[forms.kform], a: r, b: k, nd: e})}
			}
			l := f.operand(e.L, clI)
			r := f.operand(e.R, clI)
			return []int{f.emit(instr{op: forms.rform, a: l, b: r, nd: e})}
		}
	}
	b := f.compileBool(cond)
	op := opBrFalse
	if when {
		op = opBrTrue
	}
	return []int{f.emit(instr{op: op, a: b, nd: cond})}
}

// compileBool evaluates cond into a bool register, mirroring evalBool.
func (f *fnc) compileBool(cond ast.Expr) int32 {
	r, cl := f.compileExpr(cond)
	switch cl {
	case clB:
		return r
	case clR:
		out := f.reg()
		f.emit(instr{op: opToBool, a: out, b: r, nd: cond})
		return out
	case clI:
		f.emit(instr{op: opFail, nd: cond,
			aux: interp.Errorf(cond, "condition evaluated to %T, not bool", int64(0))})
	case clF:
		f.emit(instr{op: opFail, nd: cond,
			aux: interp.Errorf(cond, "condition evaluated to %T, not bool", float64(0))})
	}
	return f.reg()
}

// compileInt evaluates e into an int register, mirroring evalInt.
func (f *fnc) compileInt(e ast.Expr) int32 {
	r, cl := f.compileExpr(e)
	switch cl {
	case clI:
		return r
	case clR:
		out := f.reg()
		f.emit(instr{op: opToInt, a: out, b: r, nd: e})
		return out
	case clF:
		f.emit(instr{op: opFail, nd: e,
			aux: interp.Errorf(e, "expected an int value, got %T", float64(0))})
	case clB:
		f.emit(instr{op: opFail, nd: e,
			aux: interp.Errorf(e, "expected an int value, got %T", false)})
	}
	return f.reg()
}

// operand evaluates e and asserts its static class.
func (f *fnc) operand(e ast.Expr, want class) int32 {
	r, cl := f.compileExpr(e)
	if cl != want {
		bail("operand %s has class %d, want %d", ast.ExprString(e), cl, want)
	}
	return r
}

type cmpForms struct{ rform, kform opcode }

// fusableIntCmp maps a comparison operator to its branch-if-FALSE
// opcodes (the branch is taken when the comparison does not hold).
var fusableIntCmp = map[ast.BinOp]cmpForms{
	ast.OpLt: {opBrLtI, opBrLtIK},
	ast.OpLe: {opBrLeI, opBrLeIK},
	ast.OpGt: {opBrGtI, opBrGtIK},
	ast.OpGe: {opBrGeI, opBrGeIK},
	ast.OpEq: {opBrEqI, opBrEqIK},
	ast.OpNe: {opBrNeI, opBrNeIK},
}

// negatedCmp is the comparison that holds exactly when the given one
// does not (ints are totally ordered): a branch taken when a comparison
// holds is the branch-if-false form of its negation.
var negatedCmp = map[ast.BinOp]ast.BinOp{
	ast.OpLt: ast.OpGe, ast.OpLe: ast.OpGt, ast.OpGt: ast.OpLe,
	ast.OpGe: ast.OpLt, ast.OpEq: ast.OpNe, ast.OpNe: ast.OpEq,
}

// swapCmp mirrors a K-form comparison when the literal is on the left:
// K op x  ==  x op' K.
var swapCmp = map[opcode]opcode{
	opBrLtIK: opBrGtIK,
	opBrLeIK: opBrGeIK,
	opBrGtIK: opBrLtIK,
	opBrGeIK: opBrLeIK,
	opBrEqIK: opBrEqIK,
	opBrNeIK: opBrNeIK,
}

// smallIntLit reports e as an int literal fitting an int32 immediate.
func smallIntLit(e ast.Expr) (int32, bool) {
	lit, ok := e.(*ast.IntLit)
	if !ok || lit.Value < -1<<31 || lit.Value >= 1<<31 {
		return 0, false
	}
	return int32(lit.Value), true
}

// branches reports whether op's c operand is a jump target.
func (op opcode) branches() bool {
	return op == opJmp || op == opBrFalse || op == opBrTrue || (op >= opBrLtI && op <= opIncJLeIK)
}

// incJump maps the bottom test that jumps back while a < b (a <= b)
// holds to the opcode that also does the a = a + 1 before it.
var incJump = map[opcode]opcode{
	opBrGeI: opIncJLtI, opBrGeIK: opIncJLtIK,
	opBrGtI: opIncJLeI, opBrGtIK: opIncJLeIK,
}

// fuseAcrossStatements is the one pass over a function's finished code,
// for the two pairs no single statement's lowering can see: two
// adjacent statement entries (a block's and its first statement's)
// become one opStep that ticks twice, each tick still for its own node,
// and i = i + 1 followed by the loop's bottom test on i becomes one
// increment-compare-branch. A pair is fused only when nothing jumps to
// its second instruction. Jump targets are renumbered.
func fuseAcrossStatements(code []instr) []instr {
	// at[pc] is -1 for a jump target until pc is visited, then pc's new
	// index.
	at := make([]int32, len(code)+1)
	for _, in := range code {
		if in.op.branches() {
			at[in.c] = -1
		}
	}
	out := code[:0]
	for pc := 0; pc < len(code); pc++ {
		in := code[pc]
		at[pc] = int32(len(out))
		if pc+1 < len(code) && at[pc+1] == 0 {
			next := &code[pc+1]
			fused := false
			switch {
			case in.op == opStep && in.a == 1 && next.op == opStep && next.a == 1:
				in.a, in.aux, fused = 2, next.nd, true
			case in.op == opAddIK && in.a == in.b && in.c == 1 && next.a == in.a:
				if op, ok := incJump[next.op]; ok {
					in, fused = instr{op: op, a: next.a, b: next.b, c: next.c, nd: next.nd}, true
				}
			}
			if fused {
				pc++
				at[pc] = int32(len(out))
			}
		}
		out = append(out, in)
	}
	at[len(code)] = int32(len(out))
	for k := range out {
		if out[k].op.branches() {
			out[k].c = at[out[k].c]
		}
	}
	return out
}
