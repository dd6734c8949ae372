// The bytecode machine: a switch-dispatch loop over proto code, plus
// the call, with-loop, matrixMap and spawn runners. All resource
// policy (budgets, cancellation, rc bookkeeping, I/O) is delegated to
// the interp engine surface so both engines share one semantics.
package vm

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/par"
	"repro/internal/rc"
	"repro/internal/types"
)

// Machine executes a compiled Program against one interpreter's
// runtime services (budget, heap, pool, I/O). One Machine runs one
// program once; the Program itself is immutable and shareable.
type Machine struct {
	p       *Program
	in      *interp.Interp
	globals []value
	// bound counts the globals bound: the tree walker binds them one at
	// a time, as their initializers complete.
	bound int
	// ticking is whether a statement tick has anything to do in this
	// run: a step budget to debit or a cancellable context to poll.
	ticking bool
	// mapApp is what a matrixMap application is an activation of: no
	// code, no registers, a frame whose pending list is where the
	// result's escape reference waits for the result to be stored.
	mapApp proto
}

// NewMachine pairs a compiled program with an interpreter instance
// (which supplies budgets, the worker pool, rc heap and I/O).
func NewMachine(p *Program, in *interp.Interp) *Machine {
	_, maxSteps := in.StepBudget()
	return &Machine{p: p, in: in, ticking: maxSteps > 0 || in.Cancellable()}
}

// frame is one activation of a proto: its registers, its statement-
// scoped pending rc releases, its outstanding Cilk spawns, and what it
// returned — the returning register as it stood, in class retCl (a bare
// `return;` and falling off the end leave the nil boxed value). After
// `return (e1, ..., ek);` ret.r is the literal's operand list, a
// []argDesc, and the k values stand in the proto's return slots in the
// classes it names (see returnTuple).
//
// Frames come from their proto's pool and go back to it on a clean exit
// only (see proto.release); DESIGN.md §11 has the lifecycle.
type frame struct {
	regs    []value
	pending []rc.Ref
	futures []*vmFuture
	pool    *par.Pool
	depth   int
	ret     value
	retCl   class
	hasRet  bool
}

// frame takes an activation record for p: a pooled one, whose registers
// release left all zero, or a new one.
func (p *proto) frame(pool *par.Pool, depth int) *frame {
	fr, _ := p.frames.Get().(*frame)
	if fr == nil {
		fr = &frame{regs: make([]value, p.nregs), retCl: clR}
	}
	fr.pool, fr.depth = pool, depth
	return fr
}

// release hands a finished frame back for the next activation of p. Its
// registers are cleared, so nothing the activation reached stays
// reachable through the pool and the next one reads every variable it
// has not assigned as zero / unassigned. A frame a spawn may still
// write into is never handed out again; nor is one whose activation
// failed — its caller simply does not release it.
func (p *proto) release(fr *frame) {
	if len(fr.futures) != 0 {
		return
	}
	clear(fr.regs)
	fr.ret, fr.retCl, fr.hasRet, fr.pool = value{}, clR, false, nil
	p.frames.Put(fr)
}

// vmFuture is one outstanding spawned call (mirrors interp's
// spawnFuture).
type vmFuture struct {
	done    chan struct{}
	val     any
	err     error
	pending []rc.Ref
	args    []any
	target  targetRef
	node    ast.Node
}

// box reads an operand register as a boxed value: the one field its
// class names, in place (the dispatch loop inlines this in a dozen
// handlers; see EXPERIMENTS.md E21 on what copying the register first
// did to its layout).
func (fr *frame) box(d argDesc) any {
	switch d.cl {
	case clI:
		return fr.regs[d.reg].i
	case clF:
		return fr.regs[d.reg].f
	case clB:
		return fr.regs[d.reg].i != 0
	default:
		return fr.regs[d.reg].r
	}
}

// boxValue boxes a register that has left its frame — a returned value
// — by its class.
func boxValue(v value, cl class) any {
	switch cl {
	case clI:
		return v.i
	case clF:
		return v.f
	case clB:
		return v.i != 0
	default:
		return v.r
	}
}

// store writes a boxed value into a typed register (see storeInto), an
// error attributed to nd.
func (fr *frame) store(reg int32, cl class, v any, nd ast.Node) error {
	if err := storeInto(fr.regs, reg, cl, v); err != nil {
		return interp.WrapError(nd, err)
	}
	return nil
}

// flush releases the frame's pending rc references (the engine-shared
// statement-boundary discipline).
func (mc *Machine) flush(fr *frame) {
	for _, h := range fr.pending {
		h.DecRef()
	}
	clear(fr.pending)
	fr.pending = fr.pending[:0]
}

// Run executes the program: globals in declaration order, then main.
// Like the tree walker it never panics; anything recovered becomes a
// classified *interp.RuntimeError.
func (mc *Machine) Run() (code int, err error) {
	defer func() {
		if r := recover(); r != nil {
			code, err = 0, interp.Recovered(mc.p.prog, r)
		}
	}()
	return mc.run()
}

func (mc *Machine) run() (int, error) {
	if mc.p.main < 0 {
		return 0, fmt.Errorf("interp: program has no main function")
	}
	mc.globals, mc.bound = make([]value, len(mc.p.globals)), 0
	gfr := mc.p.ginit.frame(mc.in.Pool(), 0)
	if err := mc.exec(gfr, mc.p.ginit); err != nil {
		// Globals are deliberately not released on error (tree parity).
		return 0, err
	}
	mc.p.ginit.release(gfr)
	mp := mc.p.protos[mc.p.main]
	var rootPending []rc.Ref
	ret, err := mc.callProto(mc.p.main, nil, mp.decl, 0, mc.in.Pool(), &rootPending)
	if err != nil {
		return 0, err
	}
	for _, h := range rootPending {
		h.DecRef()
	}
	for gi, g := range mc.p.globals {
		if g.cl == clR {
			mc.in.ReleaseValue(mc.globals[gi].r)
		}
	}
	code := 0
	if n, ok := ret.(int64); ok {
		code = int(n)
	}
	return code, nil
}

// A call is three steps, each mirroring the tree walker's callFunction
// exactly, including its error-path ordering: enter (depth check, a
// frame), parameter binding in order (bind for a boxed argument; opCall
// moves scalars of the parameter's class across unboxed), and finish
// (execution, implicit sync, return promotion / fall-off zero
// substitution, escape of the return value into the caller's pending
// list, teardown). A failed call's frame is dropped, not released: the
// tree walker does not pop a half-built or failed frame either.

// enter opens an activation of p for a caller at callerDepth.
func (mc *Machine) enter(p *proto, site ast.Node, callerDepth int, pool *par.Pool) (*frame, error) {
	if callerDepth > interp.MaxCallDepth {
		return nil, interp.Trapf(site, interp.TrapDepth, "call stack exceeded %d frames (infinite recursion in %q?)", interp.MaxCallDepth, p.name)
	}
	return p.frame(pool, callerDepth+1), nil
}

// bind coerces a boxed argument to its parameter's type and binds it.
// On an error earlier parameters stay bound (tree parity: callFunction
// returns without popping the half-built frame).
func (mc *Machine) bind(fr *frame, pd paramDef, arg any, site ast.Node) error {
	v, err := interp.CoerceValue(site, pd.ty, arg)
	if err != nil {
		return err
	}
	mc.in.BindValue(v)
	return fr.store(pd.reg, pd.cl, v, site)
}

// tupleDst is where a destructuring call wants the elements of its
// callee's tuple: the registers d.rets names, in the caller's frame fr.
// moved says they arrived there, with no []any made.
type tupleDst struct {
	fr    *frame
	d     *callDesc
	moved bool
}

// finish runs a bound frame to its return and tears it down. The value
// comes back in the register class it was returned in — a scalar never
// boxed — and boxValue makes an any of it for the callers that need one.
// dst is a destructuring call's, nil for every other caller: see
// returnTuple.
func (mc *Machine) finish(fr *frame, p *proto, callerPending *[]rc.Ref, dst *tupleDst) (value, class, error) {
	err := mc.exec(fr, p)
	if serr := mc.syncFrame(fr); serr != nil && err == nil {
		err = serr
	}
	if err != nil {
		mc.flush(fr)
		mc.releaseRefRegs(fr, p)
		return value{}, clR, err
	}
	ret, cl := fr.ret, fr.retCl
	if p.retTy != nil && p.retTy.Kind != types.Void && p.retTy.Kind != types.Invalid {
		switch {
		case !fr.hasRet:
			ret, cl = value{}, classOf(p.retTy)
			if cl == clR {
				ret.r = interp.ZeroValue(p.retTy)
			}
		case cl == clI && p.retTy.Kind == types.Float:
			ret, cl = value{f: float64(ret.i)}, clF
		case cl == clR && ret.r != nil:
			if tup, ok := ret.r.([]argDesc); ok {
				ret.r, err = mc.returnTuple(fr, p, tup, dst)
			}
			ret.r = interp.PromoteScalar(p.retTy, ret.r)
		}
	}
	if fr.hasRet && cl == clR && ret.r != nil {
		*callerPending = mc.in.EscapeRef(ret.r, *callerPending)
	}
	mc.flush(fr)
	mc.releaseRefRegs(fr, p)
	p.release(fr)
	return ret, cl, err
}

// returnTuple hands over what `return (e1, ..., ek);` left in fr's return
// slots, in the classes tup names. For a destructuring call the elements
// go to the registers dst names, each promoted to its declared type and
// escaped into the caller's pending list as finish does for the value
// whole, which is nil here: the []any is never built. Every other caller
// gets the []any, for finish to promote and escape as any held tuple.
func (mc *Machine) returnTuple(fr *frame, p *proto, tup []argDesc, dst *tupleDst) (any, error) {
	slots := fr.regs[p.rets:]
	if dst == nil {
		out := make([]any, len(tup))
		for k, d := range tup {
			out[k] = boxValue(slots[k], d.cl)
		}
		return out, nil
	}
	var err error
	to := dst.fr
	for k, t := range dst.d.rets {
		v, cl, ty := slots[k], tup[k].cl, p.retTy.Elems[k]
		switch {
		case cl == clI && ty.Kind == types.Float:
			v, cl = value{f: float64(v.i)}, clF
		case cl == clR && v.r != nil:
			v.r = interp.PromoteScalar(ty, v.r)
			to.pending = mc.in.EscapeRef(v.r, to.pending)
		}
		if cl == t.cl {
			to.regs[t.reg] = v
		} else if serr := to.store(t.reg, t.cl, boxValue(v, cl), dst.d.stmt); err == nil {
			err = serr
		}
	}
	dst.moved = true
	return nil, err
}

// callProto calls a compiled function with boxed arguments: main, a
// spawn.
func (mc *Machine) callProto(pi int, args []any, site ast.Node, callerDepth int, pool *par.Pool, callerPending *[]rc.Ref) (any, error) {
	p := mc.p.protos[pi]
	fr, err := mc.enter(p, site, callerDepth, pool)
	if err != nil {
		return nil, err
	}
	for k, pd := range p.params {
		if err := mc.bind(fr, pd, args[k], site); err != nil {
			return nil, err
		}
	}
	v, cl, err := mc.finish(fr, p, callerPending, nil)
	if err != nil {
		return nil, err
	}
	return boxValue(v, cl), nil
}

// call runs opCall. Arguments go from the caller's registers straight
// into the callee's: an int, float or bool whose parameter has its class
// (or an int for a float parameter, promoted here) is never boxed, and
// neither is a scalar result of the class the call site expects; every
// other pairing takes the boxed path and its checks.
func (mc *Machine) call(fr *frame, in *instr) error {
	d := in.aux.(*callDesc)
	p := mc.p.protos[d.proto]
	cf, err := mc.enter(p, in.nd, fr.depth, fr.pool)
	if err != nil {
		return err
	}
	for k, pd := range p.params {
		ad := d.args[k]
		switch {
		case ad.cl == pd.cl && pd.cl != clR:
			cf.regs[pd.reg] = fr.regs[ad.reg]
		case ad.cl == clI && pd.cl == clF:
			cf.regs[pd.reg].f = float64(fr.regs[ad.reg].i)
		default:
			if err := mc.bind(cf, pd, fr.box(ad), in.nd); err != nil {
				return err
			}
		}
	}
	if d.rets != nil {
		return mc.finishInto(fr, cf, p, d)
	}
	v, cl, err := mc.finish(cf, p, &fr.pending, nil)
	if err != nil || in.a < 0 {
		return err
	}
	if cl == d.retCl && cl != clR {
		fr.regs[in.a] = v
		return nil
	}
	return fr.store(in.a, d.retCl, boxValue(v, cl), in.nd)
}

// finishInto is finish for the call a destructuring assignment makes. A
// callee that returned a tuple literal has moved its elements into
// d.rets; one that returned a tuple it held (or fell off its end) hands
// the value over whole, and it is unpacked here.
func (mc *Machine) finishInto(fr, cf *frame, p *proto, d *callDesc) error {
	dst := tupleDst{fr: fr, d: d}
	v, _, err := mc.finish(cf, p, &fr.pending, &dst)
	if err != nil || dst.moved {
		return err
	}
	tup, ok := v.r.([]any)
	if !ok || len(tup) != len(d.rets) {
		return interp.Errorf(d.stmt, "destructuring assignment requires a %d-tuple", len(d.rets))
	}
	for k, t := range d.rets {
		if err := fr.store(t.reg, t.cl, tup[k], d.stmt); err != nil {
			return err
		}
	}
	return nil
}

// releaseRefRegs drops the binding references of the frame's boxed
// variable registers (block-scoped variables included: the VM frees
// them at function exit rather than block exit, which the cumulative
// cell budget cannot observe).
func (mc *Machine) releaseRefRegs(fr *frame, p *proto) {
	for _, r := range p.refRegs {
		mc.in.ReleaseValue(fr.regs[r].r)
	}
}

// syncFrame joins the frame's outstanding spawns: the semantics of
// `sync;` and of the implicit sync at function exit.
func (mc *Machine) syncFrame(fr *frame) error {
	var firstErr error
	for _, fut := range fr.futures {
		<-fut.done
		if fut.err != nil {
			if firstErr == nil {
				firstErr = fut.err
			}
		} else if fut.target.kind != tgNone {
			cv, err := interp.CoerceValue(fut.node, fut.target.ty, fut.val)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				mc.in.BindValue(cv)
				if fut.target.kind == tgGlobal {
					mc.in.ReleaseValue(mc.globals[fut.target.reg].r)
					if err := storeInto(mc.globals, fut.target.reg, fut.target.cl, cv); err != nil && firstErr == nil {
						firstErr = interp.WrapError(fut.node, err)
					}
				} else {
					if fut.target.cl == clR {
						mc.in.ReleaseValue(fr.regs[fut.target.reg].r)
					}
					if err := storeInto(fr.regs, fut.target.reg, fut.target.cl, cv); err != nil && firstErr == nil {
						firstErr = interp.WrapError(fut.node, err)
					}
				}
			}
		}
		for _, h := range fut.pending {
			h.DecRef()
		}
		for _, a := range fut.args {
			mc.in.ReleaseValue(a)
		}
	}
	fr.futures = nil
	return firstErr
}

// storeInto writes a boxed value into a register slice slot. A mismatch
// is unreachable in a checked program: binding coercion, return
// promotion and a fold's static type pin runtime representations to
// static types.
func storeInto(regs []value, reg int32, cl class, v any) error {
	switch cl {
	case clI:
		n, ok := v.(int64)
		if !ok {
			return fmt.Errorf("expected an int value, got %T", v)
		}
		regs[reg].i = n
	case clF:
		x, ok := v.(float64)
		if !ok {
			return fmt.Errorf("expected a float value, got %T", v)
		}
		regs[reg].f = x
	case clB:
		b, ok := v.(bool)
		if !ok {
			return fmt.Errorf("expected a bool value, got %T", v)
		}
		if b {
			regs[reg].i = 1
		} else {
			regs[reg].i = 0
		}
	default:
		regs[reg].r = v
	}
	return nil
}
