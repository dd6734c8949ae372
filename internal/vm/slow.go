// Handlers for everything exec does not do register to register: the
// opcodes that box an operand (dynamic operators, coercions), general
// indexing and the error exits of the rank-1 group, allocation, tuples,
// calls, builtins, with-loops, matrixMap and Cilk spawn/sync. Split out
// of the dispatch loop to keep the hot switch small.
package vm

import (
	"errors"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/matrix"
)

func (mc *Machine) execSlow(fr *frame, in *instr) error {
	regs := fr.regs
	switch in.op {
	case opIdxCheck:
		m, ok := regs[in.a].r.(*matrix.Matrix)
		if !ok || m == nil {
			return unassignedBase(in.nd, in.c != 0)
		}
		if int(in.b) != m.Rank() {
			return interp.Errorf(in.nd, "matrix of rank %d requires %d index expression(s), got %d",
				m.Rank(), m.Rank(), int(in.b))
		}

	// A global not bound yet (exec took the bound case): the tree
	// walker's "undeclared" for a read or a write, unless in is the store
	// of the global's own initializer (c = 1), which binds it.
	case opGLoad:
		return interp.Errorf(in.nd, "undeclared variable %q", mc.p.globals[in.b].name)
	case opGStore, opGBindR:
		if in.c == 0 {
			return interp.Errorf(in.nd, "undeclared variable %q", mc.p.globals[in.a].name)
		}
		mc.bound = int(in.a) + 1

	// The error exits of the rank-1 group (exec took the in-range case):
	// an unassigned base, else whatever matrix makes of the index.
	case opIdx1F, opIdx1I, opIdx1B:
		m, _ := regs[in.b].r.(*matrix.Matrix)
		if m == nil {
			return unassignedBase(in.nd, false)
		}
		v, err := m.Index(mc.in.Budget(), matrix.Scalar(int(regs[in.c].i)))
		if err != nil {
			return interp.WrapError(in.nd, err)
		}
		return fr.store(in.a, rank1Class(in.op), v, in.nd)

	case opSetIdx1F, opSetIdx1I, opSetIdx1B:
		m, _ := regs[in.a].r.(*matrix.Matrix)
		if m == nil {
			return unassignedBase(in.nd, true)
		}
		v := fr.box(argDesc{reg: in.c, cl: rank1Class(in.op)})
		return interp.WrapError(in.nd, m.SetIndex(v, matrix.Scalar(int(regs[in.b].i))))

	case opCastD:
		d := in.aux.(*castAux)
		v, err := interp.CastScalar(in.nd, d.to, fr.box(d.x))
		if err != nil {
			return err
		}
		return fr.store(in.a, class(in.b), v, in.nd)

	case opCoerce:
		ta := in.aux.(*typeAux)
		v, err := interp.CoerceValue(in.nd, ta.ty, fr.box(ta.src))
		if err != nil {
			return err
		}
		regs[in.a].r = v

	case opPromote:
		ta := in.aux.(*typeAux)
		regs[in.a].r = interp.PromoteScalar(ta.ty, fr.box(ta.src))

	case opSCBool:
		ta := in.aux.(*typeAux)
		b, ok := fr.box(ta.src).(bool)
		if !ok {
			return interp.Errorf(in.nd, "operator %s requires bool operands", ta.op)
		}
		regs[in.a].r = b

	case opBinM:
		d := in.aux.(*binDesc)
		v, err := interp.EvalBinary(d.e, fr.box(d.l), fr.box(d.r), mc.in.Exec(fr.pool))
		if err != nil {
			return err
		}
		return fr.store(in.a, class(in.b), v, in.nd)

	case opUnM:
		d := in.aux.(*unDesc)
		v, err := interp.EvalUnary(d.e, fr.box(d.x), mc.in.Exec(fr.pool))
		if err != nil {
			return err
		}
		return fr.store(in.a, class(in.b), v, in.nd)

	case opFused:
		return mc.execChain(fr, in)

	case opDimEnd:
		m := regs[in.b].r.(*matrix.Matrix)
		size, err := m.DimSize(int(in.c))
		if err != nil {
			return interp.WrapError(in.nd, err)
		}
		regs[in.a].i = int64(size - 1)

	case opIndex:
		d := in.aux.(*indexDesc)
		m := regs[in.b].r.(*matrix.Matrix)
		var scratch [matrix.InlineRank]matrix.IndexSpec
		specs, err := fr.buildSpecs(d.plans, scratch[:0])
		if err != nil {
			return err
		}
		v, err := m.Index(mc.in.Budget(), specs...)
		if err != nil {
			return interp.WrapError(in.nd, err)
		}
		return fr.store(in.a, class(in.c), v, in.nd)

	case opSetIndex:
		d := in.aux.(*setIndexDesc)
		m := regs[in.a].r.(*matrix.Matrix)
		var scratch [matrix.InlineRank]matrix.IndexSpec
		specs, err := fr.buildSpecs(d.plans, scratch[:0])
		if err != nil {
			return err
		}
		return interp.WrapError(in.nd, m.SetIndex(fr.box(d.val), specs...))

	case opRange:
		m, err := matrix.RangeBudgeted(mc.in.Budget(), regs[in.b].i, regs[in.c].i)
		if err != nil {
			return interp.WrapError(in.nd, err)
		}
		regs[in.a].r = m

	case opCheckDim:
		if n := regs[in.a].i; n < 0 {
			return interp.Errorf(in.nd, "init dimension %d is negative (%d)", int(in.b), n)
		}

	case opInit:
		d := in.aux.(*initDesc)
		var scratch [matrix.InlineRank]int
		dims := scratch[:0]
		for _, r := range d.dims {
			dims = append(dims, int(regs[r].i))
		}
		m, err := matrix.NewBudgeted(mc.in.Budget(), d.elem, dims...)
		if err != nil {
			return interp.WrapError(in.nd, err)
		}
		regs[in.a].r = m

	case opTuple:
		ds := in.aux.([]argDesc)
		out := make([]any, len(ds))
		for k, d := range ds {
			out[k] = fr.box(d)
		}
		regs[in.a].r = out

	case opRetTup:
		// The elements as they stand now: the implicit sync that follows
		// the return may still write the variables they were read from.
		// finish tells the literal from a held tuple by ret.r's type.
		for k, d := range in.aux.([]argDesc) {
			regs[int(in.a)+k] = regs[d.reg]
		}
		fr.ret, fr.retCl = value{r: in.aux}, clR

	case opTupCheck:
		tup, ok := regs[in.a].r.([]any)
		if !ok || len(tup) != int(in.b) {
			return interp.Errorf(in.nd, "destructuring assignment requires a %d-tuple", int(in.b))
		}

	case opTupGet:
		regs[in.a].r = regs[in.b].r.([]any)[in.c]

	case opCall:
		return mc.call(fr, in)

	case opPrint:
		mc.in.PrintValue(fr.box(in.aux.(argDesc)))

	case opDimSize:
		ds := in.aux.([]argDesc)
		m, ok := fr.box(ds[0]).(*matrix.Matrix)
		if !ok || m == nil {
			return interp.Errorf(in.nd, "dimSize of a non-matrix or unassigned matrix")
		}
		dv, ok := fr.box(ds[1]).(int64)
		if !ok {
			return interp.Errorf(in.nd, "dimSize dimension must be int")
		}
		n, err := m.DimSize(int(dv))
		if err != nil {
			return interp.WrapError(in.nd, err)
		}
		regs[in.a].i = int64(n)

	case opReadM:
		name, ok := fr.box(in.aux.(argDesc)).(string)
		if !ok {
			return interp.Errorf(in.nd, "readMatrix expects a file name string")
		}
		m, err := mc.in.ReadMatrixFile(in.nd, name, fr.pool)
		if err != nil {
			return err
		}
		regs[in.a].r = m

	case opWriteM:
		ds := in.aux.([]argDesc)
		name, _ := fr.box(ds[0]).(string)
		m, ok := fr.box(ds[1]).(*matrix.Matrix)
		if !ok || m == nil {
			return interp.Errorf(in.nd, "writeMatrix of a non-matrix or unassigned matrix")
		}
		return mc.in.WriteMatrixFile(in.nd, name, m)

	case opRcNew:
		cell, h := mc.in.RcNew(fr.box(in.aux.(argDesc)))
		fr.pending = append(fr.pending, h)
		regs[in.a].r = cell

	case opRcGet:
		v, err := mc.in.RcGet(in.nd, fr.box(in.aux.(argDesc)))
		if err != nil {
			return err
		}
		return fr.store(in.a, class(in.c), v, in.nd)

	case opRcSet:
		d := in.aux.(*rcSetDesc)
		return mc.in.RcSet(in.nd, fr.box(d.cell), fr.box(d.val), d.elem)

	case opRcRel:
		return mc.in.RcRelease(in.nd, fr.box(in.aux.(argDesc)))

	case opWith:
		return mc.execWith(fr, in)

	case opWithGen, opWithFold:
		if handled, err := mc.execWithFlat(fr, in); handled {
			return err
		}
		return mc.execWith(fr, in)

	case opMatMap:
		return mc.execMatMap(fr, in)

	case opSpawn:
		return mc.execSpawnOp(fr, in)

	case opSync:
		return mc.syncFrame(fr)

	default:
		return interp.Errorf(in.nd, "internal error: unknown opcode %d", in.op)
	}
	return nil
}

// rank1Class is the element class a rank-1 load or store opcode moves.
func rank1Class(op opcode) class {
	switch op {
	case opIdx1F, opSetIdx1F:
		return clF
	case opIdx1I, opSetIdx1I:
		return clI
	}
	return clB
}

// unassignedBase is the error of indexing (storing through, for lvalue)
// a matrix variable nothing was assigned to.
func unassignedBase(nd ast.Node, lvalue bool) error {
	if lvalue {
		return interp.Errorf(nd, "cannot index-assign into a non-matrix or unassigned matrix")
	}
	return interp.Errorf(nd, "cannot index a non-matrix or unassigned matrix")
}

// buildSpecs appends the per-dimension index specs of compiled plans to
// specs — the handler's stack scratch, matrix.InlineRank long, so the
// rank matrix serves without allocating is the rank the VM does —
// mirroring the tree walker's oneIndexSpec.
func (fr *frame) buildSpecs(plans []specPlan, specs []matrix.IndexSpec) ([]matrix.IndexSpec, error) {
	for _, p := range plans {
		var spec matrix.IndexSpec
		switch p.kind {
		case spScalar:
			spec = matrix.Scalar(int(fr.regs[p.r1].i))
		case spMask:
			spec = matrix.Mask(maskMatrix(fr.regs[p.r1].r))
		case spRange:
			spec = matrix.Span(int(fr.regs[p.r1].i), int(fr.regs[p.r2].i))
		case spAll:
			spec = matrix.All()
		case spDyn:
			switch x := fr.regs[p.r1].r.(type) {
			case int64:
				spec = matrix.Scalar(int(x))
			case *matrix.Matrix:
				spec = matrix.Mask(x)
			default:
				return nil, interp.Errorf(p.nd, "index must be an int or a bool matrix, got %T", x)
			}
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// execWith runs a with-loop: bounds and shape/base come in registers;
// the body proto runs once per generated index in a child frame with
// parallelism disabled (nests distribute the outermost construct
// only, exactly like the tree walker).
func (mc *Machine) execWith(fr *frame, in *instr) error {
	d := in.aux.(*withDesc)
	lower := make([]int, len(d.lower))
	upper := make([]int, len(d.upper))
	for k := range d.lower {
		lower[k] = int(fr.regs[d.lower[k]].i)
		upper[k] = int(fr.regs[d.upper[k]].i)
	}
	bp := mc.p.protos[d.body]
	template := make([]value, bp.nregs)
	for _, cp := range d.captures {
		template[cp.to] = fr.regs[cp.from]
	}
	bodyNode := bodyExprOf(d.w)
	// A body frame lives for one cell, like a call's (the body proto's
	// pool; dropped on an error): registers set from the template, no
	// pool of its own.
	body := func(idx []int) (any, error) {
		if err := mc.in.CheckCancel(bodyNode); err != nil {
			return nil, err
		}
		bf := bp.frame(nil, fr.depth+1)
		copy(bf.regs, template)
		for k := range idx {
			bf.regs[k].i = int64(idx[k])
		}
		err := mc.exec(bf, bp)
		mc.flush(bf)
		if err != nil {
			return nil, err
		}
		ret := boxValue(bf.ret, bf.retCl)
		bp.release(bf)
		return ret, nil
	}
	x := mc.in.Exec(fr.pool)
	if d.fold {
		base, ok := fr.foldBase(d)
		if !ok {
			return interp.Errorf(in.nd, "internal error: fold base in register class %d", d.foldInit.cl)
		}
		out, err := matrix.FoldExec(d.foldKind, base, lower, upper, body, x)
		if err != nil {
			return interp.WrapError(in.nd, err)
		}
		fr.setFold(in.a, out)
		return nil
	}
	shape := make([]int, len(d.shape))
	for k, r := range d.shape {
		shape[k] = int(fr.regs[r].i)
	}
	out, err := matrix.GenArrayExec(d.elem, lower, upper, shape, body, x)
	if err != nil {
		return interp.WrapError(in.nd, err)
	}
	fr.regs[in.a].r = out
	return nil
}

// execWithFlat runs a with-loop vet proved flat on the flat engine.
// handled=false means only what shows at run time — a leaf unassigned,
// an index the interval analysis cannot bound — with nothing observable
// done: no hook firings, no budget charges. The caller then runs the
// closure engine; the decline is counted.
func (mc *Machine) execWithFlat(fr *frame, in *instr) (bool, error) {
	d := in.aux.(*withDesc)
	fp := d.flat
	// Calls a plan emits in place tick no statement and open no frame:
	// under a step budget, or where the innermost callee's frame would
	// pass the depth limit, the closure path runs them. Not a decline.
	if fp.inline > 0 {
		if _, max := mc.in.StepBudget(); max > 0 || fr.depth+fp.inline > interp.MaxCallDepth {
			return false, nil
		}
	}
	handled, err := mc.runFlat(fr, in, d, fp)
	if handled {
		withFlatRun.Add(1)
	} else {
		withFlatDeclined.Add(1)
	}
	return handled, err
}

// bind fills a run's leaves from the frame's registers. A matrix
// register that holds no matrix (unassigned) binds nil, which the flat
// engine reports.
func (fp *flatPlan) bind(fr *frame, run *matrix.WithRun) {
	for k, r := range fp.mats {
		run.Mats[k], _ = fr.regs[r].r.(*matrix.Matrix)
	}
	for k, r := range fp.sI {
		run.ScalarI[k] = fr.regs[r].i
	}
	for k, r := range fp.sF {
		run.ScalarF[k] = fr.regs[r].f
	}
}

// execChain runs a fused elementwise chain on the flat engine. There is
// nothing to fall back to and nothing to decline: admission replays the
// unfused stages', and an error is anchored at its stage's node.
func (mc *Machine) execChain(fr *frame, in *instr) error {
	fp := in.aux.(*flatPlan)
	run := fp.prog.NewRun()
	defer run.Release()
	fp.bind(fr, run) // a nil leaf is the failing stage's "unassigned matrix"
	out, failed, err := matrix.ChainFlat(run, mc.in.Exec(fr.pool))
	if err != nil {
		nd := fp.nodes[failed]
		if errors.Is(err, matrix.ErrUnassignedOperand) {
			return interp.Errorf(nd, "use of unassigned matrix")
		}
		return interp.WrapError(nd, err)
	}
	fusedLoopsRun.Add(1)
	return fr.store(in.a, clR, out, in.nd)
}

func (mc *Machine) runFlat(fr *frame, in *instr, d *withDesc, fp *flatPlan) (bool, error) {
	run := fp.prog.NewRun()
	defer run.Release()
	fp.bind(fr, run)
	for k := range d.lower {
		run.Lower[k] = int(fr.regs[d.lower[k]].i)
		run.Upper[k] = int(fr.regs[d.upper[k]].i)
	}
	x := mc.in.Exec(fr.pool)
	if d.fold {
		base, _ := fr.foldBase(d)
		out, handled, err := matrix.FoldFlat(d.foldKind, base, run, x)
		if !handled {
			return false, nil
		}
		if err != nil {
			return true, interp.WrapError(in.nd, err)
		}
		fr.setFold(in.a, out)
		return true, nil
	}
	for k, r := range d.shape {
		run.Shape[k] = int(fr.regs[r].i)
	}
	out, handled, err := matrix.GenArrayFlat(run, x)
	if !handled {
		return false, nil
	}
	if err != nil {
		return true, interp.WrapError(in.nd, err)
	}
	fr.regs[in.a].r = out
	return true, nil
}

// foldBase reads a fold's base register in the fold's static type, the
// class of its result: an int is promoted when that is float. ok is
// false for a base in no int or float register.
func (fr *frame) foldBase(d *withDesc) (matrix.FoldValue, bool) {
	reg := fr.regs[d.foldInit.reg]
	switch d.foldInit.cl {
	case clF:
		return matrix.FoldValue{F: reg.f, Float: true}, true
	case clI:
		return matrix.FoldValue{I: reg.i, F: float64(reg.i), Float: d.resCl == clF}, true
	}
	return matrix.FoldValue{}, false
}

// setFold writes a fold's result into its register, in its class.
func (fr *frame) setFold(dst int32, v matrix.FoldValue) {
	if v.Float {
		fr.regs[dst].f = v.F
	} else {
		fr.regs[dst].i = v.I
	}
}

// bodyExprOf returns the with-loop's body expression node (the node
// the tree walker attributes per-element cancellation to).
func bodyExprOf(w *ast.WithLoop) ast.Node {
	switch op := w.Op.(type) {
	case *ast.GenArrayOp:
		return op.Body
	case *ast.FoldOp:
		return op.Body
	}
	return w
}

// execMatMap runs matrixMap / matrixMapG, calling the mapped function
// per sub-matrix.
func (mc *Machine) execMatMap(fr *frame, in *instr) error {
	d := in.aux.(*mapDesc)
	m, ok := fr.box(d.arg).(*matrix.Matrix)
	if !ok || m == nil {
		return interp.Errorf(d.e, "matrixMap requires a matrix argument")
	}
	p := mc.p.protos[d.proto]
	mapF := func(sub *matrix.Matrix, store func(*matrix.Matrix) error) error {
		// callProto for the one matrix argument (compileMatMap saw to
		// that), with nothing made for the call: sub goes straight into
		// the parameter's register and the result's escape reference into
		// the application's own pooled frame (a list on this stack would
		// be moved to the heap: finish is recursive).
		cf, err := mc.enter(p, d.e, fr.depth+1, nil)
		if err != nil {
			return err
		}
		if err := mc.bind(cf, p.params[0], sub, d.e); err != nil {
			return err
		}
		af := mc.mapApp.frame(nil, fr.depth)
		v, cl, err := mc.finish(cf, p, &af.pending, nil)
		if err != nil {
			return err
		}
		// The result is stored into the output before its escape
		// reference is dropped: the release below may recycle it.
		if res, ok := v.r.(*matrix.Matrix); ok && cl == clR && res != nil {
			err = store(res)
		} else {
			err = interp.Errorf(d.e, "matrixMap function %q returned %T, want a matrix", d.e.Fun, boxValue(v, cl))
		}
		mc.flush(af)
		mc.mapApp.release(af)
		return err
	}
	out, err := matrix.MatrixMapExec(m, d.dims, d.elem, d.general, mapF, mc.in.Exec(fr.pool))
	if err != nil {
		return interp.WrapError(d.e, err)
	}
	fr.regs[in.a].r = out
	return nil
}

// execSpawnOp launches a Cilk spawn: arguments were evaluated into
// registers by preceding instructions; here they are bound for the
// goroutine's lifetime, the (statically resolved) target is checked,
// and the callee runs in its own goroutine with parallelism disabled.
func (mc *Machine) execSpawnOp(fr *frame, in *instr) error {
	d := in.aux.(*spawnDesc)
	args := make([]any, len(d.args))
	for k, ad := range d.args {
		v := fr.box(ad)
		mc.in.BindValue(v)
		args[k] = v
	}
	if d.target.kind == tgUndeclared || d.target.kind == tgGlobal && int(d.target.reg) >= mc.bound {
		return interp.Errorf(d.s, "spawn target %q is not declared", d.name)
	}
	fut := &vmFuture{done: make(chan struct{}), node: d.s, args: args, target: d.target}
	depth := fr.depth
	go func() {
		defer close(fut.done)
		defer func() {
			if r := recover(); r != nil {
				fut.err = interp.Recovered(d.s, r)
			}
		}()
		fut.val, fut.err = mc.callProto(d.proto, args, d.s, depth, nil, &fut.pending)
	}()
	fr.futures = append(fr.futures, fut)
	return nil
}
