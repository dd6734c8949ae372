// The switch-dispatch execution loop. Every instruction that can trap
// attributes the error to its span-table node (instr.nd) through the
// interp engine's error constructors, so trap codes, texts and spans
// are byte-identical to the tree walker's.
package vm

import (
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/matrix"
)

// fusedLoopsRun counts opFused executions across all machines, for the
// driver's vm_fused_loops metric.
var fusedLoopsRun atomic.Int64

// FusedLoopsRun reports the number of fused chain loops executed by
// the VM process-wide.
func FusedLoopsRun() int64 { return fusedLoopsRun.Load() }

// withFlatRun counts with-loops executed on the flat engine (rather
// than falling back to the per-element closure path) across all
// machines, for the driver's vm_with_flat_loops metric.
var withFlatRun atomic.Int64

// WithFlatLoopsRun reports the number of with-loops the VM executed on
// the flat engine process-wide.
func WithFlatLoopsRun() int64 { return withFlatRun.Load() }

// withFlatDeclined counts executions of a flat-compiled with-loop that
// the flat engine handed back to the closure path at run time.
var withFlatDeclined atomic.Int64

// WithFlatLoopsDeclined reports the number of flat-compiled with-loop
// executions that fell back to the closure path process-wide.
func WithFlatLoopsDeclined() int64 { return withFlatDeclined.Load() }

// pollEvery is how many statement ticks pass between two polls of the
// run's context; the first tick of every exec polls. EXPERIMENTS.md E22
// has the measurement the value comes from.
const pollEvery = 256

// exec runs p's code in fr. Its switch holds the handlers that work
// register to register (nothing boxed) and the in-range case of rank-1
// indexing; every other opcode, and every error exit of the rank-1
// group, is execSlow's.
//
// The statement tick (opStep) has three cases, told apart by two tests
// that do not change during a run. A run with no step budget and no
// cancellable context has nothing to do. A run with a context polls it
// on a countdown: the first tick of every exec — so a context cancelled
// before the run traps at main's first statement, like the tree walker
// — and then every pollEvery ticks; which statement a deadline that
// passes mid-run is noticed at depends on the clock on either engine,
// and matrix kernels and with-loop cells poll inside themselves. A run
// with MaxSteps debits one step a statement, at the statement.
func (mc *Machine) exec(fr *frame, p *proto) error {
	code := p.code
	regs := fr.regs
	ticking := mc.ticking
	poll := int32(0)
	for pc := 0; pc < len(code); {
		in := &code[pc]
		switch in.op {
		case opNop:

		case opStep:
			// Statement boundary: the previous statement's pending rc
			// references die, then the new statement ticks.
			if len(fr.pending) > 0 {
				mc.flush(fr)
			}
			if ticking {
				if poll -= in.a; poll < 0 {
					if err := mc.in.CheckCancel(in.nd); err != nil {
						return err
					}
					poll = pollEvery
				}
				if steps, max := mc.in.StepBudget(); max > 0 {
					if used := steps.Add(int64(in.a)); used > max {
						return mc.stepTrap(in, used-1 > max)
					}
				}
			}

		case opFlush:
			mc.flush(fr)

		case opJmp:
			pc = int(in.c)
			continue
		case opBrFalse:
			if regs[in.a].i == 0 {
				pc = int(in.c)
				continue
			}
		case opBrTrue:
			if regs[in.a].i != 0 {
				pc = int(in.c)
				continue
			}

		case opRet:
			fr.hasRet = true
			if in.a >= 0 {
				fr.ret, fr.retCl = regs[in.a], class(in.b)
			}
			return nil

		case opFail:
			return in.aux.(error)

		// Fused branch-if-false compare-and-branch forms: jump when
		// the source comparison does NOT hold.
		case opBrLtI:
			if !(regs[in.a].i < regs[in.b].i) {
				pc = int(in.c)
				continue
			}
		case opBrLeI:
			if !(regs[in.a].i <= regs[in.b].i) {
				pc = int(in.c)
				continue
			}
		case opBrGtI:
			if !(regs[in.a].i > regs[in.b].i) {
				pc = int(in.c)
				continue
			}
		case opBrGeI:
			if !(regs[in.a].i >= regs[in.b].i) {
				pc = int(in.c)
				continue
			}
		case opBrEqI:
			if regs[in.a].i != regs[in.b].i {
				pc = int(in.c)
				continue
			}
		case opBrNeI:
			if regs[in.a].i == regs[in.b].i {
				pc = int(in.c)
				continue
			}
		case opBrLtIK:
			if !(regs[in.a].i < int64(in.b)) {
				pc = int(in.c)
				continue
			}
		case opBrLeIK:
			if !(regs[in.a].i <= int64(in.b)) {
				pc = int(in.c)
				continue
			}
		case opBrGtIK:
			if !(regs[in.a].i > int64(in.b)) {
				pc = int(in.c)
				continue
			}
		case opBrGeIK:
			if !(regs[in.a].i >= int64(in.b)) {
				pc = int(in.c)
				continue
			}
		case opBrEqIK:
			if regs[in.a].i != int64(in.b) {
				pc = int(in.c)
				continue
			}
		case opBrNeIK:
			if regs[in.a].i == int64(in.b) {
				pc = int(in.c)
				continue
			}

		// Fused back edges: increment, then jump back while the loop
		// condition holds.
		case opIncJLtI:
			regs[in.a].i++
			if regs[in.a].i < regs[in.b].i {
				pc = int(in.c)
				continue
			}
		case opIncJLeI:
			regs[in.a].i++
			if regs[in.a].i <= regs[in.b].i {
				pc = int(in.c)
				continue
			}
		case opIncJLtIK:
			regs[in.a].i++
			if regs[in.a].i < int64(in.b) {
				pc = int(in.c)
				continue
			}
		case opIncJLeIK:
			regs[in.a].i++
			if regs[in.a].i <= int64(in.b) {
				pc = int(in.c)
				continue
			}

		case opConstI:
			regs[in.a].i = int64(in.b)
		case opLoadK:
			regs[in.a] = mc.p.consts[in.b]
		case opMove:
			regs[in.a].i, regs[in.a].f = regs[in.b].i, regs[in.b].f

		// A global not bound yet goes to execSlow, which binds it at its
		// initializer's store and fails every other access.
		case opGLoad:
			if int(in.b) < mc.bound {
				regs[in.a] = mc.globals[in.b]
			} else {
				return mc.execSlow(fr, in)
			}
		case opGStore:
			if int(in.a) >= mc.bound {
				if err := mc.execSlow(fr, in); err != nil {
					return err
				}
			}
			mc.globals[in.a] = regs[in.b]
		case opGBindR:
			if int(in.a) >= mc.bound {
				if err := mc.execSlow(fr, in); err != nil {
					return err
				}
			}
			v := regs[in.b].r
			mc.in.BindValue(v)
			mc.in.ReleaseValue(mc.globals[in.a].r)
			mc.globals[in.a].r = v

		case opAddI:
			regs[in.a].i = regs[in.b].i + regs[in.c].i
		case opSubI:
			regs[in.a].i = regs[in.b].i - regs[in.c].i
		case opMulI:
			regs[in.a].i = regs[in.b].i * regs[in.c].i
		case opDivI:
			d := regs[in.c].i
			if d == 0 {
				return interp.Errorf(in.nd, "matrix: integer division by zero")
			}
			regs[in.a].i = regs[in.b].i / d
		case opModI:
			d := regs[in.c].i
			if d == 0 {
				return interp.Errorf(in.nd, "matrix: integer modulo by zero")
			}
			regs[in.a].i = regs[in.b].i % d
		case opNegI:
			regs[in.a].i = -regs[in.b].i
		case opAddIK:
			regs[in.a].i = regs[in.b].i + int64(in.c)
		case opMulIK:
			regs[in.a].i = regs[in.b].i * int64(in.c)
		case opDivIK:
			regs[in.a].i = regs[in.b].i / int64(in.c)
		case opModIK:
			regs[in.a].i = regs[in.b].i % int64(in.c)

		case opAddF:
			regs[in.a].f = regs[in.b].f + regs[in.c].f
		case opSubF:
			regs[in.a].f = regs[in.b].f - regs[in.c].f
		case opMulF:
			regs[in.a].f = regs[in.b].f * regs[in.c].f
		case opDivF:
			regs[in.a].f = regs[in.b].f / regs[in.c].f
		case opNegF:
			regs[in.a].f = -regs[in.b].f

		case opLtI:
			regs[in.a].i = b2i(regs[in.b].i < regs[in.c].i)
		case opLeI:
			regs[in.a].i = b2i(regs[in.b].i <= regs[in.c].i)
		case opGtI:
			regs[in.a].i = b2i(regs[in.b].i > regs[in.c].i)
		case opGeI:
			regs[in.a].i = b2i(regs[in.b].i >= regs[in.c].i)
		case opEqI:
			regs[in.a].i = b2i(regs[in.b].i == regs[in.c].i)
		case opNeI:
			regs[in.a].i = b2i(regs[in.b].i != regs[in.c].i)
		case opLtF:
			regs[in.a].i = b2i(regs[in.b].f < regs[in.c].f)
		case opLeF:
			regs[in.a].i = b2i(regs[in.b].f <= regs[in.c].f)
		case opGtF:
			regs[in.a].i = b2i(regs[in.b].f > regs[in.c].f)
		case opGeF:
			regs[in.a].i = b2i(regs[in.b].f >= regs[in.c].f)
		case opEqF:
			regs[in.a].i = b2i(regs[in.b].f == regs[in.c].f)
		case opNeF:
			regs[in.a].i = b2i(regs[in.b].f != regs[in.c].f)
		case opEqB:
			regs[in.a].i = b2i(regs[in.b].i == regs[in.c].i)
		case opNeB:
			regs[in.a].i = b2i(regs[in.b].i != regs[in.c].i)
		case opNotB:
			regs[in.a].i = 1 - regs[in.b].i

		case opI2F:
			regs[in.a].f = float64(regs[in.b].i)
		case opF2I:
			regs[in.a].i = int64(regs[in.b].f)
		case opB2I:
			regs[in.a].i = regs[in.b].i
		case opI2B:
			regs[in.a].i = b2i(regs[in.b].i != 0)
		case opF2B:
			regs[in.a].i = b2i(regs[in.b].f != 0)
		case opB2F:
			regs[in.a].f = float64(regs[in.b].i)

		case opUnboxI:
			regs[in.a].i = regs[in.b].r.(int64)
		case opUnboxF:
			regs[in.a].f = regs[in.b].r.(float64)
		case opUnboxB:
			regs[in.a].i = b2i(regs[in.b].r.(bool))
		case opToBool:
			b, ok := regs[in.b].r.(bool)
			if !ok {
				return interp.Errorf(in.nd, "condition evaluated to %T, not bool", regs[in.b].r)
			}
			regs[in.a].i = b2i(b)
		case opToInt:
			n, ok := regs[in.b].r.(int64)
			if !ok {
				return interp.Errorf(in.nd, "expected an int value, got %T", regs[in.b].r)
			}
			regs[in.a].i = n
		case opBindR:
			v := regs[in.b].r
			mc.in.BindValue(v)
			mc.in.ReleaseValue(regs[in.a].r)
			regs[in.a].r = v
		// Rank-1 indexing of a trusted base, in range. Anything else —
		// an unassigned base (no matrix has no cells), a rank mismatch,
		// an index out of range — falls to execSlow, which raises the
		// error.
		case opIdxCheck:
			if m, _ := regs[in.a].r.(*matrix.Matrix); m == nil || m.Rank() != int(in.b) {
				if err := mc.execSlow(fr, in); err != nil {
					return err
				}
			}
		case opIdx1F:
			m, _ := regs[in.b].r.(*matrix.Matrix)
			if fl, i := m.Floats(), regs[in.c].i; uint64(i) < uint64(len(fl)) {
				regs[in.a].f = fl[i]
			} else if err := mc.execSlow(fr, in); err != nil {
				return err
			}
		case opIdx1I:
			m, _ := regs[in.b].r.(*matrix.Matrix)
			if is, i := m.Ints(), regs[in.c].i; uint64(i) < uint64(len(is)) {
				regs[in.a].i = is[i]
			} else if err := mc.execSlow(fr, in); err != nil {
				return err
			}
		case opIdx1B:
			m, _ := regs[in.b].r.(*matrix.Matrix)
			if bs, i := m.Bools(), regs[in.c].i; uint64(i) < uint64(len(bs)) {
				regs[in.a].i = b2i(bs[i])
			} else if err := mc.execSlow(fr, in); err != nil {
				return err
			}
		case opSetIdx1F:
			m, _ := regs[in.a].r.(*matrix.Matrix)
			if fl, i := m.Floats(), regs[in.b].i; uint64(i) < uint64(len(fl)) {
				fl[i] = regs[in.c].f
			} else if err := mc.execSlow(fr, in); err != nil {
				return err
			}
		case opSetIdx1I:
			m, _ := regs[in.a].r.(*matrix.Matrix)
			if is, i := m.Ints(), regs[in.b].i; uint64(i) < uint64(len(is)) {
				is[i] = regs[in.c].i
			} else if err := mc.execSlow(fr, in); err != nil {
				return err
			}
		case opSetIdx1B:
			m, _ := regs[in.a].r.(*matrix.Matrix)
			if bs, i := m.Bools(), regs[in.b].i; uint64(i) < uint64(len(bs)) {
				bs[i] = regs[in.c].i != 0
			} else if err := mc.execSlow(fr, in); err != nil {
				return err
			}

		default:
			if err := mc.execSlow(fr, in); err != nil {
				return err
			}
		}
		pc++
	}
	return nil
}

// stepTrap is the step budget's trap for an opStep whose debit passed
// the bound: at the second of two statements when the first one's tick
// still fit, else at the first.
func (mc *Machine) stepTrap(in *instr, firstPassed bool) error {
	if in.a == 2 && !firstPassed {
		second, _ := in.aux.(ast.Node)
		return mc.in.StepTrap(second)
	}
	return mc.in.StepTrap(in.nd)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// maskMatrix converts a boxed mask operand, tolerating the nil-matrix
// case exactly like the tree walker (a nil *Matrix reaches
// matrix.Mask and panics inside the kernel, recovered as trap:panic).
func maskMatrix(v any) *matrix.Matrix {
	m, _ := v.(*matrix.Matrix)
	return m
}
