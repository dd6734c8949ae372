// The switch-dispatch execution loop. Every instruction that can trap
// attributes the error to its span-table node (instr.nd) through the
// interp engine's error constructors, so trap codes, texts and spans
// are byte-identical to the tree walker's.
package vm

import (
	"sync/atomic"

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

func (mc *Machine) exec(fr *frame, p *proto) error {
	code := p.code
	regs := fr.regs
	for pc := 0; pc < len(code); {
		in := &code[pc]
		switch in.op {
		case opNop:

		case opStep:
			// Statement boundary: the previous statement's pending rc
			// references die, then the new statement ticks the budget.
			if len(fr.pending) > 0 {
				mc.flush(fr)
			}
			if err := mc.in.StepTick(in.nd); err != nil {
				return err
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

		case opConstI:
			regs[in.a].i = int64(in.b)
		case opLoadK:
			regs[in.a] = mc.p.consts[in.b]
		case opMove:
			regs[in.a] = regs[in.b]

		case opGLoad:
			regs[in.a] = mc.globals[in.b]
		case opGStore:
			mc.globals[in.a] = regs[in.b]
		case opGBindR:
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
		case opCoerce:
			v, err := interp.CoerceValue(in.nd, in.aux.(*typeAux).ty, fr.box(in.aux.(*typeAux).src))
			if err != nil {
				return err
			}
			regs[in.a].r = v
		case opPromote:
			regs[in.a].r = interp.PromoteScalar(in.aux.(*typeAux).ty, fr.box(in.aux.(*typeAux).src))
		case opBindR:
			v := regs[in.b].r
			mc.in.BindValue(v)
			mc.in.ReleaseValue(regs[in.a].r)
			regs[in.a].r = v
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
			if err := fr.store(in.a, class(in.b), v, in.nd); err != nil {
				return err
			}
		case opFused:
			if err := mc.execChain(fr, in); err != nil {
				return err
			}

		case opUnM:
			d := in.aux.(*unDesc)
			v, err := interp.EvalUnary(d.e, fr.box(d.x), mc.in.Exec(fr.pool))
			if err != nil {
				return err
			}
			if err := fr.store(in.a, class(in.b), v, in.nd); err != nil {
				return err
			}
		case opCastD:
			d := in.aux.(*castAux)
			v, err := interp.CastScalar(in.nd, d.to, fr.box(d.x))
			if err != nil {
				return err
			}
			if err := fr.store(in.a, class(in.b), v, in.nd); err != nil {
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
