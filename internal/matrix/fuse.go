// Fused elementwise chains — the paper's §III-A.4 "no extraneous copy"
// optimization — on the strip engine. A chain of elementwise/broadcast
// stages that vet.Facts proved fusable is the rank-1 plan whose body
// loads every matrix leaf at the output cell: it runs as ONE pass over
// the data, intermediates live in strip registers, and only the root
// result is materialized. What is the chain's own is the admission.
//
// Observable behavior must match running the stages through
// RangeBudgeted and ElementwiseExec/BroadcastExec one at a time, because
// the bytecode VM that calls this is differentially fuzzed against the
// tree walker, which *does* run them one at a time:
//
//   - the allocation budget is charged per admission, in tree evaluation
//     (post-)order, exactly like the unfused engine — the unfused
//     engine recycles intermediate buffers but never refunds their
//     budget, so a fused run must consume identical budget. A range
//     leaf admits, at its place in that order, the vector RangeBudgeted
//     would have built; a stage admits its output and then, left operand
//     first, charges its cell count once more for each int operand of a
//     float stage, as a lone operation charges a promoted operand
//     (Budget.Charge alone, as there). Neither is ever allocated;
//   - TestHookAllocFail fires once per range leaf and once per stage
//     with its cell count, in the same order;
//   - a nil (unassigned) matrix leaf, a shape mismatch or a budget
//     failure surfaces at the same admission — ChainFlat reports its
//     index so the VM can anchor the error at that AST node (the range
//     literal, the stage's operator), matching the tree walker's span;
//   - stage operators are restricted by the legality rules in
//     vet/facts.go to ones that cannot fail per element, so after
//     admission the single loop is total (only cooperative
//     cancellation can interrupt it).
package matrix

import (
	"errors"
	"fmt"
	"slices"
)

// ErrUnassignedOperand reports a nil matrix leaf; the VM maps it to
// the tree walker's "use of unassigned matrix" error at the failing
// stage's node.
var ErrUnassignedOperand = errors.New("matrix: unassigned operand in fused chain")

// chainVal is one operand on the admission replay's stack: a scalar, an
// unassigned matrix leaf, or a matrix — leaf or stage result — by its
// shape; promote marks int cells a float stage converts.
type chainVal struct {
	kind    uint8
	promote bool
	shape   []int
}

const (
	chainScalar uint8 = iota
	chainUnassigned
	chainMatrix
)

// ChainFlat runs a proven elementwise chain: r's program is a rank-1
// plan of leaf loads at id 0, range leaves (id 0 plus int scalar slot A,
// the lo; the hi is slot A+1), WI2F after an int leaf, scalar pushes and
// one + - * / per stage, and r.Mats holds the matrix leaves as they are,
// nil when unassigned. On error the returned index — range leaves and
// stages count together in plan order, the tree's post-order —
// identifies the admission or execution that failed, so the caller can
// anchor the error at its source span; it is -1 only for malformed chains.
func ChainFlat(r *WithRun, x Exec) (*Matrix, int, error) {
	shape, n, root, err := r.admitChain(x.Budget)
	if err != nil {
		return nil, root, err
	}
	// Elementwise checks force every stage to one common shape, so the
	// root's drives the single loop. It was charged last, like the
	// unfused engine's; take its storage now.
	elem := Int
	if r.prog.spec.OutFloat {
		elem = Float
	}
	out := alloc(elem, shape, n, false)
	if err := r.runFlat(out, n, x); err != nil {
		out.Recycle()
		return nil, root, err
	}
	return out, -1, nil
}

// runFlat evaluates r's rank-1 program into the n cells of out, the
// loop of a chain or of a lone operation: every leaf has n cells, so it
// walks the flat box [0, n) over flat views, whatever the rank. The
// split is the one ParallelGrain sets for elementwise work, not a
// genarray's poolGrain: serial below two grains of cells.
func (r *WithRun) runFlat(out *Matrix, n int, x Exec) error {
	if n == 0 {
		return nil
	}
	r.Lower[0], r.Upper[0] = 0, n
	r.views = grow(r.views, len(r.Mats))
	for k, m := range r.Mats {
		m.flatView(&r.views[k])
		r.Mats[k] = &r.views[k]
	}
	return r.fill(out, ParallelGrain, x)
}

var errMalformedChain = errors.New("matrix: malformed fused chain")

// admitChain replays the unfused engine's admission over the plan, per
// range leaf and stage, in order — nil checks, the elementwise shape
// check on the leaves' real shapes, then admit and the promotion
// charges, exactly as RangeBudgeted, ElementwiseExec and BroadcastExec
// admit one at a time. It returns the root's shape, cell count and
// index, or the failing admission's index and its error.
func (r *WithRun) admitChain(b *Budget) (shape []int, n, stage int, err error) {
	code := r.prog.spec.Code
	st := grow(r.chain, len(code))[:0]
	r.chain = st
	r.dims = grow(r.dims, len(code))[:0] // a range leaf's shape: one cell of this
	stage = -1
	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		switch in.Op {
		case WPushID: // the cell every leaf is loaded at
			if pc+2 >= len(code) || code[pc+1].Op != WPushScalarI {
				continue
			}
			lo := code[pc+1].A
			if code[pc+2].Op != WAddI || int(lo)+1 >= len(r.ScalarI) {
				return nil, 0, -1, errMalformedChain
			}
			pc += 2
			stage++
			r.dims = append(r.dims, rangeCells(r.ScalarI[lo], r.ScalarI[lo+1]))
			shape = r.dims[len(r.dims)-1:]
			if n, err = admit(b, shape); err != nil {
				return nil, 0, stage, err
			}
			st = append(st, chainVal{kind: chainMatrix, shape: shape})
		case WPushInt, WPushFloat, WPushScalarI, WPushScalarF:
			st = append(st, chainVal{kind: chainScalar})
		case WLoadI, WLoadF:
			v := chainVal{kind: chainUnassigned}
			if m := r.Mats[in.A]; m != nil {
				v = chainVal{kind: chainMatrix, shape: m.shape()}
			}
			st = append(st, v)
		case WI2F:
			if len(st) < 1 || st[len(st)-1].kind == chainScalar {
				return nil, 0, -1, errMalformedChain
			}
			st[len(st)-1].promote = true
		case WAddI, WSubI, WMulI, WAddF, WSubF, WMulF, WDivF:
			if len(st) < 2 {
				return nil, 0, -1, errMalformedChain
			}
			stage++
			lv, rv := st[len(st)-2], st[len(st)-1]
			st = st[:len(st)-2]
			if lv.kind == chainUnassigned || rv.kind == chainUnassigned {
				return nil, 0, stage, ErrUnassignedOperand
			}
			switch {
			case lv.kind == chainMatrix && rv.kind == chainMatrix:
				if !slices.Equal(lv.shape, rv.shape) {
					return nil, 0, stage, fmt.Errorf("matrix: %s requires equal shapes, got %v and %v", chainOp[in.Op], lv.shape, rv.shape)
				}
				shape = lv.shape
			case lv.kind == chainMatrix:
				shape = lv.shape
			case rv.kind == chainMatrix:
				shape = rv.shape
			default:
				return nil, 0, stage, errors.New("matrix: fused stage with two scalar operands")
			}
			if n, err = admit(b, shape); err != nil {
				return nil, 0, stage, err
			}
			for _, v := range [2]chainVal{lv, rv} {
				if v.promote {
					if err = b.Charge(n); err != nil {
						return nil, 0, stage, err
					}
				}
			}
			st = append(st, chainVal{kind: chainMatrix, shape: shape})
		default:
			return nil, 0, -1, errMalformedChain
		}
	}
	if stage < 0 || len(st) != 1 || st[0].promote {
		return nil, 0, -1, errMalformedChain
	}
	return shape, n, stage, nil
}

// chainOp names a stage's operator in the shape error.
var chainOp = map[WithOp]Op{
	WAddI: OpAdd, WSubI: OpSub, WMulI: OpMul,
	WAddF: OpAdd, WSubF: OpSub, WMulF: OpMul, WDivF: OpDiv,
}
