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
//     would have built, and a stage its output. Neither is ever
//     allocated; an int operand of a float stage is converted as it is
//     loaded, by the fused loop as by a lone operation, and charges
//     nothing;
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
// shape.
type chainVal struct {
	kind  uint8
	shape []int
}

const (
	chainScalar uint8 = iota
	chainUnassigned
	chainMatrix
)

// ChainFlat runs a proven elementwise chain: r's program is a rank-1
// plan of leaf loads at id 0, range leaves (id 0 plus int scalar slot A,
// the lo; the hi is slot B), WI2F after an int leaf, scalar pushes and
// one + - * / per stage, and r.Mats holds the matrix leaves as they are,
// nil when unassigned. On error the returned index — range leaves and
// stages count together in plan order, the tree's post-order —
// identifies the admission or execution that failed, so the caller can
// anchor the error at its source span.
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
	out := r.Keep.alloc(elem, shape, n, false)
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

// admitChain replays the unfused engine's admission over the plan, per
// range leaf and stage, in order — nil checks, the elementwise shape
// check on the leaves' real shapes, then admit, exactly as
// RangeBudgeted, ElementwiseExec and BroadcastExec admit one at a time.
// It returns the root's shape, cell count and index, or the failing
// admission's index and its error. The plan is vet's, verified by
// CompileWith: every stage has a matrix operand.
func (r *WithRun) admitChain(b *Budget) (shape []int, n, stage int, err error) {
	code := r.prog.spec.Code
	st := grow(r.chain, len(code))[:0]
	r.chain = st
	r.dims = grow(r.dims, len(code))[:0] // a range leaf's shape: one cell of this
	stage = -1
	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		switch in.Op {
		case WPushID: // the cell every leaf is loaded at; a range leaf's lo follows
			if code[pc+1].Op != WPushScalarI {
				continue
			}
			lo, hi := code[pc+1].A, code[pc+1].B
			pc += 2
			stage++
			r.dims = append(r.dims, rangeCells(r.ScalarI[lo], r.ScalarI[hi]))
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
		case WAddI, WSubI, WMulI, WAddF, WSubF, WMulF, WDivF:
			stage++
			lv, rv := st[len(st)-2], st[len(st)-1]
			st = st[:len(st)-2]
			if lv.kind == chainUnassigned || rv.kind == chainUnassigned {
				return nil, 0, stage, ErrUnassignedOperand
			}
			shape = lv.shape
			if rv.kind == chainMatrix {
				if lv.kind == chainMatrix && !slices.Equal(lv.shape, rv.shape) {
					return nil, 0, stage, fmt.Errorf("matrix: %s requires equal shapes, got %v and %v", chainOp[in.Op], lv.shape, rv.shape)
				}
				shape = rv.shape
			}
			if n, err = admit(b, shape); err != nil {
				return nil, 0, stage, err
			}
			st = append(st, chainVal{kind: chainMatrix, shape: shape})
		}
	}
	return shape, n, stage, nil
}

// chainOp names a stage's operator in the shape error.
var chainOp = map[WithOp]Op{
	WAddI: OpAdd, WSubI: OpSub, WMulI: OpMul,
	WAddF: OpAdd, WSubF: OpSub, WMulF: OpMul, WDivF: OpDiv,
}
