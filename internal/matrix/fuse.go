// Fused elementwise chain execution — the paper's §III-A.4 "no
// extraneous copy" optimization. A chain of elementwise/broadcast
// stages that vet.Facts proved fusable executes as ONE pass over the
// data: intermediates live in small block-sized free-list scratch
// buffers that stay cache-resident instead of full budget-backed
// matrices, and only the root result is materialized.
//
// Observable behavior must match running the stages through
// ElementwiseExec/BroadcastExec one at a time, because the bytecode
// VM that calls this is differentially fuzzed against the tree
// walker, which *does* run them one at a time:
//
//   - the allocation budget is charged per stage, in tree evaluation
//     (post-)order, exactly like the unfused engine — the unfused
//     engine recycles intermediate buffers but never refunds their
//     budget, so a fused run must consume identical budget;
//   - TestHookAllocFail fires once per stage with the stage's cell
//     count, in the same order;
//   - a nil (unassigned) matrix leaf, a shape mismatch or a budget
//     failure surfaces at the same stage — FusedExec reports the
//     failing stage index so the VM can anchor the error at that
//     stage's AST node, matching the tree walker's span;
//   - stage operators are restricted by the legality rules in
//     vet/facts.go to ones that cannot fail per element, so after
//     admission the single loop is total (only cooperative
//     cancellation can interrupt it).
package matrix

import (
	"errors"
	"fmt"
)

// ErrUnassignedOperand reports a nil matrix leaf; the VM maps it to
// the tree walker's "use of unassigned matrix" error at the failing
// stage's node.
var ErrUnassignedOperand = errors.New("matrix: unassigned operand in fused chain")

// fusedBlock is the number of cells of intermediate result kept live
// per stage while fusing: small enough that a several-stage chain's
// working set stays in L1/L2, large enough to amortize the per-block
// dispatch.
const fusedBlock = 4096

// FusedArgKind classifies one operand of a fused stage.
type FusedArgKind int

const (
	// FusedStageArg: the block-scratch result of an earlier stage.
	FusedStageArg FusedArgKind = iota
	// FusedMatrixArg: a full input matrix (nil if unassigned).
	FusedMatrixArg
	// FusedScalarArg: a scalar broadcast operand, pre-converted to the
	// chain's element type (F for float chains, I for int chains).
	FusedScalarArg
)

// FusedArg is one resolved operand of a fused stage.
type FusedArg struct {
	Kind  FusedArgKind
	Stage int
	Mat   *Matrix
	F     float64
	I     int64
}

// FusedStage is one elementwise operation of a resolved chain, in tree
// evaluation (post-)order: operands of stage i always have index < i.
type FusedStage struct {
	Op   Op
	L, R FusedArg
}

// FusedExec runs a proven-legal elementwise chain in a single pass.
// elem is the chain's element type (Float or Int). On error the
// returned stage index identifies which stage's admission or execution
// failed, so the caller can anchor the error at that stage's source
// span; it is -1 only for malformed chains.
func FusedExec(stages []FusedStage, elem Elem, x Exec) (*Matrix, int, error) {
	if len(stages) == 0 {
		return nil, -1, errors.New("matrix: empty fused chain")
	}

	// Admission replay: per stage, in order — nil checks, the
	// elementwise shape check, then admit, exactly as
	// ElementwiseExec/BroadcastExec admit one stage at a time.
	shapes := make([][]int, len(stages))
	var n int // the last admitted stage's cell count: the root's
	for idx := range stages {
		st := &stages[idx]
		lShape, lIsM, err := fusedOperandShape(st.L, shapes)
		if err != nil {
			return nil, idx, err
		}
		rShape, rIsM, err := fusedOperandShape(st.R, shapes)
		if err != nil {
			return nil, idx, err
		}
		var shape []int
		switch {
		case lIsM && rIsM:
			if !shapeEq(lShape, rShape) {
				return nil, idx, fmt.Errorf("matrix: %s requires equal shapes, got %v and %v", st.Op, lShape, rShape)
			}
			shape = lShape
		case lIsM:
			shape = lShape
		case rIsM:
			shape = rShape
		default:
			return nil, idx, errors.New("matrix: fused stage with two scalar operands")
		}
		if n, err = admit(x.Budget, shape); err != nil {
			return nil, idx, err
		}
		shapes[idx] = shape
	}

	// Elementwise checks force every stage to one common shape, so the
	// root's shape drives the single loop. The root was charged above
	// (last, like the unfused engine); allocate its storage now.
	root := len(stages) - 1
	if elem != Float && elem != Int {
		return nil, root, fmt.Errorf("matrix: fused chain over %s elements", elem)
	}
	out := alloc(elem, shapes[root], n, false)
	if n == 0 {
		return out, -1, nil
	}

	var body func(lo, hi int) error
	if elem == Float {
		body = func(lo, hi int) error { return fusedFloatRange(stages, out.f, lo, hi) }
	} else {
		body = func(lo, hi int) error { return fusedIntRange(stages, out.i, lo, hi) }
	}
	if err := runKernel(x, n, ParallelGrain, body); err != nil {
		out.Recycle()
		return nil, root, err
	}
	return out, -1, nil
}

// fusedOperandShape resolves an operand's shape (matrix-ish operands
// only), checking nil leaves.
func fusedOperandShape(a FusedArg, shapes [][]int) (shape []int, isMat bool, err error) {
	switch a.Kind {
	case FusedStageArg:
		return shapes[a.Stage], true, nil
	case FusedMatrixArg:
		if a.Mat == nil {
			return nil, true, ErrUnassignedOperand
		}
		return a.Mat.shape, true, nil
	}
	return nil, false, nil
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fusedFloatRange evaluates every stage over [lo, hi) in cache-sized
// blocks, reusing the arithmetic inner loops of the unfused kernels.
// Non-root stage results live in per-call scratch so concurrent chunks
// never share buffers.
func fusedFloatRange(stages []FusedStage, dst []float64, lo, hi int) error {
	root := len(stages) - 1
	blen := hi - lo
	if blen > fusedBlock {
		blen = fusedBlock
	}
	scratch := make([][]float64, root)
	for i := range scratch {
		scratch[i] = floatFree.take(blen, false)
	}
	defer func() {
		for _, s := range scratch {
			floatFree.put(s)
		}
	}()

	view := func(a FusedArg, blo, bhi int) []float64 {
		if a.Kind == FusedStageArg {
			return scratch[a.Stage][:bhi-blo]
		}
		return a.Mat.f[blo:bhi]
	}
	for blo := lo; blo < hi; blo += fusedBlock {
		bhi := blo + fusedBlock
		if bhi > hi {
			bhi = hi
		}
		bl := bhi - blo
		for idx := range stages {
			st := &stages[idx]
			d := dst[blo:bhi]
			if idx != root {
				d = scratch[idx][:bl]
			}
			switch {
			case st.L.Kind != FusedScalarArg && st.R.Kind != FusedScalarArg:
				ewArithFloat(st.Op, d, view(st.L, blo, bhi), view(st.R, blo, bhi), 0, bl)
			case st.R.Kind == FusedScalarArg:
				bcArithFloat(st.Op, d, view(st.L, blo, bhi), st.R.F, true, 0, bl)
			default:
				bcArithFloat(st.Op, d, view(st.R, blo, bhi), st.L.F, false, 0, bl)
			}
		}
	}
	return nil
}

// fusedIntRange is fusedFloatRange for int chains. The legality rules
// exclude the operators with per-element failure (/ %), so the inner
// loops cannot error; the error returns stay wired through regardless.
func fusedIntRange(stages []FusedStage, dst []int64, lo, hi int) error {
	root := len(stages) - 1
	blen := hi - lo
	if blen > fusedBlock {
		blen = fusedBlock
	}
	scratch := make([][]int64, root)
	for i := range scratch {
		scratch[i] = intFree.take(blen, false)
	}
	defer func() {
		for _, s := range scratch {
			intFree.put(s)
		}
	}()

	view := func(a FusedArg, blo, bhi int) []int64 {
		if a.Kind == FusedStageArg {
			return scratch[a.Stage][:bhi-blo]
		}
		return a.Mat.i[blo:bhi]
	}
	for blo := lo; blo < hi; blo += fusedBlock {
		bhi := blo + fusedBlock
		if bhi > hi {
			bhi = hi
		}
		bl := bhi - blo
		for idx := range stages {
			st := &stages[idx]
			d := dst[blo:bhi]
			if idx != root {
				d = scratch[idx][:bl]
			}
			var err error
			switch {
			case st.L.Kind != FusedScalarArg && st.R.Kind != FusedScalarArg:
				err = ewArithInt(st.Op, d, view(st.L, blo, bhi), view(st.R, blo, bhi), 0, bl)
			case st.R.Kind == FusedScalarArg:
				err = bcArithInt(st.Op, d, view(st.L, blo, bhi), st.R.I, true, 0, bl)
			default:
				err = bcArithInt(st.Op, d, view(st.R, blo, bhi), st.L.I, false, 0, bl)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
