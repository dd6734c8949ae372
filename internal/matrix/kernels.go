// Type-specialized, pool-parallel arithmetic kernels — the hot half of
// the runtime the paper's fork-join model (§III-C) exists for. The
// generic paths in ops.go box every element through `any` and a
// per-element scalarOp call; these kernels validate the (op, elem)
// combination once up front, then run tight loops directly over the
// backing []float64/[]int64/[]bool slices, with the iteration space
// chunked over a fork-join construct when the matrix is large enough
// to amortize the fork (see ParallelGrain).
//
// Mixed int/float operands are promoted once into a free-list-backed
// float64 scratch buffer (one conversion pass) instead of converting
// per element per operator; the scratch goes straight back to the free
// list. Outputs come from newKernelOut, which skips zeroing because
// every kernel writes each cell of its range exactly once (MatMulExec
// clears its own rows before accumulating).
//
// The kernels keep PR 2's crash contract: errors (integer division by
// zero, budget, cancellation) return through the Exec machinery, pool
// workers are panic-isolated by par.Pool, and cooperative abort / ctx
// polls run between chunks so a cancelled request stops mid-kernel.
package matrix

import (
	"fmt"
	"sync/atomic"
)

// ParallelGrain is the minimum number of elements a parallel chunk must
// hold for a kernel to be distributed over the pool; anything smaller
// runs serially (a fork costs the caller about a microsecond, ten when
// an idle CPU has to be woken for the helper, and the helper then needs
// tens of microseconds to come up — until then the caller does the
// work).
// For MatMulExec the grain is interpreted in fused multiply-adds, so
// even a single large row can be a chunk. Set it before creating
// traffic; mutating it concurrently with running kernels is a race.
var ParallelGrain = 8192

// Process-wide kernel execution counters, surfaced on driver /metrics
// as kernel_parallel_total / kernel_serial_total / kernel_buffers_reused.
var (
	kernelParallelCount atomic.Int64
	kernelSerialCount   atomic.Int64
	kernelBuffersReused atomic.Int64
)

// KernelStats returns the process-wide kernel counters: constructs run
// on the pool, constructs run serially, and outputs or scratch buffers
// served from the backing-slice free list.
func KernelStats() (parallel, serial, buffersReused int64) {
	return kernelParallelCount.Load(), kernelSerialCount.Load(), kernelBuffersReused.Load()
}

// Process-wide per-kernel-family counters, surfaced on driver /metrics
// as kernel_transpose_total / kernel_conv_total / kernel_reduce_total.
var (
	kernelTransposeCount atomic.Int64
	kernelConvCount      atomic.Int64
	kernelReduceCount    atomic.Int64
)

// KernelOpStats returns the per-family kernel invocation counters:
// transposes (including with-loops compiled to the transpose kernel),
// 2-D convolutions, and axis reductions.
func KernelOpStats() (transpose, conv, reduce int64) {
	return kernelTransposeCount.Load(), kernelConvCount.Load(), kernelReduceCount.Load()
}

// ResetKernelStats zeroes the kernel counters (tests only).
func ResetKernelStats() {
	kernelParallelCount.Store(0)
	kernelSerialCount.Store(0)
	kernelBuffersReused.Store(0)
}

// newKernelOut allocates a kernel output like NewBudgeted — the same
// admission — but skips zeroing a reused buffer, because the kernel
// writes every cell of its range.
func newKernelOut(b *Budget, elem Elem, shape []int) (*Matrix, error) {
	n, err := admit(b, shape)
	if err != nil {
		return nil, err
	}
	return alloc(elem, shape, n, false), nil
}

// runKernel executes body over [0, n) in chunks of at least grain
// elements, claimed one at a time through par.ParallelChunksCtx, which
// carries the cooperative abort flag, panic isolation and the deadline
// poll between chunks. A kernel counts as serial, and runs on the
// caller alone in chunks of exactly grain, when the pool has one worker
// or there is too little work for two chunks; otherwise [0, n) is cut
// into at most 4 spans a worker, and the span list is the schedule.
func runKernel(x Exec, n, grain int, body func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	grain = max(grain, 1)
	pool := x.Pool
	if pool.Workers() == 1 || n < 2*grain {
		kernelSerialCount.Add(1)
		pool = nil
	} else {
		kernelParallelCount.Add(1)
		chunks := min((n+grain-1)/grain, pool.Workers()*4)
		grain = (n + chunks - 1) / chunks
	}
	return pool.ParallelChunksCtx(x.Ctx, n, grain, body)
}

// validateBinary checks an (op, elem, elem) combination and returns the
// result element type — the single up-front validation the kernels rely
// on so no allocation happens for a combination that cannot execute.
// Int division/modulo by zero remains a runtime error (data-dependent).
func validateBinary(op Op, a, b Elem) (Elem, error) {
	if op.isLogical() {
		if a != Bool || b != Bool {
			return 0, fmt.Errorf("matrix: %s requires bool operands", op)
		}
		return Bool, nil
	}
	if a == Bool || b == Bool {
		if a == Bool && b == Bool && (op == OpEq || op == OpNe) {
			return Bool, nil
		}
		return 0, fmt.Errorf("matrix: %s cannot compare bool values", op)
	}
	if op == OpMod && (a == Float || b == Float) {
		return 0, fmt.Errorf("matrix: %s is not a float operator", op)
	}
	if op.isComparison() {
		return Bool, nil
	}
	if a == Float || b == Float {
		return Float, nil
	}
	return Int, nil
}

// floatScratch returns m's storage as []float64. Float matrices alias
// their own storage (scratch=false); int matrices are converted once
// into a free-list-backed, budget-charged scratch buffer the caller
// must release with releaseFloatScratch.
func floatScratch(x Exec, m *Matrix) (view []float64, scratch bool, err error) {
	if m.elem == Float {
		return m.floats(), false, nil
	}
	n := len(m.ints())
	if err := x.Budget.Charge(n); err != nil {
		return nil, false, err
	}
	s := floatFree.take(n, false)
	for k, v := range m.ints() {
		s[k] = float64(v)
	}
	return s, true, nil
}

func releaseFloatScratch(s []float64, scratch bool) {
	if scratch {
		floatFree.put(s)
	}
}

// ElementwiseExec applies op pointwise over two matrices of equal shape
// through the specialized kernels, on x's pool/budget/context. The
// result is always freshly allocated (never an alias of an operand).
func ElementwiseExec(op Op, a, b *Matrix, x Exec) (*Matrix, error) {
	if !a.SameShape(b) {
		return nil, fmt.Errorf("matrix: %s requires equal shapes, got %v and %v", op, a.shape(), b.shape())
	}
	oe, err := validateBinary(op, a.elem, b.elem)
	if err != nil {
		return nil, err
	}
	out, err := newKernelOut(x.Budget, oe, a.shape())
	if err != nil {
		return nil, err
	}
	n := out.Size()
	if n == 0 {
		return out, nil
	}

	var body func(lo, hi int) error
	var cleanup func()
	switch {
	case a.elem == Bool: // validated: b is Bool too
		ab, bb, db := a.bools(), b.bools(), out.bools()
		body = func(lo, hi int) error { ewBool(op, db, ab, bb, lo, hi); return nil }
	case a.elem == Int && b.elem == Int:
		if oe == Bool {
			ai, bi, db := a.ints(), b.ints(), out.bools()
			body = func(lo, hi int) error { ewCmp(op, db, ai, bi, lo, hi); return nil }
		} else {
			ai, bi, di := a.ints(), b.ints(), out.ints()
			body = func(lo, hi int) error { return ewArithInt(op, di, ai, bi, lo, hi) }
		}
	default: // at least one Float operand; promote the int side once
		av, aScr, err := floatScratch(x, a)
		if err != nil {
			out.Recycle()
			return nil, err
		}
		bv, bScr, err := floatScratch(x, b)
		if err != nil {
			releaseFloatScratch(av, aScr)
			out.Recycle()
			return nil, err
		}
		cleanup = func() {
			releaseFloatScratch(av, aScr)
			releaseFloatScratch(bv, bScr)
		}
		if oe == Bool {
			db := out.bools()
			body = func(lo, hi int) error { ewCmp(op, db, av, bv, lo, hi); return nil }
		} else {
			df := out.floats()
			body = func(lo, hi int) error { ewArithFloat(op, df, av, bv, lo, hi); return nil }
		}
	}
	err = runKernel(x, n, ParallelGrain, body)
	if cleanup != nil {
		cleanup()
	}
	if err != nil {
		out.Recycle()
		return nil, err
	}
	return out, nil
}

// flipCmp mirrors a comparison so `s op a[i]` can run as `a[i] op' s`,
// collapsing the scalar-on-the-left broadcast loops into the
// matrix-on-the-left ones.
func flipCmp(op Op) Op {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op // Eq, Ne are symmetric
}

// BroadcastExec applies op between a matrix and a scalar (matLeft
// selects m op s vs s op m) through the specialized kernels.
func BroadcastExec(op Op, m *Matrix, s any, matLeft bool, x Exec) (*Matrix, error) {
	var sElem Elem
	var sf float64
	var si int64
	var sb bool
	switch v := s.(type) {
	case float64:
		sElem, sf = Float, v
	case int64:
		sElem, si, sf = Int, v, float64(v)
	case int:
		sElem, si, sf = Int, int64(v), float64(v)
	case bool:
		sElem, sb = Bool, v
	default:
		return nil, fmt.Errorf("matrix: %s cannot be applied to a %T operand", op, s)
	}
	oe, err := validateBinary(op, m.elem, sElem)
	if err != nil {
		return nil, err
	}
	// A zero int divisor that is the scalar fails for every element —
	// catch it before allocating anything.
	if m.elem == Int && sElem == Int && matLeft && si == 0 {
		if op == OpDiv {
			return nil, fmt.Errorf("matrix: integer division by zero")
		}
		if op == OpMod {
			return nil, fmt.Errorf("matrix: integer modulo by zero")
		}
	}
	out, err := newKernelOut(x.Budget, oe, m.shape())
	if err != nil {
		return nil, err
	}
	n := out.Size()
	if n == 0 {
		return out, nil
	}

	var body func(lo, hi int) error
	var cleanup func()
	switch {
	case m.elem == Bool: // validated: scalar is Bool too
		mb, db := m.bools(), out.bools()
		body = func(lo, hi int) error { ewBoolScalar(op, db, mb, sb, lo, hi); return nil }
	case m.elem == Int && sElem == Int:
		if oe == Bool {
			cop := op
			if !matLeft {
				cop = flipCmp(op)
			}
			mi, db := m.ints(), out.bools()
			body = func(lo, hi int) error { bcCmp(cop, db, mi, si, lo, hi); return nil }
		} else {
			mi, di := m.ints(), out.ints()
			body = func(lo, hi int) error { return bcArithInt(op, di, mi, si, matLeft, lo, hi) }
		}
	default: // at least one Float side; promote the int side once
		mv, mScr, err := floatScratch(x, m)
		if err != nil {
			out.Recycle()
			return nil, err
		}
		cleanup = func() { releaseFloatScratch(mv, mScr) }
		if oe == Bool {
			cop := op
			if !matLeft {
				cop = flipCmp(op)
			}
			db := out.bools()
			body = func(lo, hi int) error { bcCmp(cop, db, mv, sf, lo, hi); return nil }
		} else {
			df := out.floats()
			body = func(lo, hi int) error { bcArithFloat(op, df, mv, sf, matLeft, lo, hi); return nil }
		}
	}
	err = runKernel(x, n, ParallelGrain, body)
	if cleanup != nil {
		cleanup()
	}
	if err != nil {
		out.Recycle()
		return nil, err
	}
	return out, nil
}

// UnaryExec applies negation or logical not through the specialized
// kernels.
func UnaryExec(neg bool, m *Matrix, x Exec) (*Matrix, error) {
	if neg && m.elem == Bool {
		return nil, fmt.Errorf("matrix: cannot negate a bool matrix")
	}
	if !neg && m.elem != Bool {
		return nil, fmt.Errorf("matrix: logical not requires a bool matrix")
	}
	out, err := newKernelOut(x.Budget, m.elem, m.shape())
	if err != nil {
		return nil, err
	}
	n := out.Size()
	if n == 0 {
		return out, nil
	}
	var body func(lo, hi int) error
	switch m.elem {
	case Float:
		src, dst := m.floats(), out.floats()
		body = func(lo, hi int) error {
			d, s := dst[lo:hi], src[lo:hi]
			for i, v := range s {
				d[i] = -v
			}
			return nil
		}
	case Int:
		src, dst := m.ints(), out.ints()
		body = func(lo, hi int) error {
			d, s := dst[lo:hi], src[lo:hi]
			for i, v := range s {
				d[i] = -v
			}
			return nil
		}
	default:
		src, dst := m.bools(), out.bools()
		body = func(lo, hi int) error {
			d, s := dst[lo:hi], src[lo:hi]
			for i, v := range s {
				d[i] = !v
			}
			return nil
		}
	}
	if err := runKernel(x, n, ParallelGrain, body); err != nil {
		out.Recycle()
		return nil, err
	}
	return out, nil
}

// MatMulExec computes the linear-algebra product of two rank-2 matrices
// with a cache-blocked, register-blocked kernel (mmBase), distributing
// row blocks over the pool. Int x Int stays exact in int64; any Float
// operand promotes the int side once and runs the float kernel. Every
// output cell adds its products in ascending k, one rounding each, as
// the naive i-j-k reference does, so float results are bit-identical
// to MatMulRef's and the differential tests compare them exactly.
func MatMulExec(a, b *Matrix, x Exec) (*Matrix, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("matrix: matmul requires rank-2 matrices, got ranks %d and %d", a.Rank(), b.Rank())
	}
	if a.shape()[1] != b.shape()[0] {
		return nil, fmt.Errorf("matrix: matmul dimension mismatch: %v x %v", a.shape(), b.shape())
	}
	if a.elem == Bool || b.elem == Bool {
		return nil, fmt.Errorf("matrix: matmul requires numeric matrices")
	}
	m, k, n := a.shape()[0], a.shape()[1], b.shape()[1]
	// Rows per parallel chunk: ParallelGrain counts fused multiply-adds
	// here, so small products stay serial and a single wide row can
	// still be its own chunk.
	rowWork := k * n
	grainRows := 1
	if rowWork > 0 {
		grainRows = (ParallelGrain + rowWork - 1) / rowWork
	}
	if a.elem == Int && b.elem == Int {
		out, err := newKernelOut(x.Budget, Int, []int{m, n})
		if err != nil {
			return nil, err
		}
		ai, bi, di := a.ints(), b.ints(), out.ints()
		err = runKernel(x, m, grainRows, func(rlo, rhi int) error {
			mmRows(di, ai, bi, rlo, rhi, k, n)
			return nil
		})
		if err != nil {
			out.Recycle()
			return nil, err
		}
		return out, nil
	}
	av, aScr, err := floatScratch(x, a)
	if err != nil {
		return nil, err
	}
	bv, bScr, err := floatScratch(x, b)
	if err != nil {
		releaseFloatScratch(av, aScr)
		return nil, err
	}
	out, err := newKernelOut(x.Budget, Float, []int{m, n})
	if err != nil {
		releaseFloatScratch(av, aScr)
		releaseFloatScratch(bv, bScr)
		return nil, err
	}
	df := out.floats()
	err = runKernel(x, m, grainRows, func(rlo, rhi int) error {
		mmRows(df, av, bv, rlo, rhi, k, n)
		return nil
	})
	releaseFloatScratch(av, aScr)
	releaseFloatScratch(bv, bScr)
	if err != nil {
		out.Recycle()
		return nil, err
	}
	return out, nil
}

// --- elementwise inner loops ---
//
// Every loop re-slices its operands to [lo:hi) first so the compiler
// can hoist bounds checks, then ranges over one operand. The operator
// switch sits outside the loop: one validated dispatch, then a tight
// loop per (op, elem-pair) combination.

// ewArithFloat: float arithmetic, no data-dependent failure (float
// division follows IEEE, as the generic path always has).
func ewArithFloat(op Op, dst, a, b []float64, lo, hi int) {
	arithSS(op, dst[lo:hi], a[lo:hi], b[lo:hi])
}

// ewArithInt: int arithmetic; division and modulo keep their
// data-dependent zero check — the only mid-loop error path left.
func ewArithInt(op Op, dst, a, b []int64, lo, hi int) error {
	d, x, y := dst[lo:hi], a[lo:hi], b[lo:hi]
	switch op {
	case OpDiv:
		for i, v := range x {
			if y[i] == 0 {
				return fmt.Errorf("matrix: integer division by zero")
			}
			d[i] = v / y[i]
		}
	case OpMod:
		for i, v := range x {
			if y[i] == 0 {
				return fmt.Errorf("matrix: integer modulo by zero")
			}
			d[i] = v % y[i]
		}
	default:
		arithSS(op, d, x, y)
	}
	return nil
}

// ewCmp: comparisons over same-typed numeric slices (one generic body,
// instantiated for int64 and float64).
func ewCmp[T int64 | float64](op Op, dst []bool, a, b []T, lo, hi int) {
	d, x, y := dst[lo:hi], a[lo:hi], b[lo:hi]
	switch op {
	case OpEq:
		for i, v := range x {
			d[i] = v == y[i]
		}
	case OpNe:
		for i, v := range x {
			d[i] = v != y[i]
		}
	case OpLt:
		for i, v := range x {
			d[i] = v < y[i]
		}
	case OpLe:
		for i, v := range x {
			d[i] = v <= y[i]
		}
	case OpGt:
		for i, v := range x {
			d[i] = v > y[i]
		}
	case OpGe:
		for i, v := range x {
			d[i] = v >= y[i]
		}
	}
}

// ewBool: bool-bool operators (&&, ||, ==, !=).
func ewBool(op Op, dst, a, b []bool, lo, hi int) {
	d, x, y := dst[lo:hi], a[lo:hi], b[lo:hi]
	switch op {
	case OpAnd:
		for i, v := range x {
			d[i] = v && y[i]
		}
	case OpOr:
		for i, v := range x {
			d[i] = v || y[i]
		}
	case OpEq:
		for i, v := range x {
			d[i] = v == y[i]
		}
	case OpNe:
		for i, v := range x {
			d[i] = v != y[i]
		}
	}
}

// --- broadcast inner loops ---

// bcArithFloat: float arithmetic against a scalar; matLeft gives the
// operand order, m op s or s op m.
func bcArithFloat(op Op, dst, a []float64, s float64, matLeft bool, lo, hi int) {
	if matLeft {
		arithSU(op, dst[lo:hi], a[lo:hi], s)
	} else {
		arithUS(op, dst[lo:hi], s, a[lo:hi])
	}
}

// bcArithInt: int arithmetic against a scalar. A scalar divisor of zero
// was rejected before allocation; a scalar dividend dividing by matrix
// elements keeps the per-element zero check.
func bcArithInt(op Op, dst, a []int64, s int64, matLeft bool, lo, hi int) error {
	d, x := dst[lo:hi], a[lo:hi]
	switch {
	case matLeft && op == OpMod:
		modSU(d, x, s)
	case matLeft:
		arithSU(op, d, x, s)
	case op == OpDiv:
		for i, v := range x {
			if v == 0 {
				return fmt.Errorf("matrix: integer division by zero")
			}
			d[i] = s / v
		}
	case op == OpMod:
		for i, v := range x {
			if v == 0 {
				return fmt.Errorf("matrix: integer modulo by zero")
			}
			d[i] = s % v
		}
	default:
		arithUS(op, d, s, x)
	}
	return nil
}

// bcCmp: comparisons against a scalar; callers pre-flip the operator
// when the scalar is on the left, so the loop is always a[i] op s.
func bcCmp[T int64 | float64](op Op, dst []bool, a []T, s T, lo, hi int) {
	d, x := dst[lo:hi], a[lo:hi]
	switch op {
	case OpEq:
		for i, v := range x {
			d[i] = v == s
		}
	case OpNe:
		for i, v := range x {
			d[i] = v != s
		}
	case OpLt:
		for i, v := range x {
			d[i] = v < s
		}
	case OpLe:
		for i, v := range x {
			d[i] = v <= s
		}
	case OpGt:
		for i, v := range x {
			d[i] = v > s
		}
	case OpGe:
		for i, v := range x {
			d[i] = v >= s
		}
	}
}

// ewBoolScalar: bool-scalar operators (all commutative).
func ewBoolScalar(op Op, dst, a []bool, s bool, lo, hi int) {
	d, x := dst[lo:hi], a[lo:hi]
	switch op {
	case OpAnd:
		for i, v := range x {
			d[i] = v && s
		}
	case OpOr:
		for i, v := range x {
			d[i] = v || s
		}
	case OpEq:
		for i, v := range x {
			d[i] = v == s
		}
	case OpNe:
		for i, v := range x {
			d[i] = v != s
		}
	}
}
