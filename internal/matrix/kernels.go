// Whole-matrix arithmetic on the fork-join pool of §III-C. A lone
// elementwise, broadcast or unary operator (§III-A.2) — one no fused
// chain absorbed — runs on the strip engine as a one-node program: its
// entry point validates and admits, then runs the cached program of its
// operator and operand classes over the flat cells, cut over the pool
// when there are enough of them (see ParallelGrain). Matmul promotes an
// int operand of a float product once into free-list-backed scratch.
// Outputs come from newKernelOut, which skips zeroing: every cell is
// written. Errors (integer division by zero, budget, cancellation)
// return through the Exec machinery, pool workers are panic-isolated by
// par.Pool, and abort / ctx polls run between chunks and strips.
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

// A lone operation's operands come in classes: an element type, as a
// matrix or as a scalar. classNone is a unary operation's right operand
// and has no element type.
type opClass uint8

const classNone opClass = 0

func matClass(e Elem) opClass    { return opClass(1 + 2*e) }
func scalarClass(e Elem) opClass { return opClass(2 + 2*e) }

func (c opClass) elem() Elem   { return Elem((c - 1) / 2) }
func (c opClass) scalar() bool { return c%2 == 0 }

// The unary operators key the program table after the binary ones.
const (
	opNeg = OpOr + 1 + iota
	opNot
)

// lonePrograms holds the one-node program of each (operator, left
// class, right class), built the first time an operation needs it. The
// 7 classes are classNone and each Elem as a matrix and as a scalar.
var lonePrograms [opNot + 1][7][7]atomic.Pointer[WithProg]

func loneProgram(op Op, l, r opClass) *WithProg {
	slot := &lonePrograms[op][l][r]
	if p := slot.Load(); p != nil {
		return p
	}
	p, ok := CompileWith(lonePlan(op, l, r))
	if !ok {
		panic(fmt.Sprintf("matrix: no strip program for %v on operand classes %d, %d", op, l, r))
	}
	slot.Store(p)
	return p
}

// loneOps is each operator's plan opcode on ints (or masks) and on
// floats.
var loneOps = [opNot + 1][2]WithOp{
	OpAdd: {WAddI, WAddF}, OpSub: {WSubI, WSubF}, OpMul: {WMulI, WMulF},
	OpDiv: {WQuoI, WDivF}, OpMod: {WRemI},
	OpEq: {WCmpI, WCmpF}, OpNe: {WCmpI, WCmpF}, OpLt: {WCmpI, WCmpF},
	OpLe: {WCmpI, WCmpF}, OpGt: {WCmpI, WCmpF}, OpGe: {WCmpI, WCmpF},
	OpAnd: {WSelI}, OpOr: {WSelI}, opNeg: {WNegI, WNegF}, opNot: {WSelI},
}

// lonePlan writes the plan of op over operands of classes l and r. A
// matrix is loaded at the cell, an int one converted when the other
// operand is float; a scalar is a uniform slot (the program has one
// of each), float when the operation is, else an int or a bool's 0/1.
// The logical operators select on 0/1 masks: a && b is b where a
// holds, else 0; a || b is 1 where a holds, else b; !a is 0 where a
// holds, else 1.
func lonePlan(op Op, l, r opClass) WithSpec {
	flt := l.elem() == Float || r.elem() == Float
	spec := WithSpec{Rank: 1, ScalarI: 1, ScalarF: 1, Float: flt && !op.isComparison()}
	spec.OutFloat = spec.Float
	add := func(in ...WithInstr) { spec.Code = append(spec.Code, in...) }
	push := func(c opClass) {
		switch {
		case !c.scalar():
			ld := WLoadI
			if c.elem() == Float {
				ld = WLoadF
			}
			add(WithInstr{Op: WPushID}, WithInstr{Op: ld, A: int32(len(spec.MatElem)), B: 1})
			spec.MatElem = append(spec.MatElem, c.elem())
			if flt && c.elem() == Int {
				add(WithInstr{Op: WI2F})
			}
		case flt:
			add(WithInstr{Op: WPushScalarF})
		default:
			add(WithInstr{Op: WPushScalarI})
		}
	}
	push(l)
	switch op {
	case OpAnd:
		push(r)
		add(WithInstr{Op: WPushInt, K: 0})
	case OpOr:
		add(WithInstr{Op: WPushInt, K: 1})
		push(r)
	case opNot:
		add(WithInstr{Op: WPushInt, K: 0}, WithInstr{Op: WPushInt, K: 1})
	case opNeg:
	default:
		push(r)
	}
	in := WithInstr{Op: loneOps[op][0], A: int32(op)} // A: a compare's operator
	if flt {
		in.Op = loneOps[op][1]
	}
	add(in)
	return spec
}

// lone is one lone operation: the operator and its operand classes, the
// matrix operands in order, and the scalar operand's value as an int (a
// bool's 0/1) and as a float.
type lone struct {
	op   Op
	l, r opClass
	a, b *Matrix
	si   int64
	sf   float64
}

// run admits the output, elem cells of shape, and then, left operand
// first, charges its cell count again for each int matrix a float
// operation promotes — what the copy that once held the promoted cells
// was charged; the program converts them as it loads them. Then it
// runs the program over the cells, if there are any.
func (o lone) run(elem Elem, shape []int, x Exec) (*Matrix, error) {
	out, err := newKernelOut(x.Budget, elem, shape)
	if err != nil {
		return nil, err
	}
	n := out.Size()
	for _, c := range [2]opClass{o.l, o.r} {
		if c == matClass(Int) && (o.l.elem() == Float || o.r.elem() == Float) {
			if err := x.Budget.Charge(n); err != nil {
				out.Recycle()
				return nil, err
			}
		}
	}
	r := loneProgram(o.op, o.l, o.r).NewRun()
	copy(r.Mats, []*Matrix{o.a, o.b})
	r.ScalarI[0], r.ScalarF[0] = o.si, o.sf
	err = r.runFlat(out, n, x)
	r.Release()
	if err != nil {
		out.Recycle()
		return nil, err
	}
	return out, nil
}

// ElementwiseExec applies op pointwise over two matrices of equal shape
// on x's pool/budget/context. The result is always freshly allocated
// (never an alias of an operand).
func ElementwiseExec(op Op, a, b *Matrix, x Exec) (*Matrix, error) {
	if !a.SameShape(b) {
		return nil, fmt.Errorf("matrix: %s requires equal shapes, got %v and %v", op, a.shape(), b.shape())
	}
	oe, err := validateBinary(op, a.elem, b.elem)
	if err != nil {
		return nil, err
	}
	return lone{op: op, l: matClass(a.elem), r: matClass(b.elem), a: a, b: b}.run(oe, a.shape(), x)
}

// BroadcastExec applies op between a matrix and a scalar (matLeft
// selects m op s vs s op m).
func BroadcastExec(op Op, m *Matrix, s any, matLeft bool, x Exec) (*Matrix, error) {
	o := lone{op: op, a: m}
	var sElem Elem
	switch v := s.(type) {
	case float64:
		sElem, o.sf = Float, v
	case int64:
		sElem, o.si, o.sf = Int, v, float64(v)
	case int:
		sElem, o.si, o.sf = Int, int64(v), float64(v)
	case bool:
		sElem, o.si = Bool, mask(v)
	default:
		return nil, fmt.Errorf("matrix: %s cannot be applied to a %T operand", op, s)
	}
	oe, err := validateBinary(op, m.elem, sElem)
	if err != nil {
		return nil, err
	}
	// A zero int divisor that is the scalar fails at every cell: caught
	// before anything is admitted, when there is a cell.
	if m.elem == Int && sElem == Int && matLeft && o.si == 0 && (op == OpDiv || op == OpMod) && m.Size() > 0 {
		return nil, byZero(op == OpMod)
	}
	o.l, o.r = matClass(m.elem), scalarClass(sElem)
	if !matLeft {
		o.l, o.r = o.r, o.l
	}
	return o.run(oe, m.shape(), x)
}

// UnaryExec applies negation or logical not.
func UnaryExec(neg bool, m *Matrix, x Exec) (*Matrix, error) {
	op := opNot
	switch {
	case neg && m.elem == Bool:
		return nil, fmt.Errorf("matrix: cannot negate a bool matrix")
	case !neg && m.elem != Bool:
		return nil, fmt.Errorf("matrix: logical not requires a bool matrix")
	case neg:
		op = opNeg
	}
	return lone{op: op, l: matClass(m.elem), a: m}.run(m.elem, m.shape(), x)
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
