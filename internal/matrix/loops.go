// The closure engine of the with-loop (genarray and fold) and matrixMap
// constructs (§III-A.4, §III-A.5, §III-C): a row of the outermost
// generated dimension is produced by calling back into the evaluator
// per element. How rows are distributed, polled, aborted and folded is
// par's: every construct here hands par.ParallelForCtx or par.Fold a
// row function and x.Pool, and a nil pool is the one-worker pool — the
// interpreter passes it to nested constructs, matching the generated C,
// which parallelizes the outermost construct only.
//
// Every construct takes an Exec describing its execution environment:
// pool, allocation budget and cancellation context. The first body
// error, recovered body panic, or deadline expiry aborts the remaining
// iteration space cooperatively (per-row abort-flag and context polls),
// so a poisoned row cannot keep the pool grinding through millions of
// doomed iterations.
package matrix

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/par"
)

// Exec is the execution environment threaded through the parallel
// constructs: Pool is the worker count the outermost dimension is
// distributed over (nil = one worker, the caller), Budget caps
// allocations (nil = unlimited), and Ctx is polled between rows so a
// deadline is observed mid-construct (nil = never cancelled). There is
// one driver and one fold behind every construct, both in par; the zero
// Exec runs them on one worker, unbounded.
type Exec struct {
	Pool   *par.Pool
	Budget *Budget
	Ctx    context.Context
}

// cancelled polls the context without blocking, for the polls a
// construct makes inside a row; between rows par polls.
func (x Exec) cancelled() error {
	if x.Ctx == nil {
		return nil
	}
	select {
	case <-x.Ctx.Done():
		return x.Ctx.Err()
	default:
		return nil
	}
}

// workerIdx holds one index buffer of rank ints a worker of a pool.
// Bodies write their buffer per element, so the buffers lie more than a
// cache line apart.
type workerIdx struct {
	buf  []int
	rank int
}

func newWorkerIdx(pool *par.Pool, rank int) workerIdx {
	return workerIdx{buf: make([]int, (rank+8)*pool.Workers()), rank: rank}
}

func (w workerIdx) of(worker int) []int {
	return w.buf[worker*(w.rank+8):][:w.rank:w.rank]
}

// BodyFunc computes a with-loop body value at one generator index.
// The idx slice must not be retained.
type BodyFunc func(idx []int) (any, error)

// admitGenArray is a genarray's admission, whichever engine fills it:
// the shape must be a superset of the generator box, as §III-A.4
// requires — a runtime check — and the result is charged against
// x.Budget before any storage is made. A non-empty box covering the
// whole shape writes every cell, so its result takes the non-zeroing
// allocator; any other box leaves cells that must read 0.
func admitGenArray(elem Elem, lower, upper, shape []int, x Exec) (*Matrix, error) {
	if len(lower) != len(shape) || len(upper) != len(shape) {
		return nil, fmt.Errorf("matrix: genarray shape rank %d does not match generator rank %d",
			len(shape), len(lower))
	}
	n, err := checkedSize(shape)
	if err != nil {
		return nil, err
	}
	for d := range shape {
		if lower[d] < 0 || upper[d] > shape[d] {
			return nil, fmt.Errorf(
				"matrix: genarray shape %v is not a superset of the generator box [%v, %v) in dimension %d",
				shape, lower, upper, d)
		}
	}
	if n > 0 && covers(lower, upper, shape) {
		return newKernelOut(x.Budget, elem, shape)
	}
	return NewBudgeted(x.Budget, elem, shape...)
}

// covers reports whether the box [lower, upper) is the whole of shape.
func covers(lower, upper, shape []int) bool {
	for d := range shape {
		if lower[d] != 0 || upper[d] != shape[d] {
			return false
		}
	}
	return true
}

// GenArrayExec produces a matrix of the given element type and shape
// whose cells inside the generator box hold body(idx) and 0 elsewhere
// (see admitGenArray).
func GenArrayExec(elem Elem, lower, upper, shape []int, body BodyFunc, x Exec) (*Matrix, error) {
	out, err := admitGenArray(elem, lower, upper, shape, x)
	if err != nil {
		return nil, err
	}
	if out.Size() == 0 {
		return out, nil
	}
	rank := len(lower)
	idxs := newWorkerIdx(x.Pool, rank)
	// A row of the box is filled through body, walking the inner
	// dimensions with an odometer over idx and the running output offset.
	err = x.Pool.ParallelForCtx(x.Ctx, lower[0], upper[0], func(worker, i0 int) error {
		var s [InlineRank]int // here, not captured: a captured array escapes
		strides := out.strides(&s)
		idx := idxs.of(worker)
		copy(idx, lower)
		idx[0] = i0
		off := i0 * strides[0]
		for d := 1; d < rank; d++ {
			if lower[d] >= upper[d] {
				return nil
			}
			off += lower[d] * strides[d]
		}
		for {
			v, err := body(idx)
			if err != nil {
				return err
			}
			if err := out.Set(off, v); err != nil {
				return err
			}
			d := rank - 1
			for ; d >= 1; d-- {
				idx[d]++
				off += strides[d]
				if idx[d] < upper[d] {
					break
				}
				off -= (upper[d] - lower[d]) * strides[d]
				idx[d] = lower[d]
			}
			if d < 1 {
				return nil
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FoldKind is the fold operator of §III-A.4.
type FoldKind int

// Fold operators.
const (
	FoldAdd FoldKind = iota
	FoldMul
	FoldMin
	FoldMax
)

func (k FoldKind) String() string {
	switch k {
	case FoldAdd:
		return "+"
	case FoldMul:
		return "*"
	case FoldMin:
		return "min"
	case FoldMax:
		return "max"
	}
	return "?"
}

// combine is the typed fold step. Of two equal values min keeps the
// right operand and max the left; a comparison with a NaN is false, so
// min takes the right operand and max keeps the left. With kind a
// constant it inlines to the one step.
func combine[T int64 | float64](kind FoldKind, a, b T) T {
	switch kind {
	case FoldAdd:
		return a + b
	case FoldMul:
		return a * b
	case FoldMin:
		if a < b {
			return a
		}
		return b
	default:
		if a < b {
			return b
		}
		return a
	}
}

// FoldValue is a fold's base, accumulator and result, in the fold's
// static type: F when Float, else I — the lane, and the register class,
// the fold runs in.
type FoldValue struct {
	I     int64
	F     float64
	Float bool
}

// Any boxes the value.
func (v FoldValue) Any() any {
	if v.Float {
		return v.F
	}
	return v.I
}

// add combines one body value into v. An int promotes as it combines
// into a float accumulator, under min and max as under + and *, as the
// C back end's accumulator of the fold's type does. A float body makes
// a float fold, so no float meets an int accumulator.
func (v *FoldValue) add(kind FoldKind, x any) error {
	switch x := x.(type) {
	case int64:
		if v.Float {
			v.F = combine(kind, v.F, float64(x))
		} else {
			v.I = combine(kind, v.I, x)
		}
		return nil
	case float64:
		if v.Float {
			v.F = combine(kind, v.F, x)
			return nil
		}
	}
	return fmt.Errorf("matrix: fold(%s) cannot combine %T into %T", kind, x, v.Any())
}

// identity is kind's identity in v's type: where a pooled fold's
// partials start.
func (v FoldValue) identity(kind FoldKind) FoldValue {
	return FoldValue{I: foldIdentInt(kind), F: foldIdentFloat(kind), Float: v.Float}
}

// merge combines a pooled fold's partial onto the running value, in
// worker order: par.Fold's combine for FoldExec and FoldFlat alike.
func (k FoldKind) merge(a, part FoldValue) (FoldValue, error) {
	if a.Float {
		a.F = combine(k, a.F, part.F)
	} else {
		a.I = combine(k, a.I, part.I)
	}
	return a, nil
}

// FoldExec reduces body over the generator box with the associative
// operator, starting from base, in base's type: par.Fold over the rows
// of the outermost dimension, each folded element by element. With more
// than one worker the rows are folded in per-worker partials seeded
// with the identity and combined onto base in worker order — valid
// because the fold operators are associative and commutative, and a
// pure function of (rows, workers), so a float fold returns the same
// bits on every run.
func FoldExec(kind FoldKind, base FoldValue, lower, upper []int, body BodyFunc, x Exec) (FoldValue, error) {
	if len(lower) != len(upper) {
		return base, fmt.Errorf("matrix: fold generator rank mismatch")
	}
	if len(lower) == 0 {
		return base, nil
	}
	rank := len(lower)
	idxs := newWorkerIdx(x.Pool, rank)
	return par.Fold(x.Pool, x.Ctx, lower[0], upper[0], 1, base, base.identity(kind),
		func(worker int, acc FoldValue, i0, _ int) (FoldValue, error) {
			idx := idxs.of(worker)
			copy(idx, lower)
			idx[0] = i0
			for d := 1; d < rank; d++ {
				if lower[d] >= upper[d] {
					return acc, nil
				}
			}
			for {
				v, err := body(idx)
				if err != nil {
					return acc, err
				}
				if err := acc.add(kind, v); err != nil {
					return acc, err
				}
				d := rank - 1
				for ; d >= 1; d-- {
					idx[d]++
					if idx[d] < upper[d] {
						break
					}
					idx[d] = lower[d]
				}
				if d < 1 {
					return acc, nil
				}
			}
		}, kind.merge)
}

// foldIdentInt / foldIdentFloat are the true identities of each fold
// operator: a stand-in such as ±1e308 would win a min/max against
// values beyond it and make a pooled fold disagree with a serial one.
func foldIdentInt(kind FoldKind) int64 {
	switch kind {
	case FoldMul:
		return 1
	case FoldMin:
		return math.MaxInt64
	case FoldMax:
		return math.MinInt64
	}
	return 0
}

func foldIdentFloat(kind FoldKind) float64 {
	switch kind {
	case FoldMul:
		return 1
	case FoldMin:
		return math.Inf(1)
	case FoldMax:
		return math.Inf(-1)
	}
	return 0
}

// MapFunc applies a user function to one sub-matrix in matrixMap and
// hands the result to store, which copies its cells into the output:
// the caller may release (and so recycle) the result once store has
// returned, and needs no copy of its own to make it outlive that.
type MapFunc func(sub *Matrix, store func(res *Matrix) error) error

// MatrixMapExec implements matrixMap(f, m, dims) (§III-A.5): f is
// applied to the sub-matrix spanned by dims at every combination of
// the remaining dimensions, which are iterated — in parallel on the
// pool — and the results are reassembled into a matrix of m's shape
// ("the result is always the same size and rank as the matrix getting
// mapped over"). outElem is the element type of f's results. Each
// application's sub-matrix is admitted against x.Budget like the output:
// the callee can name its cells.
//
// general selects matrixMapG, the generalization the paper describes as
// in development ("a generalization of this extension that removes this
// restriction is being developed", §III-A.5): the mapped function may
// return sub-matrices of a different size than it was given. The
// output's mapped-dimension sizes are then discovered from the first
// application, which runs alone before the others and before the output
// is charged; every application must agree (checked at runtime).
func MatrixMapExec(m *Matrix, dims []int, outElem Elem, general bool, f MapFunc, x Exec) (*Matrix, error) {
	name := "matrixMap"
	if general {
		name = "matrixMapG"
	}
	rank, shape := m.Rank(), m.shape()
	for k, d := range dims {
		if d < 0 || d >= rank {
			return nil, fmt.Errorf("matrix: %s dimension %d out of range for rank %d", name, d, rank)
		}
		if slices.Contains(dims[:k], d) {
			return nil, fmt.Errorf("matrix: duplicate %s dimension %d", name, d)
		}
	}
	var iterDims []int
	for d := 0; d < rank; d++ {
		if !slices.Contains(dims, d) {
			iterDims = append(iterDims, d)
		}
	}
	if len(iterDims) == 0 || len(dims) == 0 {
		return nil, fmt.Errorf("matrix: %s must keep between 1 and rank-1 dimensions", name)
	}
	var out *Matrix
	var err error
	if !general {
		if out, err = NewBudgeted(x.Budget, outElem, shape...); err != nil {
			return nil, err
		}
	}
	// Enumerate the iteration space linearly so the pool can split it.
	iterSize := 1
	for _, d := range iterDims {
		iterSize *= shape[d]
	}
	specsOf := make([]IndexSpec, rank*x.Pool.Workers()) // rank a worker
	// storeOf[w] stores one of worker w's results at the position its
	// specs hold: one closure a worker, not one an application.
	storeOf := make([]func(*Matrix) error, x.Pool.Workers())
	store := func(specs []IndexSpec) func(*Matrix) error {
		return func(res *Matrix) error {
			if res.Rank() != len(dims) {
				return fmt.Errorf("matrix: %s function returned rank %d, want %d", name, res.Rank(), len(dims))
			}
			if res.elem != outElem {
				return fmt.Errorf("matrix: %s function returned %s elements, want %s", name, res.elem, outElem)
			}
			if out == nil {
				outShape := m.Shape()
				for k, d := range dims {
					outShape[d] = res.shape()[k]
				}
				o, err := NewBudgeted(x.Budget, outElem, outShape...)
				if err != nil {
					return err
				}
				out = o
			}
			for k, d := range dims {
				if res.shape()[k] == out.shape()[d] {
					continue
				}
				if general {
					return fmt.Errorf("matrix: matrixMapG applications disagree on result size (%v vs %v along dimension %d)",
						res.shape()[k], out.shape()[d], d)
				}
				wantShape := make([]int, len(dims))
				for k, d := range dims {
					wantShape[k] = shape[d]
				}
				return fmt.Errorf("matrix: matrixMap function changed dimension size %v -> %v (result must have the mapped dimensions' sizes %v)",
					shape[d], res.shape()[k], wantShape)
			}
			// The iterated positions are valid in out (same sizes there);
			// the All() specs resolve against out's own mapped sizes.
			return out.SetIndex(res, specs...)
		}
	}
	apply := func(worker, it int) error {
		// decode iteration index -> positions of the iterated dims
		specs := specsOf[worker*rank:][:rank:rank]
		rem := it
		for k := len(iterDims) - 1; k >= 0; k-- {
			d := iterDims[k]
			specs[d] = Scalar(rem % shape[d])
			rem /= shape[d]
		}
		for _, d := range dims {
			specs[d] = All()
		}
		sub, err := m.Index(x.Budget, specs...)
		if err != nil {
			return err
		}
		if storeOf[worker] == nil {
			storeOf[worker] = store(specs)
		}
		return f(sub.(*Matrix), storeOf[worker])
	}
	first := 0
	if general {
		first = min(1, iterSize)
		if err := x.Pool.ParallelForCtx(x.Ctx, 0, first, apply); err != nil {
			return nil, err
		}
	}
	if err := x.Pool.ParallelForCtx(x.Ctx, first, iterSize, apply); err != nil {
		return nil, err
	}
	if out == nil { // matrixMapG over no applications
		return NewBudgeted(x.Budget, outElem, shape...)
	}
	return out, nil
}
