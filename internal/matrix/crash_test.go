// Crash-proofing tests: allocation budgets, shape validation at the
// allocator, early abort of poisoned parallel constructs, context
// cancellation mid-construct, and the alloc-failure injection seam.
package matrix

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/par"
)

func TestBudgetCharge(t *testing.T) {
	b := NewBudget(100)
	if err := b.Charge(60); err != nil {
		t.Fatalf("first charge: %v", err)
	}
	if err := b.Charge(40); err != nil {
		t.Fatalf("second charge (exactly at limit): %v", err)
	}
	err := b.Charge(1)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("over-limit charge = %v, want *BudgetError", err)
	}
	if be.Requested != 1 || be.Used != 100 || be.Limit != 100 {
		t.Errorf("BudgetError = %+v, want {1 100 100}", *be)
	}
	// The failed charge was rolled back; a zero-cell charge still fits.
	if got := b.Used(); got != 100 {
		t.Errorf("Used = %d after rollback, want 100", got)
	}
	if b.Limit() != 100 {
		t.Errorf("Limit = %d", b.Limit())
	}
}

func TestBudgetNilUnlimited(t *testing.T) {
	var b *Budget
	if err := b.Charge(1 << 40); err != nil {
		t.Errorf("nil budget must never fail: %v", err)
	}
	if b.Used() != 0 || b.Limit() != 0 {
		t.Error("nil budget accessors must return 0")
	}
	if NewBudget(0) != nil || NewBudget(-5) != nil {
		t.Error("NewBudget(<=0) must return nil (unlimited)")
	}
}

func TestNewBudgetedDeniesOversized(t *testing.T) {
	b := NewBudget(1000)
	m, err := NewBudgeted(b, Float, 100, 100)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if m != nil {
		t.Error("denied allocation must return a nil matrix")
	}
	// Nothing was charged; a fitting allocation still succeeds.
	if _, err := NewBudgeted(b, Float, 10, 10); err != nil {
		t.Errorf("in-budget allocation after denial: %v", err)
	}
}

func TestCheckedSizeOverflowAndNegative(t *testing.T) {
	// ~2^62 cells: the product overflows a 64-bit int. This must fail
	// as a *ShapeError before any storage is touched.
	_, err := NewBudgeted(nil, Float, 1<<31, 1<<31)
	var se *ShapeError
	if !errors.As(err, &se) {
		t.Fatalf("overflow shape err = %v, want *ShapeError", err)
	}
	_, err = NewBudgeted(nil, Float, 3, -2)
	if !errors.As(err, &se) {
		t.Fatalf("negative dim err = %v, want *ShapeError", err)
	}
}

func TestNewPanicsWithShapeError(t *testing.T) {
	defer func() {
		r := recover()
		var se *ShapeError
		if err, ok := r.(error); !ok || !errors.As(err, &se) {
			t.Fatalf("New panicked with %v, want *ShapeError", r)
		}
	}()
	New(Float, -1)
}

func TestAllocFailInjection(t *testing.T) {
	injected := errors.New("allocator fault")
	TestHookAllocFail = func(cells int) error {
		if cells >= 50 {
			return injected
		}
		return nil
	}
	defer func() { TestHookAllocFail = nil }()
	if _, err := NewBudgeted(nil, Float, 10, 10); !errors.Is(err, injected) {
		t.Errorf("hook not consulted: err = %v", err)
	}
	if _, err := NewBudgeted(nil, Float, 7); err != nil {
		t.Errorf("small allocation should pass the hook: %v", err)
	}
}

func TestGenArrayExecBudget(t *testing.T) {
	body := func(idx []int) (any, error) { return float64(idx[0]), nil }
	x := Exec{Budget: NewBudget(10)}
	_, err := GenArrayExec(Float, []int{0, 0}, []int{100, 100}, []int{100, 100}, body, x)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if m, err := GenArrayExec(Float, []int{0}, []int{5}, []int{5}, body, x); err != nil || m == nil {
		t.Errorf("in-budget genarray failed: %v", err)
	}
}

// Regression: a poisoned row must abort the construct. Before the
// early-abort wiring, GenArray kept evaluating every remaining row
// after the first error; with one worker the order is deterministic, so
// exactly one body call may happen.
func TestGenArrayAbortsAfterFirstError(t *testing.T) {
	pool := par.NewPool(1)
	bad := errors.New("poisoned row")
	var calls atomic.Int64
	_, err := GenArrayExec(Float, []int{0}, []int{1000}, []int{1000},
		func(idx []int) (any, error) {
			calls.Add(1)
			return nil, bad
		}, Exec{Pool: pool})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want poisoned row", err)
	}
	if calls.Load() != 1 {
		t.Errorf("body ran %d times after the poisoned row, want 1", calls.Load())
	}
}

func TestFoldAbortsAfterFirstError(t *testing.T) {
	pool := par.NewPool(1)
	bad := errors.New("poisoned element")
	var calls atomic.Int64
	_, err := foldExecAny(FoldAdd, float64(0), []int{0}, []int{1000},
		func(idx []int) (any, error) {
			calls.Add(1)
			return nil, bad
		}, Exec{Pool: pool})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want poisoned element", err)
	}
	if calls.Load() != 1 {
		t.Errorf("body ran %d times after the poisoned element, want 1", calls.Load())
	}
}

func TestMatrixMapAbortsAfterFirstError(t *testing.T) {
	pool := par.NewPool(1)
	bad := errors.New("poisoned sub-matrix")
	var calls atomic.Int64
	m := New(Float, 1000, 4)
	_, err := MatrixMapExec(m, []int{1}, Float, false,
		func(*Matrix, func(*Matrix) error) error {
			calls.Add(1)
			return bad
		}, Exec{Pool: pool})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want poisoned sub-matrix", err)
	}
	if calls.Load() != 1 {
		t.Errorf("map function ran %d times after the poisoned call, want 1", calls.Load())
	}
}

func TestGenArrayExecCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	// Sequential path (nil pool) must also observe the context.
	_, err := GenArrayExec(Float, []int{0}, []int{1000}, []int{1000},
		func(idx []int) (any, error) {
			calls.Add(1)
			return float64(0), nil
		}, Exec{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential err = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Errorf("%d rows ran under a cancelled context", calls.Load())
	}

	pool := par.NewPool(2)
	_, err = GenArrayExec(Float, []int{0}, []int{1000}, []int{1000},
		func(idx []int) (any, error) { return float64(0), nil },
		Exec{Pool: pool, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pooled err = %v, want context.Canceled", err)
	}
}

// A panic inside a with-loop body must surface as an error (wrapping
// *par.PanicError), not crash the test process — under a pool, and on
// one worker too: every construct runs on par's driver, which isolates
// the caller's share like a helper's.
func TestGenArrayBodyPanicSurfacesAsError(t *testing.T) {
	pool := par.NewPool(4)
	crashing := func(idx []int) (any, error) {
		if idx[0] == 37 {
			panic("body crash")
		}
		return float64(idx[0]), nil
	}
	_, err := GenArrayExec(Float, []int{0}, []int{100}, []int{100}, crashing, Exec{Pool: pool})
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *par.PanicError", err)
	}
	for name, serial := range map[string]func() error{
		"GenArrayExec": func() error {
			_, err := GenArrayExec(Float, []int{0}, []int{100}, []int{100}, crashing, Exec{})
			return err
		},
		"FoldExec": func() error {
			_, err := foldExecAny(FoldAdd, 0.0, []int{0}, []int{100}, crashing, Exec{})
			return err
		},
		"MatrixMapExec": func() error {
			_, err := MatrixMapExec(New(Float, 3, 4), []int{1}, Float, false,
				func(*Matrix, func(*Matrix) error) error { panic("body crash") }, Exec{})
			return err
		},
		"MatrixMapExec general, first application": func() error {
			_, err := MatrixMapExec(New(Float, 3, 4), []int{1}, Float, true,
				func(*Matrix, func(*Matrix) error) error { panic("body crash") }, Exec{})
			return err
		},
	} {
		var pe *par.PanicError
		if err := serial(); !errors.As(err, &pe) || pe.Worker != 0 || pe.Value != "body crash" || !strings.Contains(string(pe.Stack), "crash_test.go") {
			t.Errorf("%s on one worker: err = %v, want the *par.PanicError of worker 0 with the stack of the panic site", name, err)
		}
	}
	// The pool stays usable.
	m, err := GenArrayExec(Float, []int{0}, []int{10}, []int{10},
		func(idx []int) (any, error) { return float64(idx[0]), nil }, Exec{Pool: pool})
	if err != nil || m == nil {
		t.Errorf("pool unusable after body panic: %v", err)
	}
}

// One worker polls the context where the serial loops did, between two
// rows (steps, applications, chunks): a context that dies inside row k
// stops the construct after that row, nil pool and pool of one alike.
func TestOneWorkerPollsBetweenRows(t *testing.T) {
	const rows, dieIn = 100, 6
	m := New(Float, rows, 4)
	for _, pool := range []*par.Pool{nil, par.NewPool(1)} {
		for name, construct := range map[string]func(x Exec, row func()) error{
			"GenArrayExec": func(x Exec, row func()) error {
				_, err := GenArrayExec(Float, []int{0}, []int{rows}, []int{rows},
					func([]int) (any, error) { row(); return 0.0, nil }, x)
				return err
			},
			"FoldExec": func(x Exec, row func()) error {
				_, err := foldExecAny(FoldAdd, 0.0, []int{0}, []int{rows},
					func([]int) (any, error) { row(); return 0.0, nil }, x)
				return err
			},
			"MatrixMapExec": func(x Exec, row func()) error {
				_, err := MatrixMapExec(m, []int{1}, Float, false,
					func(sub *Matrix, store func(*Matrix) error) error { row(); return store(sub) }, x)
				return err
			},
			"MatrixMapExec general": func(x Exec, row func()) error {
				_, err := MatrixMapExec(m, []int{1}, Float, true,
					func(sub *Matrix, store func(*Matrix) error) error { row(); return store(sub) }, x)
				return err
			},
			"runKernel": func(x Exec, row func()) error {
				return runKernel(x, rows*8, 8, func(lo, hi int) error { row(); return nil })
			},
		} {
			ctx, cancel := context.WithCancel(context.Background())
			ran := 0
			err := construct(Exec{Pool: pool, Ctx: ctx}, func() {
				if ran++; ran == dieIn {
					cancel()
				}
			})
			cancel()
			if !errors.Is(err, context.Canceled) || ran != dieIn {
				t.Errorf("pool %v, %s: err %v after %d rows, want the cancellation after row %d", pool, name, err, ran, dieIn)
			}
		}
	}
}

// matrixMap copies each result's cells into the output inside store, so
// an engine may recycle the result as soon as store returns and makes no
// copy of its own: the recycled buffer comes back as the next
// application's result and the cells already stored stay right. The
// map itself allocates the output and one sub-matrix an application,
// all of it charged: the callee can see every one of those cells. The
// rest is the callee's.
func TestMatrixMapStoresBeforeRelease(t *testing.T) {
	const rows, cols = 6, 2 * minReuseCells
	m := New(Float, rows, cols)
	for k := range m.floats() {
		m.floats()[k] = float64(k)
	}
	for _, general := range []bool{false, true} {
		for _, pool := range []*par.Pool{nil, par.NewPool(3)} {
			DrainFreeLists()
			ResetKernelStats()
			budget := NewBudget(1 << 30)
			x := Exec{Pool: pool, Budget: budget}
			var allocated atomic.Int64
			TestHookAllocFail = func(cells int) error { allocated.Add(int64(cells)); return nil }
			out, err := MatrixMapExec(m, []int{1}, Float, general, func(sub *Matrix, store func(*Matrix) error) error {
				res, err := BroadcastExec(OpMul, sub, 2.0, true, Exec{Budget: budget})
				if err != nil {
					return err
				}
				err = store(res)
				res.Recycle() // what releasing the callee's frame does to its result
				return err
			}, x)
			TestHookAllocFail = nil
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range out.floats() {
				if v != 2*m.floats()[k] {
					t.Fatalf("general %v pool %v: out[%d] = %v, want %v", general, pool, k, v, 2*m.floats()[k])
				}
			}
			if _, _, reused := KernelStats(); reused < rows/2 {
				t.Errorf("general %v pool %v: %d of %d results came off the free list: nothing was recycled under the stores", general, pool, reused, rows)
			}
			const n = rows * cols // cells of m, of the output, of all results, of all sub-matrices
			if allocated.Load() != 3*n || budget.Used() != 3*n {
				t.Errorf("general %v pool %v: %d cells allocated, %d charged, want %d for both (output, results, sub-matrices)",
					general, pool, allocated.Load(), budget.Used(), 3*n)
			}
		}
	}
}
