// Allocation budgets: a per-execution cap on the total cells the
// matrix runtime may allocate, so an adversarial genarray (or an
// allocation loop) fails as a structured error instead of OOM-killing
// the process. The budget is charged before the backing storage is
// made, which is what keeps a `genarray([1000000, 1000000], ...)`
// request from ever touching the Go heap.
package matrix

import (
	"fmt"
	"sync/atomic"
)

// Budget caps the cells one execution may allocate, cumulatively.
// A nil *Budget means unlimited. Safe for concurrent charging (pool
// workers allocate result rows concurrently in future layouts).
type Budget struct {
	limit int64
	used  atomic.Int64
}

// NewBudget returns a budget of maxCells total cells; maxCells <= 0
// returns nil (unlimited), so callers can pass a config value through.
func NewBudget(maxCells int64) *Budget {
	if maxCells <= 0 {
		return nil
	}
	return &Budget{limit: maxCells}
}

// Used returns the cells charged so far.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Limit returns the configured cap (0 for a nil budget).
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// Charge reserves cells against the budget, failing with a
// *BudgetError when the cap would be exceeded. Charging is permanent
// for the execution — the budget bounds total allocation work, not
// live memory, so allocation loops are caught too.
func (b *Budget) Charge(cells int) error {
	if b == nil {
		return nil
	}
	if cells < 0 {
		return &ShapeError{msg: fmt.Sprintf("matrix: negative allocation of %d cells", cells)}
	}
	// Compare-and-swap, not add-then-undo: workers charge concurrently
	// (matrixMap admits a sub-matrix an application), and a refused
	// request must neither fail a neighbour's that fits nor show in the
	// count its error reports.
	for {
		used := b.used.Load()
		if int64(cells) > b.limit-used {
			return &BudgetError{Requested: int64(cells), Used: used, Limit: b.limit}
		}
		if b.used.CompareAndSwap(used, used+int64(cells)) {
			return nil
		}
	}
}

// BudgetError reports an allocation denied by a Budget; the
// interpreter maps it to the "oom" trap.
type BudgetError struct {
	Requested, Used, Limit int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("matrix: allocation of %d cells exceeds the budget (%d of %d cells already used)",
		e.Requested, e.Used, e.Limit)
}

// ShapeError reports a structurally impossible allocation request — a
// negative dimension or a size overflow; the interpreter maps it to
// the "shape" trap.
type ShapeError struct{ msg string }

func (e *ShapeError) Error() string { return e.msg }

// TestHookAllocFail, when non-nil, is consulted on every budgeted
// allocation with the requested cell count; returning a non-nil error
// makes the allocation fail with it. It is the build-tag-free fault
// injection seam the crash-only suite uses to simulate allocator
// failure. Must be nil in production.
var TestHookAllocFail func(cells int) error
