// The service surface alternate execution engines build on. The
// bytecode VM (internal/vm) compiles the checked AST to registers but
// delegates every runtime policy decision — step budgets, allocation
// charging, cancellation, rc bookkeeping, builtin I/O — to the same
// Interp methods the tree walker uses, so the two engines cannot
// drift on resource semantics or error texts.
//
// Step accounting (shared contract): execution ticks the step budget
// exactly once per executed statement — block entry, each statement in
// a block, a function body once per call, each loop body (and for-loop
// init/post) once per iteration. Conditions, expressions and global
// initializers never tick. The VM ticks at each compiled statement
// entry (two adjacent entries share one instruction that ticks twice),
// so trap:step fires at the same program point under both engines.
package interp

import (
	"fmt"
	"path/filepath"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/matio"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/rc"
	"repro/internal/types"
)

// Pool returns the interpreter's worker pool (nil at one thread, which
// is par's one-worker pool); engines pass it to Exec for outermost
// constructs and nil inside nested parallel bodies.
func (i *Interp) Pool() *par.Pool { return i.pool }

// Exec is the matrix-runtime execution environment: the supplied pool,
// the interpreter's allocation budget and cancellation context.
func (i *Interp) Exec(pool *par.Pool) matrix.Exec {
	return matrix.Exec{Pool: pool, Budget: i.budget, Ctx: i.ctx}
}

// Budget exposes the cell budget (nil when unbounded).
func (i *Interp) Budget() *matrix.Budget { return i.budget }

// CheckCancel aborts execution once the interpreter's context is
// cancelled. The channel poll is cheap enough to run per statement and
// per with-loop element.
func (i *Interp) CheckCancel(n ast.Node) error {
	if i.done == nil {
		return nil
	}
	select {
	case <-i.done:
		return WrapError(n, i.ctx.Err())
	default:
		return nil
	}
}

// StepTick checks cancellation and debits one statement from the step
// budget (see the step-accounting contract in the package comment
// above).
func (i *Interp) StepTick(n ast.Node) error {
	if err := i.CheckCancel(n); err != nil {
		return err
	}
	max := i.opts.MaxSteps
	if max == 0 {
		return nil
	}
	if s := i.steps.Add(1); s > max {
		return i.StepTrap(n)
	}
	return nil
}

// Cancellable reports whether CheckCancel can ever fail in this run: an
// engine with no step budget and no cancellable context has nothing to
// do at a statement entry.
func (i *Interp) Cancellable() bool { return i.done != nil }

// StepBudget hands an engine the run's statement counter and its bound
// (0: none), so that it can debit statements inline. The contract is
// StepTick's: one Add(1) a statement, a trap (StepTrap, at that
// statement) when the sum passes the bound.
func (i *Interp) StepBudget() (used *atomic.Int64, max int64) { return &i.steps, i.opts.MaxSteps }

// StepTrap is the step budget's trap at statement n.
func (i *Interp) StepTrap(n ast.Node) error {
	return Trapf(n, TrapStep, "execution exceeded %d steps", i.opts.MaxSteps)
}

// BindValue takes a reference to v on behalf of a variable binding.
func (i *Interp) BindValue(v any) {
	switch x := v.(type) {
	case *matrix.Matrix:
		if x != nil {
			x.Bind(i.heap)
		}
	case *rcCell:
		if x != nil {
			x.hdr.IncRef()
		}
	case []any:
		for _, e := range x {
			i.BindValue(e)
		}
	}
}

// ReleaseValue drops a reference taken by BindValue.
func (i *Interp) ReleaseValue(v any) {
	switch x := v.(type) {
	case *matrix.Matrix:
		if x != nil {
			x.DecRef()
		}
	case *rcCell:
		if x != nil {
			x.hdr.DecRef()
		}
	case []any:
		for _, e := range x {
			i.ReleaseValue(e)
		}
	}
}

// EscapeRef takes an extra reference on v's rc-managed parts so the
// value survives its frame's teardown, and returns pending (the
// consuming statement's release list) with them appended. The list comes
// and goes by value so that a caller's stack scratch can serve as one.
func (i *Interp) EscapeRef(v any, pending []rc.Ref) []rc.Ref {
	switch x := v.(type) {
	case *matrix.Matrix:
		if x != nil && x.Tracked() {
			x.IncRef()
			pending = append(pending, x)
		}
	case *rcCell:
		if x != nil {
			x.hdr.IncRef()
			pending = append(pending, x.hdr)
		}
	case []any:
		for _, e := range x {
			pending = i.EscapeRef(e, pending)
		}
	}
	return pending
}

// PrintValue implements the print builtin (serialized on the output
// mutex so parallel spawns interleave whole lines).
func (i *Interp) PrintValue(v any) {
	i.outMu.Lock()
	defer i.outMu.Unlock()
	switch v := v.(type) {
	case float64:
		fmt.Fprintf(i.stdout, "%g\n", v)
	case *matrix.Matrix:
		fmt.Fprintf(i.stdout, "%s\n", v)
	default:
		fmt.Fprintf(i.stdout, "%v\n", v)
	}
}

// ReadMatrixFile implements the readMatrix builtin: in-memory Files
// first, then the filesystem under Dir; either way the program's copy
// is admitted against the budget before it is made, and an in-memory
// one is copied over the caller's pool (nil in nested constructs).
func (i *Interp) ReadMatrixFile(n ast.Node, name string, pool *par.Pool) (*matrix.Matrix, error) {
	x := i.Exec(pool)
	i.fileMu.Lock()
	defer i.fileMu.Unlock()
	var m *matrix.Matrix
	var err error
	if src, ok := i.opts.Files[name]; ok {
		m, err = src.CopyExec(x)
	} else if i.opts.Files != nil && i.opts.Dir == "" {
		return nil, Errorf(n, "readMatrix: no matrix %q provided", name)
	} else {
		m, err = matio.ReadFileBudgeted(x.Budget, filepath.Join(i.opts.Dir, name))
	}
	return m, WrapError(n, err)
}

// WriteMatrixFile implements the writeMatrix builtin. The snapshot kept
// in Files is the host's, outside the budget: the program can only get
// at it through readMatrix, which charges the copy it hands out.
func (i *Interp) WriteMatrixFile(n ast.Node, name string, m *matrix.Matrix) error {
	i.fileMu.Lock()
	defer i.fileMu.Unlock()
	if i.opts.Files != nil && i.opts.Dir == "" {
		i.opts.Files[name] = m.Copy()
		return nil
	}
	return WrapError(n, matio.WriteFile(filepath.Join(i.opts.Dir, name), m))
}

// RcNew allocates a refcounted cell holding v, returning the opaque
// cell value and its header. The fresh count of 1 is the expression's
// temporary reference; the engine must register the header on the
// enclosing statement's pending list.
func (i *Interp) RcNew(v any) (cell any, hdr *rc.Header) {
	h := i.heap.Alloc()
	return &rcCell{hdr: h, val: v}, h
}

// RcGet implements the rcget builtin against an opaque cell value.
func (i *Interp) RcGet(n ast.Node, cellv any) (any, error) {
	cell, ok := cellv.(*rcCell)
	if !ok || cell == nil {
		return nil, Errorf(n, "rcget of a null refcounted pointer")
	}
	if cell.hdr.Freed() {
		return nil, Trapf(n, TrapRC, "rcget of a freed refcounted pointer (use after release)")
	}
	return cell.val, nil
}

// RcSet implements the rcset builtin. elem, when non-nil, is the
// cell's declared element type; the stored value is promoted to it so
// rcget returns a value whose representation matches the static type
// (an int stored through a refcounted float * arrives as float).
func (i *Interp) RcSet(n ast.Node, cellv, v any, elem *types.Type) error {
	cell, ok := cellv.(*rcCell)
	if !ok || cell == nil {
		return Errorf(n, "rcset of a null refcounted pointer")
	}
	if cell.hdr.Freed() {
		return Trapf(n, TrapRC, "rcset of a freed refcounted pointer (use after release)")
	}
	if elem != nil {
		v = PromoteScalar(elem, v)
	}
	cell.val = v
	return nil
}

// RcRelease implements the rcrelease builtin.
func (i *Interp) RcRelease(n ast.Node, cellv any) error {
	cell, ok := cellv.(*rcCell)
	if !ok || cell == nil {
		return Errorf(n, "rcrelease of a null refcounted pointer")
	}
	if !cell.hdr.ForceFree() {
		return Trapf(n, TrapRC, "rcrelease of an already-released refcounted pointer (double release)")
	}
	return nil
}

// PromoteScalar applies the int→float promotion that AssignableTo
// admits statically to an already-evaluated value, recursively through
// tuples. It never checks and never fails; both engines apply it at
// function returns and rcset stores so a value's runtime
// representation always matches its static scalar type. A tuple with no
// float anywhere in its type is returned as it is, not copied.
func PromoteScalar(ty *types.Type, v any) any {
	switch ty.Kind {
	case types.Float:
		if iv, ok := v.(int64); ok {
			return float64(iv)
		}
	case types.Tuple:
		tup, ok := v.([]any)
		if !ok || len(tup) != len(ty.Elems) || !hasFloat(ty) {
			return v
		}
		out := make([]any, len(tup))
		for k := range tup {
			out[k] = PromoteScalar(ty.Elems[k], tup[k])
		}
		return out
	}
	return v
}

// hasFloat reports whether PromoteScalar can change a value of type ty.
func hasFloat(ty *types.Type) bool {
	if ty.Kind == types.Tuple {
		for _, e := range ty.Elems {
			if hasFloat(e) {
				return true
			}
		}
	}
	return ty.Kind == types.Float
}

// ZeroValue produces the default value for a declared type: scalars
// zero, matrices unassigned-nil, tuples elementwise, rc pointers null.
func ZeroValue(ty *types.Type) any {
	switch ty.Kind {
	case types.Int:
		return int64(0)
	case types.Float:
		return float64(0)
	case types.Bool:
		return false
	case types.Matrix, types.AnyMatrix:
		return (*matrix.Matrix)(nil)
	case types.Tuple:
		out := make([]any, len(ty.Elems))
		for k, e := range ty.Elems {
			out[k] = ZeroValue(e)
		}
		return out
	case types.RcPtr:
		return (*rcCell)(nil)
	}
	return nil
}

// FoldKindOf maps the parsed fold operator to the engines': the tree
// walker, the VM and vet's plan builder all take it from here.
func FoldKindOf(k ast.FoldKind) (matrix.FoldKind, bool) {
	switch k {
	case ast.FoldAdd:
		return matrix.FoldAdd, true
	case ast.FoldMul:
		return matrix.FoldMul, true
	case ast.FoldMin:
		return matrix.FoldMin, true
	case ast.FoldMax:
		return matrix.FoldMax, true
	}
	return 0, false
}
