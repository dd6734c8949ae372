// Package interp executes type-checked extended-CMINUS programs. It
// implements the same semantics the code generator's emitted C has:
// matrices are reference values managed by reference counting
// (§III-B), with-loops and matrixMap execute as fork-join constructs
// (§III-C; internal/par) with the outermost parallel construct
// distributed and inner constructs sequential, and matrix indexing /
// overloaded operators behave per §III-A.
//
// Together with internal/cgen this gives the reproduction both halves
// of the paper's translator: inspectable generated C, and runnable
// semantics for the applications of §IV.
package interp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/rc"
	"repro/internal/sem"
	"repro/internal/types"
)

// Options configures an interpreter.
type Options struct {
	// Threads is the worker-pool size for parallel constructs;
	// 0 or 1 runs sequentially (the -t command line argument of the
	// generated programs).
	Threads int
	// Stdout receives print output (defaults to os.Stdout).
	Stdout io.Writer
	// Dir is the base directory for readMatrix/writeMatrix paths.
	Dir string
	// Heap receives reference-count accounting (defaults to a fresh
	// heap; tests use it to assert leak-freedom).
	Heap *rc.Heap
	// MaxSteps bounds execution (0 = no bound) to catch runaway loops.
	MaxSteps int64
	// MaxCells bounds the total matrix cells the program may allocate
	// (0 = no bound); oversized or runaway allocations fail with the
	// "oom" trap instead of OOM-killing the process. Servers clamp
	// this per request.
	MaxCells int64
	// Files provides in-memory matrices for readMatrix, checked
	// before the filesystem. writeMatrix writes back into it when
	// non-nil and Dir is empty.
	Files map[string]*matrix.Matrix
	// Context, when non-nil, cancels execution: the eval loop checks it
	// at every statement and with-loop element and aborts with the
	// context's error (long-lived servers use this for per-request
	// deadlines).
	Context context.Context
}

// Interp executes one program.
type Interp struct {
	prog *ast.Program
	info *sem.Info
	opts Options

	pool        *par.Pool
	heap        *rc.Heap
	budget      *matrix.Budget
	stdout      io.Writer
	outMu       sync.Mutex
	fileMu      sync.Mutex
	globalFrame *frame
	steps       atomic.Int64
	ctx         context.Context
	done        <-chan struct{}
}

// New builds an interpreter for a checked program.
func New(prog *ast.Program, info *sem.Info, opts Options) *Interp {
	i := &Interp{prog: prog, info: info, opts: opts}
	i.stdout = opts.Stdout
	if i.stdout == nil {
		i.stdout = os.Stdout
	}
	i.heap = opts.Heap
	switch {
	case i.heap != nil:
	case opts.Threads > 1:
		i.heap = rc.NewStripedHeap()
	default:
		i.heap = rc.NewHeap()
	}
	if opts.Threads > 1 {
		i.pool = par.NewPool(opts.Threads)
	}
	i.budget = matrix.NewBudget(opts.MaxCells)
	if opts.Context != nil {
		i.ctx = opts.Context
		i.done = opts.Context.Done()
	}
	return i
}

// Close has nothing to release: the pool is a worker count and every
// helper goroutine is joined before its construct returns, trap, panic
// or deadline included. It stays so callers written against the
// resident pool (and their deferred Close) still build.
func (i *Interp) Close() {}

// Heap exposes the RC heap for leak assertions in tests.
func (i *Interp) Heap() *rc.Heap { return i.heap }

// RuntimeError is an execution failure with source position and an
// optional trap classification (see TrapCode).
type RuntimeError struct {
	Node ast.Node
	Trap TrapCode
	Err  error
	// Stack is the goroutine stack at the panic site for TrapPanic
	// errors; nil otherwise.
	Stack []byte
}

func (e *RuntimeError) Error() string {
	kind := "runtime error"
	if e.Trap != TrapNone {
		kind = fmt.Sprintf("runtime error [trap:%s]", e.Trap)
	}
	if e.Node != nil && e.Node.Span().Start.IsValid() {
		return fmt.Sprintf("%s: %s: %v", e.Node.Span(), kind, e.Err)
	}
	return fmt.Sprintf("%s: %v", kind, e.Err)
}

func (e *RuntimeError) Unwrap() error { return e.Err }

// SpanString renders the source span, or "" when unknown; servers put
// it in structured trap responses.
func (e *RuntimeError) SpanString() string {
	if e.Node != nil && e.Node.Span().Start.IsValid() {
		return e.Node.Span().String()
	}
	return ""
}

// Errorf builds an ordinary (untrapped) runtime error at n.
func Errorf(n ast.Node, format string, args ...any) error {
	return &RuntimeError{Node: n, Err: fmt.Errorf(format, args...)}
}

// WrapError attaches a source node and trap classification to err,
// passing existing *RuntimeErrors through unchanged.
func WrapError(n ast.Node, err error) error {
	if err == nil {
		return nil
	}
	if _, ok := err.(*RuntimeError); ok {
		return err
	}
	re := &RuntimeError{Node: n, Trap: classifyErr(err), Err: err}
	// A pool worker that panicked already captured the stack at the
	// panic site; surface it on the trap.
	var pe *par.PanicError
	if errors.As(err, &pe) {
		re.Stack = pe.Stack
	}
	return re
}

// --- frames and reference counting ---

// binding is a variable's current value plus its declared type,
// which drives runtime coercion checks (readMatrix results, int→float
// promotion) on every assignment.
type binding struct {
	v  any
	ty *types.Type
}

// frame is one lexical scope of variable bindings.
type frame struct {
	parent *frame
	vars   map[string]*binding
}

func newFrame(parent *frame) *frame {
	return &frame{parent: parent, vars: map[string]*binding{}}
}

func (f *frame) lookup(name string) (*binding, bool) {
	for cur := f; cur != nil; cur = cur.parent {
		if b, ok := cur.vars[name]; ok {
			return b, true
		}
	}
	return nil, false
}

// ctx is the per-goroutine execution context: parallel with-loop and
// matrixMap bodies run in child contexts with the pool disabled, so
// only the outermost construct is distributed (as in the generated C).
type ctx struct {
	i       *Interp
	pool    *par.Pool
	frame   *frame
	end     []int64 // stack of 'end' values for nested index dims
	pending []rc.Ref
	depth   int
	// futures holds the enclosing function's outstanding Cilk spawns;
	// callFunction syncs them implicitly before returning.
	futures []*spawnFuture
}

func (c *ctx) child(frame *frame, pool *par.Pool) *ctx {
	return &ctx{i: c.i, pool: pool, frame: frame, depth: c.depth + 1}
}

// releasePending drops escape references accumulated since mark.
func (c *ctx) releasePending(mark int) {
	for _, h := range c.pending[mark:] {
		h.DecRef()
	}
	c.pending = c.pending[:mark]
}

// popFrame releases all bindings in f.
func (c *ctx) popFrame(f *frame) {
	for _, b := range f.vars {
		c.i.ReleaseValue(b.v)
	}
}

// exec is the matrix-runtime execution environment for this context:
// the pool (nil in nested constructs), the interpreter's allocation
// budget and cancellation context.
func (c *ctx) exec() matrix.Exec {
	return matrix.Exec{Pool: c.pool, Budget: c.i.budget, Ctx: c.i.ctx}
}

// Run executes main() and returns its exit code. Run never panics: a
// panic escaping evaluation — a matrix kernel shape violation, an rc
// double free, or a fault-injected crash — is recovered into a
// *RuntimeError with a trap code, so a daemon embedding the
// interpreter survives any program it is handed.
func (i *Interp) Run() (code int, err error) {
	defer func() {
		if r := recover(); r != nil {
			code, err = 0, Recovered(i.prog, r)
		}
	}()
	return i.run()
}

func (i *Interp) run() (int, error) {
	mainSig, ok := i.info.Funcs["main"]
	if !ok {
		return 0, fmt.Errorf("interp: program has no main function")
	}
	root := &ctx{i: i, pool: i.pool, frame: newFrame(nil)}
	i.globalFrame = root.frame
	// Globals: evaluate initializers in order.
	gframe := root.frame
	for _, d := range i.prog.Decls {
		g, ok := d.(*ast.GlobalVarDecl)
		if !ok {
			continue
		}
		ty, terr := types.FromAST(g.Type)
		if terr != nil {
			return 0, WrapError(g, terr)
		}
		var v any
		var err error
		if g.Init != nil {
			v, err = root.evalExpr(g.Init)
			if err != nil {
				return 0, err
			}
			v, err = CoerceValue(g, ty, v)
			if err != nil {
				return 0, err
			}
		} else {
			v = ZeroValue(ty)
		}
		root.i.BindValue(v)
		gframe.vars[g.Name] = &binding{v: v, ty: ty}
		root.releasePending(0)
	}
	ret, err := root.callFunction(mainSig.Decl, nil, mainSig.Decl)
	if err != nil {
		return 0, err
	}
	root.releasePending(0)
	root.popFrame(gframe)
	code := 0
	if n, ok := ret.(int64); ok {
		code = int(n)
	}
	return code, nil
}

// rcCell is the runtime value of the refcount extension's pointers.
type rcCell struct {
	hdr *rc.Header
	val any
}

// CoerceValue checks v against declared type ty at binding time: this
// is where AnyMatrix values (readMatrix results) are validated against
// declared matrix types and int→float promotion happens for scalars.
// Both engines share it.
func CoerceValue(n ast.Node, ty *types.Type, v any) (any, error) {
	switch ty.Kind {
	case types.Float:
		if iv, ok := v.(int64); ok {
			return float64(iv), nil
		}
	case types.Matrix:
		m, ok := v.(*matrix.Matrix)
		if !ok {
			return nil, Errorf(n, "expected a matrix value, got %T", v)
		}
		if m == nil {
			return nil, Errorf(n, "use of unassigned matrix")
		}
		wantElem, _ := matrixElemOf(n, ty)
		if m.Elem() != wantElem || m.Rank() != ty.Rank {
			return nil, Errorf(n, "matrix of type Matrix %s <%d> cannot hold a Matrix %s <%d> value",
				ty.Elem, ty.Rank, m.Elem(), m.Rank())
		}
	case types.Tuple:
		tup, ok := v.([]any)
		if !ok || len(tup) != len(ty.Elems) {
			return nil, Errorf(n, "expected a %d-tuple", len(ty.Elems))
		}
		out := make([]any, len(tup))
		for k := range tup {
			cv, err := CoerceValue(n, ty.Elems[k], tup[k])
			if err != nil {
				return nil, err
			}
			out[k] = cv
		}
		return out, nil
	}
	return v, nil
}
