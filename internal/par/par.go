// Package par is the fork-join runtime behind the parallel constructs,
// and the one place that decides when a construct forks, how its index
// space is cut, where the context is polled and how partials combine.
//
// The paper's enhanced fork-join model (§III-C, adopted from SAC) spawns
// worker threads once at program start and parks them in a spin lock
// until there is parallel work, the main thread waiting in a stop
// barrier. That assumes one program owns the machine, and on Go it
// loses: spinners keep the run queues full, the main thread burns a core
// waiting instead of taking a share, and one static block per worker
// cannot balance uneven bodies. BENCH_scaling.json holds the measured
// ladder (spin pool, parked helpers, goroutines per construct, shared
// counter at grain 1, blocked grain, stealing); this package ships the
// rung the data picked and the spin pool survives only as the E8 exhibit
// in test code.
//
// What ships: a construct is a fork-join in which the caller is worker 0
// and workers-1 helper goroutines live from the fork to the join (a
// sync.WaitGroup, no spinning, nothing resident between constructs). A
// Pool is therefore only a worker count, and a nil *Pool is the
// one-worker pool: `-t 1` is §III-C's same code with one worker, which
// forks and allocates nothing but polls, aborts and recovers like any
// other. There is one loop, the self-scheduled ParallelFor family (every
// worker claims blocks of the iteration space from one shared counter
// until it runs dry), and one reduction, Fold (a static partition that
// is a pure function of (n, workers), partials combined in partition
// order, so a float fold returns the same bits on every run). Bodies get
// their worker id, in [0, Workers()), to index per-worker scratch with.
//
// Constructs are panic-isolated: a panic in any worker's share, the
// caller's included, is recovered into a *PanicError, the join is still
// reached, and the rest of the iteration space is abandoned through a
// cooperative abort flag. Long-lived services rely on this to turn a
// crashing request body into an error return instead of a process death.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic recovered from a construct's worker: its id,
// the original panic value and the stack at the panic site.
type PanicError struct {
	Worker int
	Value  any
	Stack  []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: panic in worker %d: %v", e.Worker, e.Value)
}

// Unwrap exposes the panic value when it was itself an error, so
// errors.As can classify what crashed (rc violations, shape errors).
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// TestHookInjectPanic, when non-nil, is invoked by every worker of a
// construct before its share runs (worker 0 is the caller, so that id
// covers every construct of one worker). Fault-injection tests point it
// at a function that panics for a chosen worker id to exercise the
// recovery and abort paths; it must be nil in production. It is a plain
// package variable (no build tag) so the crash-only suite can flip it
// around a live server.
var TestHookInjectPanic func(worker int)

// Pool is the worker count a construct may use. It owns no goroutines,
// and a nil *Pool has one worker.
type Pool struct{ nWorkers int }

// NewPool is a handle for constructs of n workers (n < 1: GOMAXPROCS).
func NewPool(n int) *Pool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{nWorkers: n}
}

// Workers returns the worker count.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.nWorkers
}

// Shutdown has nothing to stop: helpers never outlive their construct.
// It stays because bench/ still calls it.
func (p *Pool) Shutdown() {}

// construct is the shared state of one running construct. It lives for
// one fork-join, never on the Pool, so constructs that overlap on one
// Pool cannot see each other's state.
type construct struct {
	ctx   context.Context // nil: never cancelled
	abort atomic.Bool
	err   error // written by the worker that raised abort, read after the join
}

// fail records the construct's first error and raises the abort flag
// so other workers skip their remaining iteration space.
func (c *construct) fail(err error) {
	if c.abort.CompareAndSwap(false, true) {
		c.err = err
	}
}

// stopped is the poll between two steps of a share: whether to abandon
// the rest, and the context's error when that is why (whoever raised
// the abort flag has recorded its own).
func (c *construct) stopped() (bool, error) {
	if c.abort.Load() {
		return true, nil
	}
	if c.ctx != nil {
		select {
		case <-c.ctx.Done():
			return true, c.ctx.Err()
		default:
		}
	}
	return false, nil
}

// work runs one worker's share. The deferred recovery turns a panic
// into the construct's error, so the join is reached unconditionally.
func (c *construct) work(id int, share func(worker int) error) {
	defer func() {
		if r := recover(); r != nil {
			c.fail(&PanicError{Worker: id, Value: r, Stack: debug.Stack()})
		}
	}()
	if hook := TestHookInjectPanic; hook != nil {
		hook(id)
	}
	if err := share(id); err != nil {
		c.fail(err)
	}
}

// run is the fork-join: share(w) for every w in [0, n), the caller as
// worker 0 beside n-1 helpers that are gone when run returns. What the
// helpers capture moves to the heap, so a construct of one worker calls
// work(0, share) itself and stays on its caller's stack. Nested
// constructs are legal but pointless (n more goroutines on the same
// cores): the interpreter parallelizes the outermost construct only, as
// does the generated C of §III-C.
func (c *construct) run(n int, share func(worker int) error) error {
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for w := 1; w < n; w++ {
		go func() {
			defer wg.Done()
			c.work(w, share)
		}()
	}
	c.work(0, share)
	wg.Wait()
	return c.err
}

// Solo is the construct that is one share on one worker, for a caller
// that has found that out itself: share(job) runs here, as worker 0,
// behind the same test hook and the same recovery as any other share.
// job travels by value and share is a plain function, so nothing is
// handed to the heap — run's one-worker case still costs its caller the
// closure it passes in. The share polls the context itself.
func Solo[J, R any](job J, share func(J) (R, error)) (res R, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Worker: 0, Value: r, Stack: debug.Stack()}
		}
	}()
	if hook := TestHookInjectPanic; hook != nil {
		hook(0)
	}
	return share(job)
}

// ParallelFor executes f(i) for i in [lo, hi), self-scheduled over the
// workers. A panicking f re-panics in the caller as *PanicError.
func (p *Pool) ParallelFor(lo, hi int, f func(i int)) {
	err := p.ParallelForCtx(nil, lo, hi, func(_, i int) error { f(i); return nil })
	if err != nil {
		panic(err)
	}
}

// ParallelForCtx executes f(worker, i) for i in [lo, hi). The first
// error (or recovered worker panic) aborts the construct — no worker
// claims another block, every worker skips the rest of the one it
// holds — and is returned after the join. Workers poll ctx (nil: never
// cancelled) between iterations too, so a long parallel loop stops
// mid-construct, not only at its next sequential statement.
func (p *Pool) ParallelForCtx(ctx context.Context, lo, hi int, f func(worker, i int) error) error {
	return p.parallelFor(ctx, lo, hi, 0, f, nil)
}

// ParallelChunksCtx is ParallelForCtx for callers that have already cut
// their work: f(lo, hi) once for every span-sized piece of [0, n), each
// claimed singly, so the caller's cut is the schedule.
func (p *Pool) ParallelChunksCtx(ctx context.Context, n, span int, f func(lo, hi int) error) error {
	return p.parallelFor(ctx, 0, n, max(span, 1), nil, f)
}

// blocksPerWorker sizes ParallelFor's blocks: n/(blocksPerWorker ·
// workers) iterations a claim. BENCH_scaling.json's block column: below
// 4 an uneven body leaves a worker idle at the tail, above 16 nothing
// more is gained and the counter is touched for nothing.
const blocksPerWorker = 8

// loop is one self-scheduled loop: [lo, hi) handed out in blocks of
// grain iterations from one shared counter, the only shared write. A
// block goes to piece whole or to each an iteration at a time.
type loop struct {
	construct
	next          atomic.Int64
	lo, hi, grain int
	each          func(worker, i int) error
	piece         func(lo, hi int) error
}

// parallelFor runs the loop (grain < 1: sized by blocksPerWorker). No
// more workers are forked than there are blocks: a single block runs on
// the caller, recovered like any other share.
func (p *Pool) parallelFor(ctx context.Context, lo, hi, grain int, each func(worker, i int) error, piece func(lo, hi int) error) error {
	if hi <= lo {
		return nil
	}
	n := hi - lo
	if grain < 1 {
		grain = max(1, n/(blocksPerWorker*p.Workers()))
	}
	workers := min(p.Workers(), (n+grain-1)/grain)
	if workers == 1 {
		l := loop{construct: construct{ctx: ctx}, lo: lo, hi: hi, grain: grain, each: each, piece: piece}
		l.work(0, l.share)
		return l.err
	}
	l := &loop{construct: construct{ctx: ctx}, lo: lo, hi: hi, grain: grain, each: each, piece: piece}
	return l.run(workers, l.share)
}

// share is one worker's part: blocks until the counter runs dry, a poll
// before every call of the body.
func (l *loop) share(worker int) error {
	for {
		start := l.lo + int(l.next.Add(int64(l.grain))) - l.grain
		end := min(start+l.grain, l.hi)
		if start >= end {
			return nil
		}
		for i := start; i < end; i++ {
			stop, err := l.stopped()
			if stop {
				return err
			}
			if l.piece != nil {
				err, i = l.piece(start, end), end // the block in one call
			} else {
				err = l.each(worker, i)
			}
			if err != nil {
				return err
			}
		}
	}
}

// Fold reduces [lo, hi) onto base: fold(worker, acc, i0, i1) returns
// acc with the step [i0, i1), at most step indices, combined in. The
// range is cut into one ceil-sized run a worker, by worker id — a pure
// function of (hi-lo, Workers()), never of timing, so equal inputs give
// equal bits. Every worker folds its run from ident, combine's
// identity, polling between steps, and the partials are combined onto
// base in worker order after the join. A lone run (one worker, or one
// index) is folded from base itself, on the caller: seeding one partial
// with the identity and combining it afterwards would re-associate a
// float sum. The first error or recovered panic is returned.
func Fold[T any](p *Pool, ctx context.Context, lo, hi, step int, base, ident T,
	fold func(worker int, acc T, i0, i1 int) (T, error), combine func(a, b T) (T, error)) (T, error) {
	n := hi - lo
	if n <= 0 {
		return base, nil
	}
	run := (n + p.Workers() - 1) / p.Workers()
	if run >= n {
		c := construct{ctx: ctx}
		c.work(0, func(int) (err error) {
			base, err = foldRun(&c, 0, base, lo, hi, step, fold)
			return err
		})
		return base, c.err
	}
	c := &construct{ctx: ctx}
	partials := make([]T, (n+run-1)/run)
	err := c.run(len(partials), func(w int) (err error) {
		partials[w], err = foldRun(c, w, ident, lo+w*run, min(lo+w*run+run, hi), step, fold)
		return err
	})
	for k := 0; k < len(partials) && err == nil; k++ {
		base, err = combine(base, partials[k])
	}
	return base, err
}

// foldRun folds one worker's run of indices, a step at a time.
func foldRun[T any](c *construct, worker int, acc T, lo, hi, step int,
	fold func(worker int, acc T, i0, i1 int) (T, error)) (T, error) {
	for i := lo; i < hi; i += step {
		stop, err := c.stopped()
		if stop {
			return acc, err
		}
		if acc, err = fold(worker, acc, i, min(i+step, hi)); err != nil {
			return acc, err
		}
	}
	return acc, nil
}

// ParallelReduce folds f(i) for i in [lo, hi) with the associative
// combiner, whose identity is identity: Fold over single indices. A
// panicking f re-panics in the caller as *PanicError.
func (p *Pool) ParallelReduce(lo, hi int, identity float64, f func(i int) float64, combine func(a, b float64) float64) float64 {
	v, err := Fold(p, nil, lo, hi, 1, identity, identity,
		func(_ int, acc float64, i, _ int) (float64, error) { return combine(acc, f(i)), nil },
		func(a, b float64) (float64, error) { return combine(a, b), nil })
	if err != nil {
		panic(err)
	}
	return v
}

// NaiveSpawn is the fork-join model the paper contrasts against: fresh
// goroutines for each parallel region, one static block each, the
// caller only waiting. Kept for benchmark E8.
func NaiveSpawn(workers, lo, hi int, f func(i int)) {
	if hi <= lo {
		return
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	chunk := (hi - lo + workers - 1) / workers
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			start := lo + w*chunk
			for i := start; i < min(start+chunk, hi); i++ {
				f(i)
			}
		}()
	}
	wg.Wait()
}
