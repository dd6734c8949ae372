// Package par is the fork-join runtime behind the parallel constructs.
//
// The paper's enhanced fork-join model (§III-C, adopted from SAC)
// spawns worker threads once at program start and sends them "straight
// into a spin lock where they sit idle until some parallel work is to
// be done", with the main thread waiting in a stop barrier. That model
// assumes one program owns the machine, and on the Go runtime it loses:
// spinners keep the run queues full, the main thread burns a core
// waiting instead of taking a share, and one static block per worker
// cannot balance uneven bodies. BENCH_scaling.json holds the measured
// ladder (spin pool, parked helpers, goroutines per construct, shared
// counter at grain 1, blocked grain, stealing); this package ships the
// rung the data picked and the spin pool survives only as the E8
// exhibit in test code.
//
// What ships: a construct is a fork-join in which the caller is worker
// 0 and workers-1 helper goroutines live from the fork to the join (a
// sync.WaitGroup, no spinning, nothing resident between constructs).
// The ParallelFor family is self-scheduled: every worker claims blocks
// of the iteration space from one shared counter until it runs dry.
// Reductions keep a static partition that is a pure function of
// (n, workers), partials combined in partition order, so a float fold
// returns the same bits on every run. A Pool is therefore only a
// worker count: the per-construct concurrency cap.
//
// Constructs are panic-isolated: a panic in any worker's share, the
// caller's included, is recovered into a *PanicError, the join is
// still reached, and the rest of the iteration space is abandoned
// through a cooperative abort flag. Long-lived services rely on this
// to turn a crashing request body into an error return instead of a
// process death.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic recovered from a construct's worker, carrying
// the worker id, the original panic value and the stack at the panic
// site.
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
// construct before its share runs. Fault-injection tests point it at a
// function that panics for a chosen worker id to exercise the recovery
// and abort paths; it must be nil in production. It is a plain package
// variable (no build tag) so the crash-only suite can flip it around a
// live server.
var TestHookInjectPanic func(worker int)

// Pool is the worker count a construct may use. It owns no goroutines.
type Pool struct{ nWorkers int }

// NewPool returns a handle for constructs of n workers (n < 1 means
// GOMAXPROCS).
func NewPool(n int) *Pool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{nWorkers: n}
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.nWorkers }

// Shutdown has nothing to stop: helpers never outlive their construct.
// It is kept so callers written against the resident pool still build.
func (p *Pool) Shutdown() {}

// Construct is the failure state of one running construct: the
// cooperative abort flag its workers poll and the first body error or
// recovered panic. It lives for one fork-join, never on the Pool, so
// constructs that overlap on one Pool cannot see each other's state.
type Construct struct {
	abort atomic.Bool
	mu    sync.Mutex
	err   error
}

// fail records the construct's first error and raises the abort flag
// so other workers skip their remaining iteration space.
func (c *Construct) fail(err error) {
	c.abort.Store(true)
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// Aborted reports whether the construct has failed (or been
// cancelled); bodies partitioning their own iteration space poll it to
// abandon remaining work early.
func (c *Construct) Aborted() bool { return c.abort.Load() }

// work runs one worker's share. The deferred recovery turns a panic
// into the construct's error, so the join is reached unconditionally.
func (c *Construct) work(id int, body func(worker int) error) {
	defer func() {
		if r := recover(); r != nil {
			c.fail(&PanicError{Worker: id, Value: r, Stack: debug.Stack()})
		}
	}()
	if hook := TestHookInjectPanic; hook != nil {
		hook(id)
	}
	if err := body(id); err != nil {
		c.fail(err)
	}
}

// run is the fork-join: body(w) for every w in [0, n), the caller as
// worker 0 beside n-1 helpers that are gone when run returns.
func (c *Construct) run(n int, body func(worker int) error) error {
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for w := 1; w < n; w++ {
		go func() {
			defer wg.Done()
			c.work(w, body)
		}()
	}
	c.work(0, body)
	wg.Wait()
	return c.err
}

// RunErr runs body(c, worker, n) once for every worker id in [0, n),
// n = Workers(), the caller taking worker 0, and returns after all
// have finished, even if some bodies panic: the first body error or
// recovered *PanicError. body must partition its own iteration space
// by worker id (see ParallelForErr for the common case) and should
// poll c.Aborted to honor early abort. Nested constructs are legal
// but pointless — n more goroutines on the same cores — so the
// interpreter parallelizes the outermost construct only (the generated
// C of §III-C behaves the same way).
func (p *Pool) RunErr(body func(c *Construct, worker, n int) error) error {
	var c Construct
	return c.run(p.nWorkers, func(worker int) error { return body(&c, worker, p.nWorkers) })
}

// Run is RunErr for infallible bodies. A body panic still reaches the
// join and is then re-raised in the caller as a *PanicError,
// preserving crash semantics for direct users; the interpreter uses
// the error-returning variants instead.
func (p *Pool) Run(body func(worker, n int)) {
	err := p.RunErr(func(_ *Construct, worker, n int) error {
		body(worker, n)
		return nil
	})
	if err != nil {
		panic(err)
	}
}

// pollCancel reports ctx cancellation without blocking; a nil done
// channel (no context) never cancels.
func pollCancel(ctx context.Context, done <-chan struct{}) error {
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return ctx.Err()
	default:
		return nil
	}
}

// ParallelFor executes f(i) for i in [lo, hi), self-scheduled over the
// workers. A panicking f re-panics in the caller as *PanicError.
func (p *Pool) ParallelFor(lo, hi int, f func(i int)) {
	if err := p.ParallelForErr(lo, hi, func(i int) error {
		f(i)
		return nil
	}); err != nil {
		panic(err)
	}
}

// ParallelForErr is ParallelFor with an error-returning body: the
// first error (or recovered worker panic) aborts the construct — no
// worker claims another block, every worker skips the rest of the one
// it holds — and is returned after the join.
func (p *Pool) ParallelForErr(lo, hi int, f func(i int) error) error {
	return p.parallelFor(nil, lo, hi, 0, f)
}

// ParallelForCtx is ParallelForErr that additionally observes ctx
// inside the construct: workers poll the deadline between iterations,
// so a long parallel loop aborts mid-construct, not only at its next
// sequential statement. A nil ctx never cancels.
func (p *Pool) ParallelForCtx(ctx context.Context, lo, hi int, f func(i int) error) error {
	return p.parallelFor(ctx, lo, hi, 0, f)
}

// ParallelChunksCtx is ParallelForCtx for callers that have already
// cut their work into n chunks: each chunk is claimed singly, so the
// caller's chunk list is the schedule.
func (p *Pool) ParallelChunksCtx(ctx context.Context, n int, f func(chunk int) error) error {
	return p.parallelFor(ctx, 0, n, 1, f)
}

// blocksPerWorker sizes ParallelFor's blocks: n/(blocksPerWorker ·
// workers) iterations a claim. BENCH_scaling.json's block column: below
// 4 an uneven body leaves a worker idle at the tail, above 16 nothing
// more is gained and the counter is touched for nothing.
const blocksPerWorker = 8

// parallelFor hands [lo, hi) out in blocks of grain iterations (grain
// < 1: sized by blocksPerWorker) from one shared counter. The counter
// is the only shared write, touched once a block. No more workers are
// forked than there are blocks: a single iteration runs on the caller,
// recovered like any other share.
func (p *Pool) parallelFor(ctx context.Context, lo, hi, grain int, f func(i int) error) error {
	if hi <= lo {
		return nil
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	n := hi - lo
	if grain < 1 {
		grain = max(1, n/(blocksPerWorker*p.nWorkers))
	}
	var c Construct
	var next atomic.Int64
	return c.run(min(p.nWorkers, (n+grain-1)/grain), func(int) error {
		for !c.abort.Load() {
			start := lo + int(next.Add(int64(grain))) - grain
			if start >= hi {
				break
			}
			for i := start; i < min(start+grain, hi); i++ {
				if c.abort.Load() {
					return nil
				}
				if err := pollCancel(ctx, done); err != nil {
					return err
				}
				if err := f(i); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// ParallelReduce folds f(i) for i in [lo, hi) with the associative
// combiner: one partial per worker over a static block partition,
// combined in worker order after the join. A panicking f re-panics in
// the caller as *PanicError.
func (p *Pool) ParallelReduce(lo, hi int, identity float64,
	f func(i int) float64, combine func(a, b float64) float64) float64 {
	v, err := p.ParallelReduceErr(lo, hi, identity,
		func(i int) (float64, error) { return f(i), nil }, combine)
	if err != nil {
		panic(err)
	}
	return v
}

// ParallelReduceErr is ParallelReduce with an error-returning body and
// early abort: after the first error the remaining iteration space is
// skipped and the error is returned. The partition depends only on
// (hi-lo, Workers()), never on timing, so equal inputs give equal bits.
func (p *Pool) ParallelReduceErr(lo, hi int, identity float64,
	f func(i int) (float64, error), combine func(a, b float64) float64) (float64, error) {
	if hi <= lo {
		return identity, nil
	}
	n := hi - lo
	partials := make([]float64, p.nWorkers)
	err := p.RunErr(func(c *Construct, worker, workers int) error {
		chunk := (n + workers - 1) / workers
		start := lo + worker*chunk
		acc := identity
		for i := start; i < min(start+chunk, hi); i++ {
			if c.Aborted() {
				return nil
			}
			v, err := f(i)
			if err != nil {
				return err
			}
			acc = combine(acc, v)
		}
		partials[worker] = acc
		return nil
	})
	if err != nil {
		return identity, err
	}
	acc := identity
	for _, v := range partials {
		acc = combine(acc, v)
	}
	return acc, nil
}

// NaiveSpawn is the fork-join model the paper contrasts against: fresh
// goroutines for each parallel region, one static block each, the
// caller only waiting. Kept for benchmark E8.
func NaiveSpawn(workers, lo, hi int, f func(i int)) {
	if hi <= lo {
		return
	}
	n := hi - lo
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	chunk := (n + workers - 1) / workers
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
