// Crash-proofing tests: panic isolation, the guaranteed stop barrier,
// cooperative early abort, context cancellation and the fault-injection
// hook. All must pass under -race.
package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// forkJoin is the bare fork-join the loop and the fold are built on:
// share once for every worker id in [0, n), on a construct of its own.
func forkJoin(n int, share func(c *construct, worker int) error) error {
	c := new(construct)
	return c.run(n, func(w int) error { return share(c, w) })
}

func TestRunErrRecoversPanic(t *testing.T) {
	p := NewPool(4)
	err := forkJoin(4, func(_ *construct, worker int) error {
		if worker == 2 {
			panic("boom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("run = %v, want *PanicError", err)
	}
	if pe.Worker != 2 {
		t.Errorf("Worker = %d, want 2", pe.Worker)
	}
	if pe.Value != "boom" {
		t.Errorf("Value = %v, want boom", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
	if !strings.Contains(pe.Error(), "boom") {
		t.Errorf("Error() = %q, want the panic value in it", pe.Error())
	}

	// The pool must stay healthy: the same workers serve the next
	// construct (a hung or dead worker would deadlock the barrier here).
	var total atomic.Int64
	p.ParallelFor(0, 100, func(i int) { total.Add(1) })
	if total.Load() != 100 {
		t.Errorf("after panic, ParallelFor ran %d iterations, want 100", total.Load())
	}
}

func TestPanicErrorUnwrap(t *testing.T) {
	sentinel := errors.New("typed failure")
	err := forkJoin(2, func(_ *construct, worker int) error {
		if worker == 0 {
			panic(sentinel)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("errors.Is(err, sentinel) = false; err = %v", err)
	}
	var pe *PanicError
	if errors.As(err, &pe) && pe.Unwrap() != sentinel {
		t.Errorf("Unwrap = %v, want sentinel", pe.Unwrap())
	}
	// Non-error panic values unwrap to nil.
	if (&PanicError{Value: 42}).Unwrap() != nil {
		t.Error("Unwrap of a non-error panic value must be nil")
	}
}

func TestRunRepanicsPanicError(t *testing.T) {
	p := NewPool(2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("ParallelFor did not re-panic")
		}
		if _, ok := r.(*PanicError); !ok {
			t.Fatalf("recovered %T, want *PanicError", r)
		}
	}()
	p.ParallelFor(0, 2, func(i int) {
		if i == 1 {
			panic("direct user crash")
		}
	})
}

// A failing iteration must abort the construct: with one worker the
// iteration order is deterministic, so nothing after the poisoned index
// may run.
func TestParallelForErrEarlyAbort(t *testing.T) {
	p := NewPool(1)
	bad := errors.New("poisoned row")
	var calls atomic.Int64
	err := p.ParallelForCtx(nil, 0, 100, func(_, i int) error {
		calls.Add(1)
		if i == 0 {
			return bad
		}
		return nil
	})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want poisoned row", err)
	}
	if calls.Load() != 1 {
		t.Errorf("body ran %d times after the first error, want 1", calls.Load())
	}
}

// With many workers the abort is cooperative, not exact: assert only
// that a large remainder of the iteration space was skipped.
func TestParallelForErrAbortSkipsWork(t *testing.T) {
	p := NewPool(4)
	bad := errors.New("fail fast")
	var calls atomic.Int64
	const n = 1 << 20
	err := p.ParallelForCtx(nil, 0, n, func(_, i int) error {
		calls.Add(1)
		return bad
	})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v", err)
	}
	if c := calls.Load(); c > n/2 {
		t.Errorf("abort skipped too little: %d of %d iterations ran", c, n)
	}
}

func TestParallelForCtxPreCancelled(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	err := p.ParallelForCtx(ctx, 0, 1000, func(_, i int) error {
		calls.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Each worker may complete at most the iteration it had already
	// started; the bulk of the range must be skipped.
	if c := calls.Load(); c > 8 {
		t.Errorf("%d iterations ran after pre-cancel", c)
	}
}

func TestParallelForCtxCancelMidRun(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var once atomic.Bool
	err := p.ParallelForCtx(ctx, 0, 1<<20, func(_, i int) error {
		if once.CompareAndSwap(false, true) {
			cancel()
			close(release)
		}
		<-release
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled observed mid-construct", err)
	}
}

func TestParallelForCtxDeadline(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := p.ParallelForCtx(ctx, 0, 1<<30, func(_, i int) error {
		time.Sleep(50 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestParallelForSingleElementPanicIsProtected(t *testing.T) {
	p := NewPool(3)
	// n == 1 takes the inline fast path; it must fail identically to
	// the pooled path.
	err := p.ParallelForCtx(nil, 7, 8, func(_, i int) error { panic("inline") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("inline path err = %v, want *PanicError", err)
	}
}

func TestParallelReduceErr(t *testing.T) {
	p := NewPool(4)
	bad := errors.New("bad element")
	add := func(a, b float64) (float64, error) { return a + b, nil }
	_, err := Fold(p, nil, 0, 1000, 1, 0.0, 0.0,
		func(_ int, acc float64, i, _ int) (float64, error) {
			if i == 500 {
				return 0, bad
			}
			return acc + float64(i), nil
		}, add)
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want bad element", err)
	}
	// And a clean reduce still works on the same pool afterwards.
	sum, err := Fold(p, nil, 0, 100, 1, 0.0, 0.0,
		func(_ int, acc float64, _, _ int) (float64, error) { return acc + 1, nil }, add)
	if err != nil || sum != 100 {
		t.Errorf("clean reduce after failure = (%v, %v), want (100, nil)", sum, err)
	}
}

func TestInjectPanicHook(t *testing.T) {
	TestHookInjectPanic = func(worker int) {
		if worker == 1 {
			panic(fmt.Sprintf("injected into worker %d", worker))
		}
	}
	defer func() { TestHookInjectPanic = nil }()
	err := forkJoin(4, func(*construct, int) error { return nil })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("injected panic not surfaced: err = %v", err)
	}
	if pe.Worker != 1 {
		t.Errorf("Worker = %d, want 1", pe.Worker)
	}
	TestHookInjectPanic = nil
	if err := forkJoin(4, func(*construct, int) error { return nil }); err != nil {
		t.Errorf("pool unhealthy after injected panic: %v", err)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Shutdown()
	p.Shutdown() // must not panic or hang
}
