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

func TestRunErrRecoversPanic(t *testing.T) {
	p := NewPool(4)
	err := p.RunErr(func(_ *Construct, worker, n int) error {
		if worker == 2 {
			panic("boom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("RunErr = %v, want *PanicError", err)
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
	p := NewPool(2)
	err := p.RunErr(func(_ *Construct, worker, n int) error {
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
			t.Fatal("Run did not re-panic")
		}
		if _, ok := r.(*PanicError); !ok {
			t.Fatalf("recovered %T, want *PanicError", r)
		}
	}()
	p.Run(func(worker, n int) {
		if worker == 1 {
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
	err := p.ParallelForErr(0, 100, func(i int) error {
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
	err := p.ParallelForErr(0, n, func(i int) error {
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
	err := p.ParallelForCtx(ctx, 0, 1000, func(i int) error {
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
	err := p.ParallelForCtx(ctx, 0, 1<<20, func(i int) error {
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
	err := p.ParallelForCtx(ctx, 0, 1<<30, func(i int) error {
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
	err := p.ParallelForErr(7, 8, func(i int) error { panic("inline") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("inline path err = %v, want *PanicError", err)
	}
}

func TestParallelReduceErr(t *testing.T) {
	p := NewPool(4)
	bad := errors.New("bad element")
	_, err := p.ParallelReduceErr(0, 1000, 0,
		func(i int) (float64, error) {
			if i == 500 {
				return 0, bad
			}
			return float64(i), nil
		},
		func(a, b float64) float64 { return a + b })
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want bad element", err)
	}
	// And a clean reduce still works on the same pool afterwards.
	sum, err := p.ParallelReduceErr(0, 100, 0,
		func(i int) (float64, error) { return 1, nil },
		func(a, b float64) float64 { return a + b })
	if err != nil || sum != 100 {
		t.Errorf("clean reduce after failure = (%v, %v), want (100, nil)", sum, err)
	}
}

func TestInjectPanicHook(t *testing.T) {
	p := NewPool(4)
	TestHookInjectPanic = func(worker int) {
		if worker == 1 {
			panic(fmt.Sprintf("injected into worker %d", worker))
		}
	}
	defer func() { TestHookInjectPanic = nil }()
	err := p.RunErr(func(_ *Construct, worker, n int) error { return nil })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("injected panic not surfaced: err = %v", err)
	}
	if pe.Worker != 1 {
		t.Errorf("Worker = %d, want 1", pe.Worker)
	}
	TestHookInjectPanic = nil
	if err := p.RunErr(func(_ *Construct, worker, n int) error { return nil }); err != nil {
		t.Errorf("pool unhealthy after injected panic: %v", err)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Shutdown()
	p.Shutdown() // must not panic or hang
}
