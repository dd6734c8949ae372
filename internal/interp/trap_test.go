// Trap-layer tests: every crash class a user program (or an injected
// fault) can produce must surface as a *RuntimeError with the right
// stable trap code and a source span — never as a process panic — and
// repeated pooled executions must not leak worker goroutines.
package interp

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/parser"
	"repro/internal/rc"
	"repro/internal/sem"
	"repro/internal/source"
)

// mustTrap runs src and asserts it fails with the given trap code.
func mustTrap(t *testing.T, src string, opts Options, want TrapCode) *RuntimeError {
	t.Helper()
	_, _, _, err := run(t, src, opts)
	if err == nil {
		t.Fatalf("expected a %q trap, got success", want)
	}
	var rte *RuntimeError
	if !errors.As(err, &rte) {
		t.Fatalf("err = %v (%T), want *RuntimeError", err, err)
	}
	if rte.Trap != want {
		t.Fatalf("trap = %q, want %q (err: %v)", rte.Trap, want, err)
	}
	if !strings.Contains(rte.Error(), "[trap:"+string(want)+"]") {
		t.Errorf("Error() = %q, want the trap code in it", rte.Error())
	}
	if rte.SpanString() == "" {
		t.Error("RuntimeError carries no source span")
	}
	return rte
}

func TestTrapShapeNegativeDimension(t *testing.T) {
	mustTrap(t, `
int main() {
	int n = 0 - 3;
	Matrix float <1> m;
	m = with ([0] <= [i] < [n]) genarray([n], 1.0);
	return 0;
}`, Options{}, TrapShape)
}

func TestTrapOOMGenarrayOverBudget(t *testing.T) {
	rte := mustTrap(t, `
int main() {
	int n = 100;
	Matrix float <2> m;
	m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 1.0);
	return 0;
}`, Options{MaxCells: 1000}, TrapOOM)
	if !rte.Trap.IsResource() {
		t.Error("oom must classify as a resource trap")
	}
}

func TestTrapOOMAllocationLoop(t *testing.T) {
	// The budget bounds cumulative allocation, so a loop of individually
	// small allocations is caught too.
	mustTrap(t, `
int main() {
	for (int i = 0; i < 1000; i++) {
		Matrix float <1> m = [0 :: 99] * 1.0;
	}
	return 0;
}`, Options{MaxCells: 5000}, TrapOOM)
}

func TestTrapStep(t *testing.T) {
	rte := mustTrap(t, `
int main() {
	int i = 0;
	while (i >= 0) { i = i + 1; }
	return 0;
}`, Options{MaxSteps: 10_000}, TrapStep)
	if !rte.Trap.IsResource() {
		t.Error("step must classify as a resource trap")
	}
}

func TestTrapDepth(t *testing.T) {
	mustTrap(t, `
int f(int x) { return f(x); }
int main() { return f(1); }`, Options{}, TrapDepth)
}

const parallelGenarraySrc = `
int main() {
	int n = 64;
	Matrix float <1> m;
	m = with ([0] <= [i] < [n]) genarray([n], (float)i);
	return 0;
}`

func TestTrapPanicInjectedIntoWorker(t *testing.T) {
	par.TestHookInjectPanic = func(worker int) {
		if worker == 1 {
			panic("injected worker crash")
		}
	}
	defer func() { par.TestHookInjectPanic = nil }()
	rte := mustTrap(t, parallelGenarraySrc, Options{Threads: 4}, TrapPanic)
	if len(rte.Stack) == 0 {
		t.Error("a genuine panic trap must carry a stack")
	}
	if rte.Trap.IsResource() {
		t.Error("panic is a fault, not a resource trap")
	}
}

func TestTrapRCInjectedDoubleFree(t *testing.T) {
	// The hook commits a real rc violation inside a pool worker: the
	// typed panic must be recovered and classified as the rc trap.
	par.TestHookInjectPanic = func(worker int) {
		if worker == 0 {
			h := rc.NewHeap().Alloc()
			h.DecRef()
			h.DecRef()
		}
	}
	defer func() { par.TestHookInjectPanic = nil }()
	mustTrap(t, parallelGenarraySrc, Options{Threads: 4}, TrapRC)
}

func TestOrdinaryRuntimeErrorHasNoTrap(t *testing.T) {
	_, _, _, err := run(t, `
int main() {
	Matrix int <1> v = [0 :: 4];
	return (int)v[9];
}`, Options{})
	var rte *RuntimeError
	if !errors.As(err, &rte) {
		t.Fatalf("err = %v, want *RuntimeError", err)
	}
	if rte.Trap != TrapNone {
		t.Errorf("index error classified as trap %q, want none", rte.Trap)
	}
	if strings.Contains(rte.Error(), "[trap:") {
		t.Errorf("untrapped error message mentions a trap: %q", rte.Error())
	}
}

func TestCloseIdempotent(t *testing.T) {
	_, _, i, err := run(t, `int main() { return 0; }`, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	// run already deferred one Close; two more must be harmless.
	i.Close()
	i.Close()
}

// settled waits for helpers that have signalled their join but not yet
// finished exiting, and reports the goroutine count.
func settled(base int) int {
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// Pooled executions leave no goroutine behind: helpers live for one
// construct, so the count is back at the baseline after the runs.
func TestNoGoroutineLeakAcrossRuns(t *testing.T) {
	base := runtime.NumGoroutine()
	for k := 0; k < 20; k++ {
		_, _, _, err := run(t, parallelGenarraySrc, Options{Threads: 8})
		if err != nil {
			t.Fatal(err)
		}
	}
	if g := settled(base); g > base {
		t.Errorf("goroutines: %d at start, %d after 20 pooled runs", base, g)
	}
}

// Nor does a run that traps inside a parallel construct and whose
// owner then forgets Close: there is nothing left for Close to stop.
func TestNoGoroutineLeakAfterTrapWithoutClose(t *testing.T) {
	par.TestHookInjectPanic = func(worker int) {
		if worker == 1 {
			panic("injected worker crash")
		}
	}
	defer func() { par.TestHookInjectPanic = nil }()
	var d source.Diagnostics
	prog := parser.ParseFile("t.xc", parallelGenarraySrc, parser.AllExtensions(), &d)
	info := sem.Check(prog, &d)
	if d.HasErrors() {
		t.Fatal(d.String())
	}
	base := runtime.NumGoroutine()
	for k := 0; k < 20; k++ {
		_, err := New(prog, info, Options{Threads: 8, Stdout: io.Discard}).Run() // never closed
		var rte *RuntimeError
		if !errors.As(err, &rte) || rte.Trap != TrapPanic {
			t.Fatalf("err = %v, want the panic trap", err)
		}
	}
	if g := settled(base); g > base {
		t.Errorf("goroutines: %d at start, %d after 20 trapped runs that were never closed", base, g)
	}
}
