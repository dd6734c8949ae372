// The statement tick polls the run's context on a countdown, not at
// every statement (exec, dispatch.go). These are the cases in which the
// difference could show: a context cancelled before the run starts, a
// loop with nothing in it that polls by itself, and exec running on
// goroutines other than the caller's.
package vm

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/interp"
)

// runWith runs p on the VM, or on the tree walker, under ctx.
func runWith(p *Program, ctx context.Context, threads int, tree bool) (string, error) {
	var out strings.Builder
	it := interp.New(p.prog, p.info, interp.Options{Stdout: &out, Threads: threads, Context: ctx})
	defer it.Close()
	var err error
	if tree {
		_, err = it.Run()
	} else {
		_, err = NewMachine(p, it).Run()
	}
	return out.String(), err
}

// A context cancelled before the run traps at main's first statement
// entry — the body block, before anything prints — with the tree
// walker's error, span included.
func TestPreCancelledContextTrapsAtFirstStatement(t *testing.T) {
	p := compile(t, `
int main() {
	print(1);
	return 0;
}`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	treeOut, treeErr := runWith(p, ctx, 1, true)
	vmOut, vmErr := runWith(p, ctx, 1, false)
	if treeErr == nil || vmErr == nil || treeErr.Error() != vmErr.Error() || !errors.Is(vmErr, context.Canceled) {
		t.Errorf("tree: %v\nvm:   %v", treeErr, vmErr)
	}
	if !strings.HasPrefix(vmErr.Error(), "t.xc:2:12:") {
		t.Errorf("the VM trapped at %q, want main's body block (2:12)", vmErr)
	}
	if treeOut != "" || vmOut != "" {
		t.Errorf("something ran: tree printed %q, vm %q", treeOut, vmOut)
	}
}

// within runs p under a deadline and reports how long after the
// deadline's length the run came back, best of three (a loaded host can
// hold any one goroutine for longer than the margin).
func within(t *testing.T, p *Program, threads int, deadline, margin time.Duration) {
	t.Helper()
	var over time.Duration
	for try := 0; try < 3; try++ {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		t0 := time.Now()
		_, err := runWith(p, ctx, threads, false)
		over = time.Since(t0) - deadline
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("the run ended with %v, want the deadline's error", err)
		}
		if over <= margin {
			return
		}
	}
	t.Errorf("the run came back %v after its %v deadline, want within %v", over, deadline, margin)
}

// A loop with no call and no matrix in it — nothing polls but the tick's
// countdown — under a 100 ms deadline is back within 150 ms.
func TestRunawayScalarLoopSeesDeadline(t *testing.T) {
	p := compile(t, `
int main() {
	int i = 0;
	while (i < 2000000000) { i = i + 1; }
	return 0;
}`)
	within(t, p, 1, 100*time.Millisecond, 50*time.Millisecond)
}

// exec also runs on goroutines the caller does not own: a spawned
// call's, and a with-loop body cell's workers. Each polls for itself.
func TestSpawnAndWithLoopCellSeeDeadline(t *testing.T) {
	spin := `
int spin(int seed) {
	int i = seed;
	while (i < 2000000000) { i = i + 1; }
	return i;
}`
	t.Run("cilk spawn", func(t *testing.T) {
		p := compile(t, spin+`
int main() {
	int a = 0;
	spawn a = spin(1);
	sync;
	return a;
}`)
		within(t, p, 2, 50*time.Millisecond, 50*time.Millisecond)
	})
	t.Run("with-loop cell", func(t *testing.T) {
		p := compile(t, spin+`
int main() {
	Matrix int <1> m;
	m = with ([0] <= [i] < [4]) genarray([4], spin(i));
	return m[0];
}`)
		within(t, p, 2, 50*time.Millisecond, 50*time.Millisecond)
	})
}
