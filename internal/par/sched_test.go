// Schedule tests: the self-scheduled ParallelFor family visits every
// index exactly once whatever the block size, stops claiming after a
// failure, runs the caller as worker 0, keeps reductions bit-stable and
// leaves no goroutine behind. All must pass under -race.
package par

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		// Around the sizes where the block (n / (blocksPerWorker ·
		// workers)) steps from 1 to 2 and from 2 to 3, and far above.
		step := blocksPerWorker * workers
		sizes := []int{0, 1, 2, step - 1, step, step + 1, 2*step - 1, 2 * step, 2*step + 1, 3*step - 1, 3*step + 1, 100000}
		for _, n := range sizes {
			pools := []*Pool{NewPool(workers)}
			if n < 1000 {
				pools = append(pools, NewPool(n+5)) // more workers than indices
			}
			for _, p := range pools {
				hits := make([]atomic.Int32, n)
				p.ParallelFor(10, 10+n, func(i int) { hits[i-10].Add(1) })
				chunkHits := make([]atomic.Int32, n)
				if err := p.ParallelChunksCtx(context.Background(), n, func(c int) error {
					chunkHits[c].Add(1)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				for i := range hits {
					if hits[i].Load() != 1 || chunkHits[i].Load() != 1 {
						t.Fatalf("n=%d workers=%d: index %d ran %d times (ParallelFor), %d times (ParallelChunksCtx)",
							n, p.Workers(), i, hits[i].Load(), chunkHits[i].Load())
					}
				}
			}
		}
	}
}

// After the first error or panic no new chunk is claimed: every worker
// holds one chunk when the failure happens, and those are the only
// chunks that ever run.
func TestNoChunkClaimedAfterFailure(t *testing.T) {
	const workers = 4
	bad := errors.New("poisoned chunk")
	for _, tc := range []struct {
		name string
		fail func() error
	}{
		{"error", func() error { return bad }},
		{"panic", func() error { panic(bad) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var claims atomic.Int32
			var held sync.WaitGroup
			held.Add(workers - 1)
			release := make(chan struct{})
			err := NewPool(workers).ParallelChunksCtx(context.Background(), 1000, func(int) error {
				if claims.Add(1) > 1 {
					held.Done()
					<-release
					return nil
				}
				held.Wait() // every other worker is inside a chunk of its own
				// The others are let go well after this chunk's failure
				// has been recorded (nanoseconds after it returns).
				time.AfterFunc(20*time.Millisecond, func() { close(release) })
				return tc.fail()
			})
			if !errors.Is(err, bad) {
				t.Fatalf("err = %v, want the poisoned chunk", err)
			}
			if c := claims.Load(); c != workers {
				t.Errorf("%d chunks were claimed, want %d: one a worker, none after the failure", c, workers)
			}
		})
	}
}

// goid reads the current goroutine's id off its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	for i := len("goroutine "); i < len(buf); i++ {
		if buf[i] == ' ' {
			return string(buf[:i])
		}
	}
	return string(buf)
}

func TestCallerIsWorkerZeroAndHelpersAreJoined(t *testing.T) {
	p := NewPool(4)
	caller := goid()
	var finished atomic.Int32
	err := p.RunErr(func(_ *Construct, worker, n int) error {
		if worker == 0 {
			if g := goid(); g != caller {
				t.Errorf("worker 0 runs on %s, the caller is %s", g, caller)
			}
			panic("the caller's own share")
		}
		time.Sleep(5 * time.Millisecond) // still running when worker 0 has already failed
		finished.Add(1)
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Worker != 0 {
		t.Fatalf("err = %v, want a *PanicError from worker 0", err)
	}
	if f := finished.Load(); f != 3 {
		t.Errorf("RunErr returned with %d of 3 helpers finished", f)
	}
}

// Threads > GOMAXPROCS: every worker is a goroutine of its own, so a
// body in which all of them meet cannot deadlock.
func TestMoreWorkersThanProcsMakeProgress(t *testing.T) {
	n := 4*runtime.GOMAXPROCS(0) + 3
	p := NewPool(n)
	var meet sync.WaitGroup
	meet.Add(n)
	if err := p.RunErr(func(*Construct, int, int) error {
		meet.Done()
		meet.Wait()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var total atomic.Int64
	p.ParallelFor(0, 10000, func(int) { total.Add(1) })
	if total.Load() != 10000 {
		t.Errorf("ParallelFor ran %d of 10000 iterations", total.Load())
	}
}

// Constructs that overlap on one Pool, side by side or nested, keep
// their failure state apart: the Pool holds none.
func TestOverlappingConstructsShareNoState(t *testing.T) {
	p := NewPool(3)
	bad := errors.New("only the first construct fails")
	var both sync.WaitGroup
	both.Add(2)
	var cleanErr, nestedErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cleanErr = p.RunErr(func(c *Construct, worker, _ int) error {
			if worker == 0 {
				both.Done()
				both.Wait() // the failing construct is running right now
				nestedErr = p.ParallelForErr(0, 100, func(int) error { return nil })
			}
			if c.Aborted() {
				t.Error("a clean construct sees another construct's abort flag")
			}
			return nil
		})
	}()
	err := p.RunErr(func(_ *Construct, worker, _ int) error {
		if worker == 0 {
			both.Done()
			both.Wait()
			return bad
		}
		return nil
	})
	wg.Wait()
	if !errors.Is(err, bad) || cleanErr != nil || nestedErr != nil {
		t.Errorf("failing construct: %v, clean construct: %v, nested construct: %v", err, cleanErr, nestedErr)
	}
}

// A float reduction whose value depends on the association order: the
// static partition makes it the same bits on every run, and the bits
// of the partition written out by hand (the parent's, unchanged).
func TestReduceBitsAreStable(t *testing.T) {
	const n, workers = 10007, 3
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Ldexp(float64(i%13)-6.3, (i*7)%60-30)
	}
	add := func(a, b float64) float64 { return a + b }
	want := 0.0
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		part := 0.0
		for i := w * chunk; i < min(w*chunk+chunk, n); i++ {
			part += vals[i]
		}
		want += part
	}
	serial := 0.0
	for _, v := range vals {
		serial += v
	}
	if serial == want {
		t.Fatal("the data does not distinguish association orders")
	}
	p := NewPool(workers)
	for run := 0; run < 200; run++ {
		got := p.ParallelReduce(0, n, 0, func(i int) float64 { return vals[i] }, add)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("run %d: %x, want %x", run, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// No goroutine outlives its construct, however it ended.
func TestNoGoroutineOutlivesItsConstruct(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(8)
	bad := errors.New("bad")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for k := 0; k < 250; k++ {
		p.ParallelFor(0, 64, func(int) {})
		p.ParallelReduce(0, 64, 0, func(i int) float64 { return 1 }, func(a, b float64) float64 { return a + b })
		_ = p.ParallelForErr(0, 64, func(i int) error {
			if i%2 == 0 {
				return bad
			}
			panic("odd")
		})
		_ = p.ParallelForCtx(ctx, 0, 64, func(int) error { return nil })
	}
	// A helper calls Done before its goroutine has finished exiting.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("goroutines: %d before, %d after 1000 constructs", base, g)
	}
}
