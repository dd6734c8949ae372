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
				if err := p.ParallelChunksCtx(context.Background(), n, 3, func(lo, hi int) error {
					if hi-lo > 3 || (hi-lo < 3 && hi != n) {
						t.Errorf("n=%d: piece [%d, %d) of a cut into threes", n, lo, hi)
					}
					for c := lo; c < hi; c++ {
						chunkHits[c].Add(1)
					}
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
			err := NewPool(workers).ParallelChunksCtx(context.Background(), 1000, 1, func(int, int) error {
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
	caller := goid()
	var finished atomic.Int32
	err := forkJoin(4, func(_ *construct, worker int) error {
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
		t.Errorf("run returned with %d of 3 helpers finished", f)
	}
}

// Threads > GOMAXPROCS: every worker is a goroutine of its own, so a
// body in which all of them meet cannot deadlock.
func TestMoreWorkersThanProcsMakeProgress(t *testing.T) {
	n := 4*runtime.GOMAXPROCS(0) + 3
	p := NewPool(n)
	var meet sync.WaitGroup
	meet.Add(n)
	if err := forkJoin(n, func(*construct, int) error {
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
		cleanErr = forkJoin(3, func(c *construct, worker int) error {
			if worker == 0 {
				both.Done()
				both.Wait() // the failing construct is running right now
				nestedErr = p.ParallelForCtx(nil, 0, 100, func(int, int) error { return nil })
			}
			if c.abort.Load() {
				t.Error("a clean construct sees another construct's abort flag")
			}
			return nil
		})
	}()
	err := forkJoin(3, func(_ *construct, worker int) error {
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
// static partition makes it the same bits on every run, the bits of the
// partition written out by hand, and the bits the parent commit returned
// (the constants; the fixture was run there before Fold replaced
// ParallelReduceErr). One worker, a nil pool included, is the plain
// left-to-right sum: a lone run folds from the base itself.
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
	if math.Float64bits(want) != 0xc227312df0f289c0 || math.Float64bits(serial) != 0xc227312df0f289bb {
		t.Fatalf("fixture: partitioned %x, serial %x: not the parent's", math.Float64bits(want), math.Float64bits(serial))
	}
	for _, tc := range []struct {
		name string
		p    *Pool
		want float64
	}{{"three workers", NewPool(workers), want}, {"one worker", NewPool(1), serial}, {"nil pool", nil, serial}} {
		for run := 0; run < 200; run++ {
			got := tc.p.ParallelReduce(0, n, 0, func(i int) float64 { return vals[i] }, add)
			if math.Float64bits(got) != math.Float64bits(tc.want) {
				t.Fatalf("%s, run %d: %x, want %x", tc.name, run, math.Float64bits(got), math.Float64bits(tc.want))
			}
		}
	}
}

// A construct of one worker — a nil pool, a pool of one, or a loop of
// one block — runs on its caller: no goroutine is started, the worker id
// is 0, and nothing is allocated beyond the closure ParallelFor and
// ParallelReduce wrap their infallible bodies in (the parent allocated 5
// and 6 a construct on a pool of one). It is still a construct: a body
// panic comes back as the *PanicError of worker 0.
func TestOneWorkerConstructsStayOnTheCaller(t *testing.T) {
	ctx := context.Background()
	caller := goid()
	var strayed atomic.Int32
	here := func(worker int) {
		if worker != 0 || goid() != caller {
			strayed.Add(1)
		}
	}
	each := func(worker, _ int) error { here(worker); return nil }
	piece := func(int, int) error { here(0); return nil }
	fold := func(worker int, acc float64, i0, _ int) (float64, error) { here(worker); return acc + float64(i0), nil }
	add := func(a, b float64) (float64, error) { return a + b, nil }
	for _, p := range []*Pool{nil, NewPool(1)} {
		base := runtime.NumGoroutine()
		if err := p.ParallelForCtx(ctx, 0, 100, each); err != nil {
			t.Fatal(err)
		}
		if err := p.ParallelChunksCtx(ctx, 100, 7, piece); err != nil {
			t.Fatal(err)
		}
		if sum, err := Fold(p, ctx, 0, 100, 3, 1.0, 0.0, fold, add); err != nil || sum != 1+33*34/2*3 {
			t.Fatalf("Fold = %v, %v", sum, err)
		}
		p.ParallelFor(0, 100, func(int) { here(0) })
		if g := runtime.NumGoroutine(); g > base || strayed.Load() != 0 {
			t.Errorf("pool %v: %d goroutines before, %d after; %d bodies off the caller or off worker 0", p, base, g, strayed.Load())
		}
		err := p.ParallelForCtx(ctx, 0, 100, func(_, i int) error { panic("one worker's body") })
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Worker != 0 || len(pe.Stack) == 0 {
			t.Errorf("pool %v: body panic = %v, want the *PanicError of worker 0", p, err)
		}
		// goid allocates; these bodies do not.
		each := func(int, int) error { return nil }
		piece := func(int, int) error { return nil }
		fold := func(_ int, acc float64, _, _ int) (float64, error) { return acc + 1, nil }
		quiet := func(int) {}
		one := func(int) float64 { return 1 }
		plus := func(a, b float64) float64 { return a + b }
		for name, tc := range map[string]struct {
			f    func()
			most float64
		}{
			"ParallelForCtx":    {func() { _ = p.ParallelForCtx(ctx, 0, 100, each) }, 0},
			"ParallelChunksCtx": {func() { _ = p.ParallelChunksCtx(ctx, 100, 7, piece) }, 0},
			"Fold":              {func() { _, _ = Fold(p, ctx, 0, 100, 3, 1.0, 0.0, fold, add) }, 0},
			"ParallelFor":       {func() { p.ParallelFor(0, 100, quiet) }, 1},
			"ParallelReduce":    {func() { p.ParallelReduce(0, 100, 0, one, plus) }, 1},
		} {
			if got := testing.AllocsPerRun(100, tc.f); got > tc.most {
				t.Errorf("pool %v: %s allocates %.0f a construct, want at most %.0f", p, name, got, tc.most)
			}
		}
	}
	// More workers than blocks: the single block runs on the caller.
	if err := NewPool(4).ParallelChunksCtx(ctx, 5, 7, piece); err != nil || strayed.Load() != 0 {
		t.Errorf("a loop of one block on a pool of four: err %v, %d bodies off the caller", err, strayed.Load())
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
		_ = p.ParallelForCtx(nil, 0, 64, func(_, i int) error {
			if i%2 == 0 {
				return bad
			}
			panic("odd")
		})
		_ = p.ParallelForCtx(ctx, 0, 64, func(int, int) error { return nil })
	}
	// A helper calls Done before its goroutine has finished exiting.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("goroutines: %d before, %d after 1000 constructs", base, g)
	}
}
