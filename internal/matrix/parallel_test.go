package matrix

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/par"
)

// Property: parallel with-loop execution is bit-identical to
// sequential execution (the §III-C fork-join model preserves the
// construct's semantics).
func TestQuickParallelGenArrayMatchesSequential(t *testing.T) {
	pool := par.NewPool(4)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(16)
		cols := 1 + r.Intn(16)
		body := func(idx []int) (any, error) {
			return float64(idx[0]*31+idx[1]*7) * 0.5, nil
		}
		seq, err := GenArrayExec(Float, []int{0, 0}, []int{rows, cols}, []int{rows, cols}, body, Exec{})
		if err != nil {
			return false
		}
		parl, err := GenArrayExec(Float, []int{0, 0}, []int{rows, cols}, []int{rows, cols}, body, Exec{Pool: pool})
		if err != nil {
			return false
		}
		return Equal(seq, parl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickParallelFoldMatchesSequential(t *testing.T) {
	pool := par.NewPool(3)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		body := func(idx []int) (any, error) { return int64(idx[0] % 17), nil }
		for _, kind := range []FoldKind{FoldAdd, FoldMin, FoldMax} {
			seq, err := foldExecAny(kind, int64(5), []int{0}, []int{n}, body, Exec{})
			if err != nil {
				return false
			}
			parl, err := foldExecAny(kind, int64(5), []int{0}, []int{n}, body, Exec{Pool: pool})
			if err != nil {
				return false
			}
			if seq != parl {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestParallelMatrixMapMatchesSequential(t *testing.T) {
	pool := par.NewPool(4)
	m := seqFloat(6, 5, 7)
	f := func(sub *Matrix) (*Matrix, error) { return BroadcastExec(OpMul, sub, 3.0, true, Exec{}) }
	seq, err := MatrixMapExec(m, []int{0, 1}, Float, false, storing(f), Exec{})
	if err != nil {
		t.Fatal(err)
	}
	parl, err := MatrixMapExec(m, []int{0, 1}, Float, false, storing(f), Exec{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(seq, parl) {
		t.Fatal("parallel matrixMap differs from sequential")
	}
}

// The temporal mean of Fig 1/Fig 3, computed with nested with-loop
// primitives, must equal a direct two-loop computation.
func TestTemporalMeanWithLoops(t *testing.T) {
	pool := par.NewPool(4)
	const m, n, p = 8, 9, 10
	mat := New(Float, m, n, p)
	r := rand.New(rand.NewSource(42))
	for k := range mat.floats() {
		mat.floats()[k] = r.Float64() * 10
	}
	means, err := GenArrayExec(Float, []int{0, 0}, []int{m, n}, []int{m, n},
		func(idx []int) (any, error) {
			i, j := idx[0], idx[1]
			sum, err := foldExecAny(FoldAdd, 0.0, []int{0}, []int{p},
				func(kidx []int) (any, error) {
					v, err := mat.At(i, j, kidx[0])
					if err != nil {
						return nil, err
					}
					return v, nil
				}, Exec{}) // inner construct runs sequentially, as in the generated C
			if err != nil {
				return nil, err
			}
			return sum.(float64) / p, nil
		}, Exec{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	// Direct reference (the expanded loops of Fig 3).
	want := New(Float, m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			for k := 0; k < p; k++ {
				acc += mat.floats()[i*n*p+j*p+k]
			}
			want.floats()[i*n+j] = acc / p
		}
	}
	if !AlmostEqual(means, want, 1e-9) {
		t.Fatal("with-loop temporal mean differs from Fig 3 reference loops")
	}
}

func TestGenArrayErrorPropagatesFromPool(t *testing.T) {
	pool := par.NewPool(2)
	_, err := GenArrayExec(Float, []int{0}, []int{100}, []int{100},
		func(idx []int) (any, error) {
			if idx[0] == 63 {
				return nil, errBody
			}
			return 0.0, nil
		}, Exec{Pool: pool})
	if err != errBody {
		t.Fatalf("err = %v, want body error", err)
	}
}

var errBody = &bodyErr{}

type bodyErr struct{}

func (*bodyErr) Error() string { return "body failure" }

// With self-scheduling the span list runKernel cuts is the schedule:
// the spans handed to the body are disjoint, cover [0, n) exactly once
// and, where there are helpers to share them with, number at most four
// a worker. One worker walks chunks of exactly grain, whose ends are
// where it polls.
func TestRunKernelSpansCoverOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		pool := par.NewPool(workers)
		for _, grain := range []int{1, 7, 64} {
			for _, n := range []int{0, 1, 2, 2*grain - 1, 2 * grain, 2*grain + 1, 100000} {
				hits := make([]int32, n)
				var spans atomic.Int32
				err := runKernel(Exec{Pool: pool}, n, grain, func(lo, hi int) error {
					spans.Add(1)
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("n=%d grain=%d workers=%d: element %d visited %d times", n, grain, workers, i, h)
					}
				}
				if workers == 1 && int(spans.Load()) != (n+grain-1)/grain {
					t.Errorf("n=%d grain=%d on one worker: %d spans, want %d of grain", n, grain, spans.Load(), (n+grain-1)/grain)
				}
				if workers > 1 && n >= 2*grain && int(spans.Load()) > 4*workers {
					t.Errorf("n=%d grain=%d workers=%d: %d spans, at most %d wanted", n, grain, workers, spans.Load(), 4*workers)
				}
			}
		}
	}
}

// foldFixture is a float matrix whose sum depends on the association
// order, the closure body that reads it, and two flat plans of the same
// values: m[i, j], which FoldFlat folds where the cells lie, and
// m[i, j] + 0.0, which it walks in strips.
func foldFixture(t *testing.T) (*Matrix, BodyFunc, [2]*WithProg) {
	const rows, cols = 37, 53
	m := New(Float, rows, cols)
	for k := range m.floats() {
		m.floats()[k] = math.Ldexp(float64(k%13)-6.3, (k*7)%60-30)
	}
	body := func(idx []int) (any, error) { return m.floats()[idx[0]*cols+idx[1]], nil }
	load := []WithInstr{{Op: WPushID, A: 0}, {Op: WPushID, A: 1}, {Op: WLoadF, A: 0, B: 2}}
	var progs [2]*WithProg
	for k, code := range [][]WithInstr{load, append(load[:3:3], WithInstr{Op: WPushFloat}, WithInstr{Op: WAddF})} {
		prog, ok := CompileWith(WithSpec{Code: code, Rank: 2, MatElem: []Elem{Float}, Float: true, OutFloat: true})
		if !ok {
			t.Fatal("plan does not compile")
		}
		progs[k] = prog
	}
	if progs[0].load == nil || progs[1].load != nil {
		t.Fatal("the fixture's plans no longer take one branch of FoldFlat each")
	}
	return m, body, progs
}

// A pooled float fold keeps the partition it had under the resident
// pool — ceil-sized row blocks by worker id, identity-seeded partials
// combined base first in block order — so it returns the same bits on
// every run, and those bits are the partition's written out by hand.
// One worker (a nil pool, or a pool of one) is the plain left-to-right
// sum from the base. Both are also the bits the parent commit returned:
// the constants come from running this fixture there, before FoldExec
// and FoldFlat were handed to par.Fold. The values make the association
// order matter.
func TestPooledFoldBitsAreStable(t *testing.T) {
	const workers = 3
	m, body, progs := foldFixture(t)
	rows, cols := m.shape()[0], m.shape()[1]
	base := 0.125
	want := base
	chunk := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		part := 0.0
		for _, v := range m.floats()[min(w*chunk, rows)*cols : min(w*chunk+chunk, rows)*cols] {
			part += v
		}
		want += part
	}
	serial := base
	for _, v := range m.floats() {
		serial += v
	}
	if serial == want {
		t.Fatal("the data does not distinguish association orders")
	}
	if math.Float64bits(want) != 0xc205b287217268e6 || math.Float64bits(serial) != 0xc205b287217268e8 {
		t.Fatalf("fixture: partitioned %x, serial %x: not the parent's", math.Float64bits(want), math.Float64bits(serial))
	}
	for _, tc := range []struct {
		name string
		pool *par.Pool
		want float64
	}{{"three workers", par.NewPool(workers), want}, {"one worker", par.NewPool(1), serial}, {"nil pool", nil, serial}} {
		for run := 0; run < 200; run++ {
			got, err := foldExecAny(FoldAdd, base, []int{0, 0}, []int{rows, cols}, body, Exec{Pool: tc.pool})
			if err != nil {
				t.Fatal(err)
			}
			var flat [2]any
			for k, prog := range progs {
				r := prog.NewRun()
				copy(r.Upper, m.shape())
				r.Mats[0] = m
				var handled bool
				flat[k], handled, err = foldFlatAny(FoldAdd, base, r, Exec{Pool: tc.pool})
				r.Release()
				if err != nil || !handled {
					t.Fatalf("FoldFlat: handled=%v err=%v", handled, err)
				}
			}
			for _, v := range []any{got, flat[0], flat[1]} {
				if math.Float64bits(v.(float64)) != math.Float64bits(tc.want) {
					t.Fatalf("%s, run %d: FoldExec %x, FoldFlat %x in place, %x in strips, want %x", tc.name, run,
						math.Float64bits(got.(float64)), math.Float64bits(flat[0].(float64)), math.Float64bits(flat[1].(float64)), math.Float64bits(tc.want))
				}
			}
		}
	}
}

// A construct on one worker — Exec{}'s nil pool or a pool of one — runs
// on its caller's goroutine and allocates what was measured for it when
// matrix headers went to one object (EXPERIMENTS.md E21), which is no
// more than the serial twin it replaced did (E19; a pool of one cost
// that 4 to 41 more). The float bodies box one value a cell, which is
// all of the large counts; a result is its header (the cells come back
// from the free list) and the construct its closure.
func TestOneWorkerConstructsAllocateNoMore(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled scratch is dropped at random under the race detector")
	}
	m, body, progs := foldFixture(t)
	mT, err := TransposeExec(m, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	big := New(Float, 8*ParallelGrain)
	var strayed atomic.Int32
	for _, pool := range []*par.Pool{nil, par.NewPool(1)} {
		x := Exec{Pool: pool}
		base := runtime.NumGoroutine()
		watched := func(idx []int) (any, error) {
			if runtime.NumGoroutine() > base {
				strayed.Add(1)
			}
			return body(idx)
		}
		same := func(sub *Matrix, store func(*Matrix) error) error {
			if runtime.NumGoroutine() > base {
				strayed.Add(1)
			}
			return store(sub)
		}
		flat := func(prog *WithProg, f func(r *WithRun)) func() {
			return func() {
				r := prog.NewRun()
				copy(r.Upper, m.shape())
				copy(r.Shape, m.shape())
				r.Mats[0] = m
				f(r)
				r.Release()
			}
		}
		for _, tc := range []struct {
			name string
			most float64
			f    func()
		}{
			{"GenArrayExec", 1967, func() {
				out, _ := GenArrayExec(Float, []int{0, 0}, []int{37, 53}, []int{37, 53}, watched, x)
				out.Recycle()
			}},
			{"FoldExec", 1966, func() { _, _ = foldExecAny(FoldAdd, 0.125, []int{0, 0}, []int{37, 53}, watched, x) }},
			{"MatrixMapExec", 117, func() {
				out, _ := MatrixMapExec(m, []int{1}, Float, false, same, x)
				out.Recycle()
			}},
			{"MatrixMapExec general", 118, func() {
				out, _ := MatrixMapExec(m, []int{1}, Float, true, same, x)
				out.Recycle()
			}},
			{"FoldFlat in place", 2, flat(progs[0], func(r *WithRun) { _, _, _ = foldFlatAny(FoldAdd, 0.125, r, x) })},
			{"FoldFlat in strips", 3, flat(progs[1], func(r *WithRun) { _, _, _ = foldFlatAny(FoldAdd, 0.125, r, x) })},
			{"GenArrayFlat", 2, flat(progs[1], func(r *WithRun) {
				out, _, _ := GenArrayFlat(r, x)
				out.Recycle()
			})},
			{"ElementwiseExec", 2, func() {
				out, _ := ElementwiseExec(OpAdd, m, m, x)
				out.Recycle()
			}},
			{"ElementwiseExec, 8 grains", 2, func() {
				out, _ := ElementwiseExec(OpAdd, big, big, x)
				out.Recycle()
			}},
			{"TransposeExec", 2, func() {
				out, _ := TransposeExec(m, x)
				out.Recycle()
			}},
			{"MatMulExec", 2, func() {
				out, _ := MatMulExec(m, mT, x)
				out.Recycle()
			}},
		} {
			if got := testing.AllocsPerRun(50, tc.f); got > tc.most {
				t.Errorf("pool %v: %s allocates %.0f a construct, measured %.0f", pool, tc.name, got, tc.most)
			}
		}
		if g := runtime.NumGoroutine(); g > base || strayed.Load() != 0 {
			t.Errorf("pool %v: %d goroutines before, %d after, %d bodies saw another", pool, base, g, strayed.Load())
		}
	}
}
