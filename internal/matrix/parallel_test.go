package matrix

import (
	"math"
	"math/rand"
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
			seq, err := FoldExec(kind, int64(5), []int{0}, []int{n}, body, Exec{})
			if err != nil {
				return false
			}
			parl, err := FoldExec(kind, int64(5), []int{0}, []int{n}, body, Exec{Pool: pool})
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
	seq, err := MatrixMapExec(m, []int{0, 1}, Float, f, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	parl, err := MatrixMapExec(m, []int{0, 1}, Float, f, Exec{Pool: pool})
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
	for k := range mat.f {
		mat.f[k] = r.Float64() * 10
	}
	means, err := GenArrayExec(Float, []int{0, 0}, []int{m, n}, []int{m, n},
		func(idx []int) (any, error) {
			i, j := idx[0], idx[1]
			sum, err := FoldExec(FoldAdd, 0.0, []int{0}, []int{p},
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
				acc += mat.f[i*n*p+j*p+k]
			}
			want.f[i*n+j] = acc / p
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
// and number at most four a worker.
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
				if n >= 2*grain && int(spans.Load()) > 4*workers {
					t.Errorf("n=%d grain=%d workers=%d: %d spans, at most %d wanted", n, grain, workers, spans.Load(), 4*workers)
				}
			}
		}
	}
}

// A pooled float fold keeps the partition it had under the resident
// pool — ceil-sized row blocks by worker id, identity-seeded partials
// combined base first in block order — so it returns the same bits on
// every run, and those bits are the partition's written out by hand.
// The values make the association order matter.
func TestPooledFoldBitsAreStable(t *testing.T) {
	const rows, cols, workers = 37, 53, 3
	m := New(Float, rows, cols)
	for k := range m.f {
		m.f[k] = math.Ldexp(float64(k%13)-6.3, (k*7)%60-30)
	}
	base := 0.125
	want := base
	chunk := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		part := 0.0
		for _, v := range m.f[min(w*chunk, rows)*cols : min(w*chunk+chunk, rows)*cols] {
			part += v
		}
		want += part
	}
	serial := base
	for _, v := range m.f {
		serial += v
	}
	if serial == want {
		t.Fatal("the data does not distinguish association orders")
	}
	pool := par.NewPool(workers)
	body := func(idx []int) (any, error) { return m.f[idx[0]*cols+idx[1]], nil }
	prog, ok := CompileWith(WithSpec{Code: []WithInstr{{Op: WPushID, A: 0}, {Op: WPushID, A: 1}, {Op: WLoadF, A: 0, B: 2}},
		Rank: 2, MatElem: []Elem{Float}, Float: true, OutFloat: true})
	if !ok {
		t.Fatal("plan does not compile")
	}
	for run := 0; run < 200; run++ {
		got, err := FoldExec(FoldAdd, base, []int{0, 0}, []int{rows, cols}, body, Exec{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		r := prog.NewRun()
		copy(r.Upper, m.shape)
		r.Mats[0] = m
		flat, handled, err := FoldFlat(FoldAdd, base, r, Exec{Pool: pool})
		r.Release()
		if err != nil || !handled {
			t.Fatalf("FoldFlat: handled=%v err=%v", handled, err)
		}
		if math.Float64bits(got.(float64)) != math.Float64bits(want) || math.Float64bits(flat.(float64)) != math.Float64bits(want) {
			t.Fatalf("run %d: FoldExec %x, FoldFlat %x, want %x", run,
				math.Float64bits(got.(float64)), math.Float64bits(flat.(float64)), math.Float64bits(want))
		}
	}
}
