// Differential tests for the breadth kernels (kernels2.go) against
// their retained boxed reference paths, plus kernel-specific behavior:
// per-kernel counters, validate-before-allocate, cancellation, the
// recursive matmul crossover, and the typed fold accumulator's
// allocation profile.
package matrix

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/par"
)

var foldKinds = []FoldKind{FoldAdd, FoldMul, FoldMin, FoldMax}

// transposeShapes are the shapes the transpose kernel's loops turn on:
// a whole panel, remainders on either side of one, one column, and
// source or output rows a multiple of 2 KB (256 and 768 cells), where a
// column-wise store would fall into a handful of cache sets.
var transposeShapes = [][]int{{8, 8}, {9, 17}, {16, 1}, {256, 256}, {3, 768}, {768, 5}}

func TestKernelDiffTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	execs := kernelExecs(t)
	for _, elem := range []Elem{Float, Int, Bool} {
		for _, shape := range append([][]int{{1, 1}, {1, 7}, {7, 1}, {3, 5}, {33, 65}, {70, 40}}, transposeShapes...) {
			m := randKernelMat(r, elem, shape...)
			want, werr := TransposeRef(m)
			for mode, x := range execs {
				got, gerr := TransposeExec(m, x)
				checkKernelDiff(t, mode+" transpose "+m.String(), got, gerr, want, werr, m.Size())
			}
		}
	}
	// Rank errors on both paths, and a zero-extent matrix round-trips.
	for _, bad := range []*Matrix{New(Float, 4), New(Int, 2, 3, 4)} {
		if _, err := TransposeExec(bad, Exec{}); err == nil {
			t.Fatalf("rank %d accepted by transpose", bad.Rank())
		}
		if _, err := TransposeRef(bad); err == nil {
			t.Fatalf("rank %d accepted by reference transpose", bad.Rank())
		}
	}
	z, err := TransposeExec(New(Float, 0, 5), Exec{})
	if err != nil || z.shape()[0] != 5 || z.shape()[1] != 0 {
		t.Fatalf("transpose of 0x5: %v %v", z, err)
	}
}

func TestKernelDiffConv2D(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	execs := kernelExecs(t)
	kernels := [][]int{{1, 1}, {3, 3}, {1, 5}, {5, 1}, {3, 5}}
	for _, elem := range []Elem{Float, Int} {
		for _, shape := range [][]int{{1, 1}, {4, 4}, {9, 17}, {20, 6}} {
			src := randKernelMat(r, elem, shape...)
			for _, ks := range kernels {
				kern := randKernelMat(r, elem, ks...)
				want, werr := Conv2DRef(src, kern)
				for mode, x := range execs {
					got, gerr := Conv2DExec(src, kern, x)
					label := mode + " conv " + src.String() + " * " + kern.String()
					checkKernelDiff(t, label, got, gerr, want, werr, src.Size())
				}
			}
		}
	}
	// Mixed int/float operands promote identically on both paths.
	src := randKernelMat(r, Int, 6, 6)
	kern := randKernelMat(r, Float, 3, 3)
	want, werr := Conv2DRef(src, kern)
	got, gerr := Conv2DExec(src, kern, Exec{})
	checkKernelDiff(t, "conv int*float", got, gerr, want, werr, src.Size())
}

func TestConv2DErrors(t *testing.T) {
	f33 := New(Float, 3, 3)
	for _, tc := range []struct {
		name      string
		src, kern *Matrix
		want      string
	}{
		{"rank", New(Float, 4), f33, "conv2d requires rank-2 matrices, got ranks 1 and 2"},
		{"bool", New(Bool, 3, 3), f33, "conv2d requires numeric matrices"},
		{"even_kernel", f33, New(Float, 2, 3), "kernel dimensions must be odd"},
	} {
		_, err := Conv2DExec(tc.src, tc.kern, Exec{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		_, rerr := Conv2DRef(tc.src, tc.kern)
		if rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%s: reference err = %v, kernel err = %v", tc.name, rerr, err)
		}
	}
}

func TestKernelDiffReduceAxis(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	execs := kernelExecs(t)
	for _, elem := range []Elem{Float, Int} {
		for _, shape := range [][]int{{5}, {4, 7}, {3, 4, 5}, {65, 3}, {2, 130}} {
			m := randKernelMat(r, elem, shape...)
			for axis := 0; axis < len(shape); axis++ {
				for _, kind := range foldKinds {
					want, werr := ReduceAxisRef(kind, m, axis)
					for mode, x := range execs {
						got, gerr := ReduceAxisExec(kind, m, axis, x)
						label := mode + " reduce " + m.String()
						checkKernelDiff(t, label, got, gerr, want, werr, m.Size())
					}
				}
			}
		}
	}
	// Errors: bool input, axis out of range, min/max over an empty axis
	// — same text on both paths.
	for _, tc := range []struct {
		name string
		kind FoldKind
		m    *Matrix
		axis int
	}{
		{"bool", FoldAdd, New(Bool, 3), 0},
		{"axis_range", FoldAdd, New(Int, 3, 4), 2},
		{"empty_min", FoldMin, New(Float, 0, 4), 0},
		{"empty_max", FoldMax, New(Int, 4, 0), 1},
	} {
		_, gerr := ReduceAxisExec(tc.kind, tc.m, tc.axis, Exec{})
		_, werr := ReduceAxisRef(tc.kind, tc.m, tc.axis)
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Errorf("%s: kernel err %v, reference err %v", tc.name, gerr, werr)
		}
	}
	// Sum/prod over an empty axis yield identities.
	sum, err := ReduceAxisExec(FoldAdd, New(Int, 0, 3), 0, Exec{})
	if err != nil || sum.ints()[0] != 0 || sum.ints()[1] != 0 || sum.ints()[2] != 0 {
		t.Fatalf("empty-axis sum: %v %v", sum, err)
	}
	prod, err := ReduceAxisExec(FoldMul, New(Float, 2, 0), 1, Exec{})
	if err != nil || prod.floats()[0] != 1 || prod.floats()[1] != 1 {
		t.Fatalf("empty-axis prod: %v %v", prod, err)
	}
}

// TestKernelDiffRecursiveMatMul crosses the mmRecCutoff so both the
// base i-k-j kernel and the blocked-recursive path run, with shapes
// that are not powers of two.
func TestKernelDiffRecursiveMatMul(t *testing.T) {
	old := ParallelGrain
	ParallelGrain = 4096
	pool := par.NewPool(4)
	t.Cleanup(func() { ParallelGrain = old })
	r := rand.New(rand.NewSource(14))
	par4 := Exec{Pool: pool, Ctx: context.Background()}

	// k and n just above the cutoff trigger recursion; m stays small so
	// the test is fast. Also pin the below-cutoff path for parity.
	k, n := mmRecCutoff+3, mmRecCutoff+1
	for _, elem := range []Elem{Float, Int} {
		a := randKernelMat(r, elem, 5, k)
		b := randKernelMat(r, elem, k, n)
		want, werr := MatMulRef(a, b)
		for mode, x := range map[string]Exec{"serial": {}, "parallel": par4} {
			got, gerr := MatMulExec(a, b, x)
			checkKernelDiff(t, mode+" recursive matmul", got, gerr, want, werr, a.Size())
		}
		small1 := randKernelMat(r, elem, 5, 17)
		small2 := randKernelMat(r, elem, 17, 9)
		want, werr = MatMulRef(small1, small2)
		got, gerr := MatMulExec(small1, small2, Exec{})
		checkKernelDiff(t, "small matmul", got, gerr, want, werr, small1.Size())
	}
}

func TestKernelOpCounters(t *testing.T) {
	t0, c0, r0 := KernelOpStats()
	if _, err := TransposeExec(New(Float, 4, 4), Exec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Conv2DExec(New(Float, 4, 4), New(Float, 3, 3), Exec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReduceAxisExec(FoldAdd, New(Int, 4, 4), 0, Exec{}); err != nil {
		t.Fatal(err)
	}
	t1, c1, r1 := KernelOpStats()
	if t1-t0 < 1 || c1-c0 < 1 || r1-r0 < 1 {
		t.Fatalf("counters did not advance: transpose %d conv %d reduce %d", t1-t0, c1-c0, r1-r0)
	}
}

// TestKernels2ValidateBeforeAllocate: invalid inputs must error before
// charging the budget or firing the alloc hook.
func TestKernels2ValidateBeforeAllocate(t *testing.T) {
	rank1 := New(Float, 4)
	src := New(Float, 3, 3)
	evenKern := New(Float, 2, 2)
	emptyAxis := New(Float, 0, 3)
	calls := 0
	TestHookAllocFail = func(cells int) error { calls++; return nil }
	defer func() { TestHookAllocFail = nil }()
	if _, err := TransposeExec(rank1, Exec{}); err == nil {
		t.Fatal("rank-1 transpose accepted")
	}
	if _, err := Conv2DExec(src, evenKern, Exec{}); err == nil {
		t.Fatal("even conv kernel accepted")
	}
	if _, err := ReduceAxisExec(FoldMin, emptyAxis, 0, Exec{}); err == nil {
		t.Fatal("empty min axis accepted")
	}
	if calls != 0 {
		t.Fatalf("alloc hook fired %d times before validation errors", calls)
	}
}

func TestKernels2Cancellation(t *testing.T) {
	pool := par.NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := Exec{Pool: pool, Ctx: ctx}
	m := New(Float, 64, 64)
	if _, err := TransposeExec(m, x); err == nil {
		t.Error("cancelled transpose succeeded")
	}
	if _, err := Conv2DExec(m, New(Float, 3, 3), x); err == nil {
		t.Error("cancelled conv succeeded")
	}
	if _, err := ReduceAxisExec(FoldAdd, m, 0, x); err == nil {
		t.Error("cancelled reduce succeeded")
	}
}

// TestFoldExecTypedAccumulator pins the typed fast path: a serial fold
// over int64 values must not allocate per element.
func TestFoldExecTypedAccumulator(t *testing.T) {
	// Body values stay under 256 so boxing them into `any` hits the
	// runtime's static cache: every allocation left is FoldExec's own.
	body := func(idx []int) (any, error) { return int64(idx[0] + idx[1]), nil }
	lower, upper := []int{0, 0}, []int{16, 64}
	got, err := FoldExec(FoldAdd, FoldValue{}, lower, upper, body, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := 0; i < 16; i++ {
		for j := 0; j < 64; j++ {
			want += int64(i + j)
		}
	}
	if got != (FoldValue{I: want}) {
		t.Fatalf("fold sum = %+v, want %d", got, want)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := FoldExec(FoldAdd, FoldValue{}, lower, upper, body, Exec{}); err != nil {
			t.Fatal(err)
		}
	})
	// The accumulator combines unboxed; only fixed per-call setup (the
	// index slice, the row function) may allocate — never one object per
	// element.
	if allocs > 16 {
		t.Errorf("FoldExec allocated %.0f objects for a 1024-element typed fold", allocs)
	}
}

// TestFoldFloatBaseIntBody: a fold's value has its static type. Over an
// int body a float base folds every kind in float, each int promoted as
// it combines — min and max included, so a winner does not keep its int
// type — and FoldExec and FoldFlat return the same bits at every worker
// count, folding the cells where they lie and in strips (m[i] + 0).
// The values are exact under + and *, so every worker split gives the
// serial result; under min and max they include ints beyond 2^53, where
// two ints can convert to one float, and the bases include a NaN.
func TestFoldFloatBaseIntBody(t *testing.T) {
	const n = 41
	small, big := New(Int, n), New(Int, n)
	for k := range n {
		small.ints()[k] = []int64{1, -2, 3, 1, -1, 2}[k%6]
		big.ints()[k] = 1<<53 + int64(k*7%5) - 2
	}
	load := []WithInstr{{Op: WPushID, A: 0}, {Op: WLoadI, A: 0, B: 1}}
	var progs []*WithProg
	for _, code := range [][]WithInstr{load, append(load, WithInstr{Op: WPushInt}, WithInstr{Op: WAddI})} {
		p, ok := CompileWith(WithSpec{Code: code, Rank: 1, MatElem: []Elem{Int}, OutFloat: true})
		if !ok {
			t.Fatal("plan does not compile")
		}
		progs = append(progs, p)
	}
	for kind := FoldAdd; kind <= FoldMax; kind++ {
		mats := []*Matrix{small}
		if kind == FoldMin || kind == FoldMax {
			mats = append(mats, big)
		}
		for _, m := range mats {
			for _, b := range []float64{0.5, math.NaN(), -7.25} {
				base := FoldValue{F: b, Float: true}
				want := b
				for _, v := range m.ints() {
					want = combine(kind, want, float64(v))
				}
				body := func(idx []int) (any, error) { return m.ints()[idx[0]], nil }
				for _, workers := range []int{1, 2, 3, 4, 7} {
					x := Exec{Pool: par.NewPool(workers)}
					got, err := FoldExec(kind, base, []int{0}, []int{n}, body, x)
					if err != nil || !got.Float || math.Float64bits(got.F) != math.Float64bits(want) {
						t.Errorf("FoldExec %v from %v, %d workers: %+v, %v; want float %v", kind, b, workers, got, err, want)
					}
					for k, p := range progs {
						run := p.NewRun()
						run.Lower[0], run.Upper[0], run.Mats[0] = 0, n, m
						flat, handled, err := FoldFlat(kind, base, run, x)
						run.Release()
						if !handled || err != nil || !flat.Float || math.Float64bits(flat.F) != math.Float64bits(got.F) {
							t.Errorf("FoldFlat %v from %v, %d workers, plan %d: %+v, handled=%v, %v; FoldExec %+v", kind, b, workers, k, flat, handled, err, got)
						}
					}
				}
			}
		}
	}
}
