// Differential tests pinning the specialized kernels (kernels.go)
// against the retained boxed reference path (*Ref in ops.go), plus
// kernel-specific behavior: validate-before-allocate, cancellation,
// parallel/serial counters, and backing-slice reuse.
//
// Error-parity rule: when the reference errors on a non-empty input the
// kernel must error too (texts are pinned separately in
// TestKernelErrorTexts); on EMPTY inputs the kernel is deliberately
// stricter — the reference discovers type errors per element, so an
// invalid (op, elem) combination "succeeds" on zero elements, while the
// kernels validate the combination up front regardless of size. A
// division by zero is never such an error: with no cell to divide, an
// empty input divides by nothing.
package matrix

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/par"
)

var kernelOps = []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr}

// randKernelMat fills a matrix with values that exercise the kernels:
// ints include zeros (division/modulo error parity), floats never hit
// exact zero (no NaN/Inf, so exact equality against the reference is
// meaningful).
func randKernelMat(r *rand.Rand, elem Elem, shape ...int) *Matrix {
	m := New(elem, shape...)
	switch elem {
	case Float:
		for k := range m.floats() {
			v := 0.25 + 3*r.Float64()
			if r.Intn(2) == 0 {
				v = -v
			}
			m.floats()[k] = v
		}
	case Int:
		for k := range m.ints() {
			m.ints()[k] = int64(r.Intn(9) - 4)
		}
	case Bool:
		for k := range m.bools() {
			m.bools()[k] = r.Intn(2) == 0
		}
	}
	return m
}

// checkKernelDiff applies the error-parity rule and compares values
// exactly: every kernel, matmul included, combines float operands in
// the reference's order, so the results are bit-identical.
func checkKernelDiff(t *testing.T, label string, got *Matrix, gerr error, want *Matrix, werr error, size int) {
	t.Helper()
	if gerr != nil {
		if werr == nil && (size > 0 || strings.Contains(gerr.Error(), "by zero")) {
			t.Fatalf("%s: kernel error %v, reference succeeded", label, gerr)
		}
		return
	}
	if werr != nil {
		t.Fatalf("%s: kernel succeeded, reference failed: %v", label, werr)
	}
	if got.Elem() != want.Elem() {
		t.Fatalf("%s: kernel elem %v, reference elem %v", label, got.Elem(), want.Elem())
	}
	if !Equal(got, want) {
		t.Fatalf("%s: kernel result differs from reference:\n  got  %v\n  want %v", label, got, want)
	}
}

// kernelExecs returns the serial and pool-parallel environments the
// differential suites run every case under. The returned cleanup
// restores ParallelGrain.
func kernelExecs(t *testing.T) map[string]Exec {
	t.Helper()
	oldGrain := ParallelGrain
	ParallelGrain = 64 // force the parallel path on small test matrices
	pool := par.NewPool(4)
	t.Cleanup(func() { ParallelGrain = oldGrain })
	return map[string]Exec{
		"serial":   {},
		"parallel": {Pool: pool, Ctx: context.Background()},
	}
}

func TestKernelDiffElementwise(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	execs := kernelExecs(t)
	elems := []Elem{Float, Int, Bool}
	shapes := [][]int{{0}, {1}, {7}, {3, 5}, {257}, {2, 3, 4}}
	for _, shape := range shapes {
		for _, ae := range elems {
			for _, be := range elems {
				a := randKernelMat(r, ae, shape...)
				b := randKernelMat(r, be, shape...)
				for _, op := range kernelOps {
					want, werr := ElementwiseRef(op, a, b)
					for mode, x := range execs {
						got, gerr := ElementwiseExec(op, a, b, x)
						label := mode + " " + op.String() + " " + a.String() + " " + b.String()
						checkKernelDiff(t, label, got, gerr, want, werr, a.Size())
					}
				}
			}
		}
	}
	// Shape mismatch stays an error on both paths.
	a := randKernelMat(r, Float, 2, 3)
	b := randKernelMat(r, Float, 3, 2)
	if _, err := ElementwiseExec(OpAdd, a, b, Exec{}); err == nil {
		t.Fatal("shape mismatch not rejected")
	}
}

func TestKernelDiffBroadcast(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	execs := kernelExecs(t)
	elems := []Elem{Float, Int, Bool}
	scalars := []any{2.5, -0.75, int64(3), int64(0), int64(-2), 4, true, false, "bad"}
	shapes := [][]int{{0}, {1}, {6}, {4, 5}, {259}}
	for _, shape := range shapes {
		for _, me := range elems {
			m := randKernelMat(r, me, shape...)
			for _, s := range scalars {
				for _, matLeft := range []bool{true, false} {
					for _, op := range kernelOps {
						want, werr := BroadcastRef(op, m, s, matLeft)
						for mode, x := range execs {
							got, gerr := BroadcastExec(op, m, s, matLeft, x)
							label := mode + " " + op.String() + " " + m.String()
							checkKernelDiff(t, label, got, gerr, want, werr, m.Size())
						}
					}
				}
			}
		}
	}
}

func TestKernelDiffUnary(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	execs := kernelExecs(t)
	for _, elem := range []Elem{Float, Int, Bool} {
		for _, shape := range [][]int{{0}, {1}, {5, 3}, {300}} {
			m := randKernelMat(r, elem, shape...)
			for _, neg := range []bool{true, false} {
				want, werr := UnaryRef(neg, m)
				for mode, x := range execs {
					got, gerr := UnaryExec(neg, m, x)
					checkKernelDiff(t, mode+" unary "+m.String(), got, gerr, want, werr, m.Size())
				}
			}
		}
	}
}

// TestKernelDiffMatMul compares the kernel with the reference exactly,
// floats included: both add a cell's products in ascending k. The dims
// walk the micro-kernel's edges — a lone last row (odd m), the k mod 4
// tails, the mmBlockK boundary — serial in one-row chunks and pooled in
// multi-row chunks of odd length (33 rows at grain 64 are 3-row chunks).
func TestKernelDiffMatMul(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	execs := kernelExecs(t)
	elems := []Elem{Float, Int}
	dims := [][3]int{{0, 3, 4}, {3, 0, 4}, {5, 9, 0}}
	for _, m := range []int{1, 2, 3, 5, 33} {
		for _, k := range []int{1, 3, 4, 5, 127, 128, 129, 131, 260} {
			for _, n := range []int{1, 7, 64} {
				dims = append(dims, [3]int{m, k, n})
			}
		}
	}
	for _, d := range dims {
		for _, ae := range elems {
			for _, be := range elems {
				a := randKernelMat(r, ae, d[0], d[1])
				b := randKernelMat(r, be, d[1], d[2])
				want, werr := MatMulRef(a, b)
				for mode, x := range execs {
					got, gerr := MatMulExec(a, b, x)
					checkKernelDiff(t, mode+" matmul "+a.String()+" "+b.String(), got, gerr, want, werr, d[0]*d[2])
				}
			}
		}
	}
	// Error cases: rank, inner-dimension mismatch, bool operands.
	bad := [][2]*Matrix{
		{New(Float, 4), New(Float, 4, 4)},
		{New(Float, 2, 3), New(Float, 4, 2)},
		{New(Bool, 2, 2), New(Float, 2, 2)},
	}
	for _, pair := range bad {
		_, werr := MatMulRef(pair[0], pair[1])
		_, gerr := MatMulExec(pair[0], pair[1], Exec{})
		if werr == nil || gerr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("matmul error parity: kernel %v, reference %v", gerr, werr)
		}
	}
}

// transposeCells is FuzzKernelDiff's first cells value that selects a
// transpose of transposeShapes.
const transposeCells = 128

// shapeCells is the first cells value of FuzzKernelDiff that runs a
// selection table's tree: two a tree, float then int.
const shapeCells = 100

// rowFoldCells is the first cells value of FuzzKernelDiff that runs a
// genarray of a row fold: one a fold kind, float, then one each int.
const rowFoldCells = 112

// rowFoldDiff runs a genarray of the row fold g wrote over a random box,
// serial and pooled, against refPlan cell by cell, bit for bit.
func rowFoldDiff(t *testing.T, g *planGen, float bool, pool *par.Pool) {
	p, ok := CompileWith(testSpec(g.code, g.rank, float, float))
	if !ok || !strings.Contains(listing(p), "foldB.rows") {
		t.Fatalf("not a row fold (compiled %v): %+v", ok, g.code)
	}
	lower, upper := make([]int, g.rank), make([]int, g.rank)
	for d := range lower {
		lower[d] = g.r.Intn(3)
		upper[d] = lower[d] + 1 + g.r.Intn(3)
	}
	upper[g.rank-1] = lower[g.rank-1] + 1 + g.r.Intn(2*p.width+3)
	for _, x := range []Exec{{}, {Pool: pool}} {
		run := bindRun(p, lower, upper, upper)
		out, handled, err := GenArrayFlat(run, x)
		run.Release()
		if !handled || err != nil {
			t.Fatalf("box %v %v: handled %v err %v", lower, upper, handled, err)
		}
		indexSpace(lower, upper, func(idx []int) {
			ids := make([]int64, len(idx))
			for d := range idx {
				ids[d] = int64(idx[d])
			}
			is, fs := refPlan(g.code, 0, len(g.code), ids, leafMats, leafI, leafF, nil, nil)
			off, _ := out.Offset(idx)
			if float && math.Float64bits(out.floats()[off]) != math.Float64bits(fs[0]) || !float && out.ints()[off] != is[0] {
				t.Fatalf("box %v %v pool=%v cell %v: got %v, want %v %v\n%+v", lower, upper, x.Pool != nil, idx, out.Get(off), is, fs, g.code)
			}
		})
	}
}

// FuzzKernelDiff drives random (op, shape, elem, scalar, mode)
// combinations through every kernel and the boxed reference. A non-zero
// cells fixes the operands' shape at 1 to 9 cells: the seeds walk every
// count of inline cells and the first past them, a dozen draws each, so
// every oracle meets inline storage in all three element types. From
// transposeCells on, cells picks one of transposeShapes to transpose
// instead; the seeds take each in all three element types.
func FuzzKernelDiff(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(0))
	}
	// An empty int matrix by a zero int scalar: % (130) and / (32529).
	f.Add(int64(130), uint8(0))
	f.Add(int64(32529), uint8(0))
	for cells := uint8(1); cells <= inlineCells+1; cells++ {
		for seed := int64(0); seed < 12; seed++ {
			f.Add(seed, cells)
		}
	}
	for k := range transposeShapes {
		for seed := int64(0); seed < 3; seed++ {
			f.Add(seed, uint8(transposeCells+k))
		}
	}
	for k := range 2 * len(wShapes) {
		for seed := int64(0); seed < 3; seed++ {
			f.Add(seed, uint8(shapeCells+k))
		}
	}
	for k := range 8 {
		for seed := int64(0); seed < 3; seed++ {
			f.Add(seed, uint8(rowFoldCells+k))
		}
	}
	pool := par.NewPool(4)
	f.Fuzz(func(t *testing.T, seed int64, cells uint8) {
		r := rand.New(rand.NewSource(seed))
		elems := []Elem{Float, Int, Bool}
		if k := int(cells) - rowFoldCells; k >= 0 && k < 8 {
			// A genarray of a row fold of each kind, float or int, from a
			// computed or a loaded base, against the one-cell oracle.
			rank := 1 + r.Intn(2)
			g := &planGen{r: r, rank: rank, ids: rank}
			g.rowFold(FoldKind(k%4), k < 4, r.Intn(2) == 0)
			rowFoldDiff(t, g, k < 4, pool)
			return
		}
		if k := int(cells) - shapeCells; k >= 0 && k < 2*len(wShapes) {
			// A chain of one of the selection table's trees, int or float,
			// against its stages run one at a time, serial and pooled.
			g := &chainGen{r: r, float: k%2 == 0}
			tree := g.tree(wShapes[k/2])
			shape := []int{r.Intn(4 * stripMax)}
			if r.Intn(3) == 0 {
				shape = []int{2*ParallelGrain + r.Intn(2*stripMax)}
			}
			for _, p := range []*par.Pool{nil, pool} {
				chainDiff(t, fmt.Sprintf("fuzz tree %d", seed), tree, g.env(tree, shape), p, 1<<30)
			}
			return
		}
		if k := int(cells) - transposeCells; k >= 0 {
			// A transpose of one of transposeShapes, serial and pooled.
			m := randKernelMat(r, elems[uint64(seed)%3], transposeShapes[k%len(transposeShapes)]...)
			want, werr := TransposeRef(m)
			for _, x := range []Exec{{}, {Pool: pool, Ctx: context.Background()}} {
				got, gerr := TransposeExec(m, x)
				checkKernelDiff(t, "fuzz transpose "+m.String(), got, gerr, want, werr, m.Size())
			}
			return
		}
		// Random shape, sometimes large enough for the parallel path at
		// the default grain.
		var shape []int
		for d, rank := 0, 1+r.Intn(3); d < rank; d++ {
			shape = append(shape, r.Intn(8))
		}
		if r.Intn(4) == 0 {
			shape = []int{2*ParallelGrain + r.Intn(100)}
		}
		if cells > 0 {
			n := int(cells-1)%(inlineCells+1) + 1
			shape = []int{n}
			if n%2 == 0 && r.Intn(2) == 0 {
				shape = []int{2, n / 2}
			}
		}
		x := Exec{}
		if r.Intn(2) == 0 {
			x = Exec{Pool: pool, Ctx: context.Background()}
		}
		op := kernelOps[r.Intn(len(kernelOps))]
		size := 1
		for _, d := range shape {
			size *= d
		}
		switch r.Intn(8) {
		case 7:
			// A chain with range and promoting leaves against its unfused
			// stages, under a budget that may run out at any door.
			g := &chainGen{r: r, float: r.Intn(2) == 0, lift: true}
			tree := g.stage(3)
			if g.ranges > 0 && len(shape) > 1 {
				shape = shape[:1]
			}
			budget := int64(1 << 30)
			if r.Intn(2) == 0 {
				budget = int64(1 + r.Intn(12*(size+1)))
			}
			chainDiff(t, fmt.Sprintf("fuzz chain %d", seed), tree, g.env(tree, shape), x.Pool, budget)
		case 0:
			a := randKernelMat(r, elems[r.Intn(3)], shape...)
			b := randKernelMat(r, elems[r.Intn(3)], shape...)
			want, werr := ElementwiseRef(op, a, b)
			got, gerr := ElementwiseExec(op, a, b, x)
			checkKernelDiff(t, "fuzz ew "+op.String(), got, gerr, want, werr, size)
		case 1:
			m := randKernelMat(r, elems[r.Intn(3)], shape...)
			scalars := []any{1.5, int64(r.Intn(5) - 2), true}
			s := scalars[r.Intn(len(scalars))]
			matLeft := r.Intn(2) == 0
			want, werr := BroadcastRef(op, m, s, matLeft)
			got, gerr := BroadcastExec(op, m, s, matLeft, x)
			checkKernelDiff(t, "fuzz bc "+op.String(), got, gerr, want, werr, size)
		case 2:
			m := randKernelMat(r, elems[r.Intn(3)], shape...)
			neg := r.Intn(2) == 0
			want, werr := UnaryRef(neg, m)
			got, gerr := UnaryExec(neg, m, x)
			checkKernelDiff(t, "fuzz unary", got, gerr, want, werr, size)
		case 3:
			// Dims below 12: an odd or even row count, k across 4 and 8.
			mi, k, n := r.Intn(12), r.Intn(12), r.Intn(12)
			a := randKernelMat(r, elems[r.Intn(2)], mi, k)
			b := randKernelMat(r, elems[r.Intn(2)], k, n)
			want, werr := MatMulRef(a, b)
			got, gerr := MatMulExec(a, b, x)
			checkKernelDiff(t, "fuzz matmul", got, gerr, want, werr, mi*n)
		case 4:
			m := randKernelMat(r, elems[r.Intn(3)], r.Intn(40), r.Intn(40))
			want, werr := TransposeRef(m)
			got, gerr := TransposeExec(m, x)
			checkKernelDiff(t, "fuzz transpose", got, gerr, want, werr, m.Size())
		case 5:
			src := randKernelMat(r, elems[r.Intn(2)], 1+r.Intn(20), 1+r.Intn(20))
			kern := randKernelMat(r, elems[r.Intn(2)], 1+2*r.Intn(3), 1+2*r.Intn(3))
			want, werr := Conv2DRef(src, kern)
			got, gerr := Conv2DExec(src, kern, x)
			checkKernelDiff(t, "fuzz conv", got, gerr, want, werr, src.Size())
		case 6:
			var rshape []int
			for d, rank := 0, 1+r.Intn(3); d < rank; d++ {
				rshape = append(rshape, r.Intn(9))
			}
			m := randKernelMat(r, elems[r.Intn(2)], rshape...)
			kind := foldKinds[r.Intn(len(foldKinds))]
			axis := r.Intn(len(rshape))
			want, werr := ReduceAxisRef(kind, m, axis)
			got, gerr := ReduceAxisExec(kind, m, axis, x)
			checkKernelDiff(t, "fuzz reduce", got, gerr, want, werr, m.Size())
		}
	})
}

// TestKernelErrorTexts pins the kernel-path error messages (the texts
// the interpreter's trap classifier and users see).
func TestKernelErrorTexts(t *testing.T) {
	f := New(Float, 2)
	i2 := FromInts([]int64{4, 6}, 2)
	iz := FromInts([]int64{1, 0}, 2)
	bl := FromBools([]bool{true, false}, 2)
	cases := []struct {
		err  error
		want string
	}{
		{errOf(ElementwiseExec(OpAdd, f, New(Float, 3), Exec{})), "matrix: + requires equal shapes, got [2] and [3]"},
		{errOf(ElementwiseExec(OpDiv, i2, iz, Exec{})), "matrix: integer division by zero"},
		{errOf(ElementwiseExec(OpMod, i2, iz, Exec{})), "matrix: integer modulo by zero"},
		{errOf(ElementwiseExec(OpMod, f, i2, Exec{})), "matrix: % is not a float operator"},
		{errOf(ElementwiseExec(OpAnd, f, f, Exec{})), "matrix: && requires bool operands"},
		{errOf(ElementwiseExec(OpLt, bl, bl, Exec{})), "matrix: < cannot compare bool values"},
		{errOf(ElementwiseExec(OpAdd, bl, i2, Exec{})), "matrix: + cannot compare bool values"},
		{errOf(BroadcastExec(OpDiv, i2, 0, true, Exec{})), "matrix: integer division by zero"},
		{errOf(BroadcastExec(OpMod, i2, 0, true, Exec{})), "matrix: integer modulo by zero"},
		{errOf(BroadcastExec(OpDiv, iz, int64(7), false, Exec{})), "matrix: integer division by zero"},
		{errOf(BroadcastExec(OpAdd, f, "nope", true, Exec{})), "matrix: + cannot be applied to a string operand"},
		{errOf(MatMulExec(New(Float, 4), New(Float, 4, 4), Exec{})), "matrix: matmul requires rank-2 matrices, got ranks 1 and 2"},
		{errOf(MatMulExec(New(Float, 2, 3), New(Float, 4, 2), Exec{})), "matrix: matmul dimension mismatch: [2 3] x [4 2]"},
		{errOf(MatMulExec(New(Bool, 2, 2), New(Float, 2, 2), Exec{})), "matrix: matmul requires numeric matrices"},
		{errOf(UnaryExec(true, bl, Exec{})), "matrix: cannot negate a bool matrix"},
		{errOf(UnaryExec(false, f, Exec{})), "matrix: logical not requires a bool matrix"},
	}
	for _, c := range cases {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("error text: got %v, want %q", c.err, c.want)
		}
	}
}

func errOf(_ *Matrix, err error) error { return err }

// TestKernelValidateBeforeAllocate: an invalid (op, elem) combination
// must not charge the budget — validation happens before any
// allocation (the satellite fix for the old allocate-then-fail order).
func TestKernelValidateBeforeAllocate(t *testing.T) {
	f := New(Float, 8)
	bl := New(Bool, 8)
	iz := New(Int, 8) // zeros
	cases := []func(x Exec) error{
		func(x Exec) error { return errOf(ElementwiseExec(OpAnd, f, f, x)) },
		func(x Exec) error { return errOf(ElementwiseExec(OpLt, bl, bl, x)) },
		func(x Exec) error { return errOf(ElementwiseExec(OpMod, f, f, x)) },
		func(x Exec) error { return errOf(BroadcastExec(OpDiv, iz, 0, true, x)) },
		func(x Exec) error { return errOf(BroadcastExec(OpAdd, f, "nope", true, x)) },
		func(x Exec) error { return errOf(UnaryExec(true, bl, x)) },
		func(x Exec) error { return errOf(MatMulExec(bl, bl, x)) },
	}
	for k, run := range cases {
		budget := NewBudget(1 << 20)
		if err := run(Exec{Budget: budget}); err == nil {
			t.Fatalf("case %d: invalid combination did not error", k)
		}
		if used := budget.Used(); used != 0 {
			t.Fatalf("case %d: invalid combination charged %d cells before failing", k, used)
		}
	}
}

// TestKernelBudgetError: a denied charge surfaces as *BudgetError and
// nothing is retained.
func TestKernelBudgetError(t *testing.T) {
	a := New(Float, 100)
	budget := NewBudget(10)
	_, err := ElementwiseExec(OpAdd, a, a, Exec{Budget: budget})
	var be *BudgetError
	if err == nil || !asBudgetError(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
}

func asBudgetError(err error, out **BudgetError) bool {
	be, ok := err.(*BudgetError)
	if ok {
		*out = be
	}
	return ok
}

// TestKernelCancellation: a cancelled context aborts both the serial
// and the pool path mid-kernel.
func TestKernelCancellation(t *testing.T) {
	oldGrain := ParallelGrain
	ParallelGrain = 64
	pool := par.NewPool(2)
	defer func() { ParallelGrain = oldGrain }()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := New(Float, 10000)
	for _, x := range []Exec{{Ctx: ctx}, {Pool: pool, Ctx: ctx}} {
		if _, err := ElementwiseExec(OpAdd, a, a, x); err == nil || !strings.Contains(err.Error(), "context canceled") {
			t.Fatalf("cancelled kernel returned %v", err)
		}
	}
}

// TestKernelCounters: large pooled kernels count as parallel, small or
// poolless ones as serial.
func TestKernelCounters(t *testing.T) {
	pool := par.NewPool(4)
	ResetKernelStats()
	big := New(Float, 4*ParallelGrain)
	if _, err := ElementwiseExec(OpAdd, big, big, Exec{Pool: pool}); err != nil {
		t.Fatal(err)
	}
	small := New(Float, 8)
	if _, err := ElementwiseExec(OpAdd, small, small, Exec{Pool: pool}); err != nil {
		t.Fatal(err)
	}
	if _, err := ElementwiseExec(OpAdd, big, big, Exec{}); err != nil {
		t.Fatal(err)
	}
	par, ser, _ := KernelStats()
	if par != 1 || ser != 2 {
		t.Fatalf("counters: parallel=%d serial=%d, want 1 and 2", par, ser)
	}
}

// TestKernelBufferReuse: recycling a kernel output feeds the next
// same-size output from the free list, and the reused buffer's stale
// contents are fully overwritten.
func TestKernelBufferReuse(t *testing.T) {
	DrainFreeLists()
	ResetKernelStats()
	a := randKernelMat(rand.New(rand.NewSource(5)), Float, 1024)
	out1, err := ElementwiseExec(OpAdd, a, a, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	want := out1.Copy()
	out1.Recycle()
	out2, err := ElementwiseExec(OpAdd, a, a, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, reused := KernelStats(); reused != 1 {
		t.Fatalf("buffers reused = %d, want 1", reused)
	}
	if !Equal(out2, want) {
		t.Fatal("reused buffer produced a different result")
	}
	// Budget accounting stays exact: reuse still charges.
	DrainFreeLists()
	budget := NewBudget(4096)
	out3, err := ElementwiseExec(OpAdd, a, a, Exec{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	out3.Recycle()
	if _, err := ElementwiseExec(OpAdd, a, a, Exec{Budget: budget}); err != nil {
		t.Fatal(err)
	}
	if used := budget.Used(); used != 2048 {
		t.Fatalf("budget.Used() = %d after two 1024-cell outputs, want 2048", used)
	}
	DrainFreeLists()
}

// TestRecycleDetachesStorage: after Recycle the matrix no longer owns
// storage — element access panics instead of silently reading a buffer
// that may belong to someone else. Recycle is idempotent.
func TestRecycleDetachesStorage(t *testing.T) {
	DrainFreeLists()
	m := New(Float, 512)
	m.Recycle()
	m.Recycle() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("access after Recycle did not panic")
		}
		DrainFreeLists()
	}()
	_ = m.Get(0)
}

// TestNewBudgetedClearsReusedBuffer: NewBudgeted promises zeroed
// storage even when the slice comes from the free list.
func TestNewBudgetedClearsReusedBuffer(t *testing.T) {
	DrainFreeLists()
	m := New(Float, 512)
	for k := range m.floats() {
		m.floats()[k] = 7
	}
	m.Recycle()
	m2 := New(Float, 512)
	for k, v := range m2.floats() {
		if v != 0 {
			t.Fatalf("reused NewBudgeted slice not cleared at %d: %v", k, v)
		}
	}
	DrainFreeLists()
}

// TestFreeListBounds: tiny buffers are not retained, and class/byte
// caps bound retention.
func TestFreeListBounds(t *testing.T) {
	DrainFreeLists()
	ResetKernelStats()
	small := New(Float, 8) // below minReuseCells
	small.Recycle()
	if got := freeListBytes.Load(); got != 0 {
		t.Fatalf("free list retained a tiny buffer: %d bytes", got)
	}
	// Allocate first, then recycle — recycling one at a time would just
	// hand the same buffer back through NewBudgeted's free-list path.
	var ms []*Matrix
	for k := 0; k < 2*maxPerClass; k++ {
		ms = append(ms, New(Float, 512))
	}
	for _, m := range ms {
		m.Recycle()
	}
	floatFree.mu.Lock()
	n := len(floatFree.classes[9]) // 512 cells → class 9
	floatFree.mu.Unlock()
	if n != maxPerClass {
		t.Fatalf("class retention = %d, want %d", n, maxPerClass)
	}
	DrainFreeLists()
	if got := freeListBytes.Load(); got != 0 {
		t.Fatalf("drain left %d bytes accounted", got)
	}
}

// TestKernelCountersPerCall: on the TestKernelDiff* shapes, a call that
// returns a result of n > 0 cells moves one kernel counter — parallel
// when it is pooled and n is two grains or more, serial otherwise — and
// an empty one moves none. No call moves two, and the totals over every
// call, failing ones included, are pinned.
func TestKernelCountersPerCall(t *testing.T) {
	execs := kernelExecs(t)
	r := rand.New(rand.NewSource(6))
	elems := []Elem{Float, Int, Bool}
	var calls []func(Exec) (*Matrix, error)
	for _, shape := range [][]int{{0}, {1}, {7}, {3, 5}, {257}, {2, 3, 4}} {
		for _, ae := range elems {
			for _, be := range elems {
				a, b := randKernelMat(r, ae, shape...), randKernelMat(r, be, shape...)
				for _, op := range kernelOps {
					calls = append(calls, func(x Exec) (*Matrix, error) { return ElementwiseExec(op, a, b, x) })
				}
			}
		}
	}
	scalars := []any{2.5, -0.75, int64(3), int64(0), int64(-2), 4, true, false, "bad"}
	for _, shape := range [][]int{{0}, {1}, {6}, {4, 5}, {259}} {
		for _, me := range elems {
			m := randKernelMat(r, me, shape...)
			for _, s := range scalars {
				for _, matLeft := range []bool{true, false} {
					for _, op := range kernelOps {
						calls = append(calls, func(x Exec) (*Matrix, error) { return BroadcastExec(op, m, s, matLeft, x) })
					}
				}
			}
		}
	}
	for _, elem := range elems {
		for _, shape := range [][]int{{0}, {1}, {5, 3}, {300}} {
			m := randKernelMat(r, elem, shape...)
			for _, neg := range []bool{true, false} {
				calls = append(calls, func(x Exec) (*Matrix, error) { return UnaryExec(neg, m, x) })
			}
		}
	}
	var total [2]int64
	for _, mode := range []string{"serial", "parallel"} {
		x := execs[mode]
		for k, call := range calls {
			p0, s0, _ := KernelStats()
			out, err := call(x)
			p1, s1, _ := KernelStats()
			dp, ds := p1-p0, s1-s0
			total[0], total[1] = total[0]+dp, total[1]+ds
			if dp < 0 || ds < 0 || dp+ds > 1 {
				t.Fatalf("%s call %d: parallel moved %d, serial %d", mode, k, dp, ds)
			}
			if err != nil {
				continue
			}
			n := out.Size()
			wantP := n > 0 && x.Pool.Workers() > 1 && n >= 2*ParallelGrain
			if wantS := n > 0 && !wantP; (dp == 1) != wantP || (ds == 1) != wantS {
				t.Fatalf("%s call %d of %d cells: parallel moved %d, serial %d", mode, k, n, dp, ds)
			}
		}
	}
	if want := [2]int64{310, 2254}; total != want {
		t.Fatalf("parallel and serial counts over every call: %v, pinned %v", total, want)
	}
}

// TestLoneOpAllocs: a lone elementwise, broadcast or unary operation
// allocates its result and nothing else: its program is built once and
// the run and strip state come from pools. Serial, on one P: sync.Pool
// caches per P.
func TestLoneOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled state at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{16, 4096} {
		f, g := randKernelMat(r, Float, n), randKernelMat(r, Float, n)
		i, b := randKernelMat(r, Int, n), randKernelMat(r, Bool, n)
		// The result's header, and at 16 cells its cells; at 4096 those
		// come back from the free list.
		most := 2.0
		if n > 16 {
			most = 1
		}
		for _, c := range []struct {
			name string
			most float64
			op   func() (*Matrix, error)
		}{
			{"ElementwiseExec float +", most, func() (*Matrix, error) { return ElementwiseExec(OpAdd, f, g, Exec{}) }},
			{"ElementwiseExec int / float", most, func() (*Matrix, error) { return ElementwiseExec(OpDiv, i, f, Exec{}) }},
			{"ElementwiseExec float <", most, func() (*Matrix, error) { return ElementwiseExec(OpLt, f, g, Exec{}) }},
			{"ElementwiseExec bool &&", most, func() (*Matrix, error) { return ElementwiseExec(OpAnd, b, b, Exec{}) }},
			{"BroadcastExec int * 0.5", most, func() (*Matrix, error) { return BroadcastExec(OpMul, i, 0.5, true, Exec{}) }},
			{"BroadcastExec int % 3", most, func() (*Matrix, error) { return BroadcastExec(OpMod, i, int64(3), true, Exec{}) }},
			{"BroadcastExec 1.5 >= float", most, func() (*Matrix, error) { return BroadcastExec(OpGe, f, 1.5, false, Exec{}) }},
			{"UnaryExec -float", most, func() (*Matrix, error) { return UnaryExec(true, f, Exec{}) }},
			{"UnaryExec !bool", most, func() (*Matrix, error) { return UnaryExec(false, b, Exec{}) }},
		} {
			got := testing.AllocsPerRun(50, func() {
				out, err := c.op()
				if err != nil {
					t.Fatal(err)
				}
				out.Recycle()
			})
			if got > c.most {
				t.Errorf("%s, %d cells: %.0f objects a call, at most %.0f", c.name, n, got, c.most)
			}
		}
	}
}
