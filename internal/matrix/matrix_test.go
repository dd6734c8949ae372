package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/rc"
)

func seqFloat(shape ...int) *Matrix {
	m := New(Float, shape...)
	for k := range m.floats() {
		m.floats()[k] = float64(k)
	}
	return m
}

func TestShapeAndAccess(t *testing.T) {
	m := New(Float, 2, 3, 4)
	if m.Rank() != 3 || m.Size() != 24 {
		t.Fatalf("rank/size = %d/%d", m.Rank(), m.Size())
	}
	if d, _ := m.DimSize(1); d != 3 {
		t.Errorf("dimSize(1) = %d", d)
	}
	if _, err := m.DimSize(3); err == nil {
		t.Error("dimSize out of range should error")
	}
	if err := m.SetAt(2.5, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	v, err := m.At(1, 2, 3)
	if err != nil || v.(float64) != 2.5 {
		t.Errorf("At = %v, %v", v, err)
	}
	if _, err := m.At(2, 0, 0); err == nil {
		t.Error("out of range At should error")
	}
	if _, err := m.At(0, 0); err == nil {
		t.Error("wrong arity At should error")
	}
}

func TestSetPromotion(t *testing.T) {
	m := New(Float, 1)
	if err := m.Set(0, int64(3)); err != nil || m.floats()[0] != 3.0 {
		t.Error("int should promote into float matrix")
	}
	mi := New(Int, 1)
	if err := mi.Set(0, 1.5); err == nil {
		t.Error("float into int matrix should error")
	}
	mb := New(Bool, 1)
	if err := mb.Set(0, int64(1)); err == nil {
		t.Error("int into bool matrix should error")
	}
}

func TestRangeVector(t *testing.T) {
	r, _ := RangeBudgeted(nil, 3, 7)
	if r.Rank() != 1 || r.Size() != 5 || r.ints()[0] != 3 || r.ints()[4] != 7 {
		t.Errorf("Range(3,7) = %v", r)
	}
	if e, _ := RangeBudgeted(nil, 5, 4); e.Size() != 0 {
		t.Error("inverted range should be empty")
	}
}

// §III-A.3(a): standard indexing extracts a single element.
func TestScalarIndexing(t *testing.T) {
	m := seqFloat(7, 5, 3)
	v, err := m.Index(nil, Scalar(6), Scalar(4), Scalar(1))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.At(6, 4, 1)
	if v != want {
		t.Errorf("m[6,4,1] = %v, want %v", v, want)
	}
}

// §III-A.3(b): data[0:4, end-4:end, 0:4] returns a 5x5x5 matrix.
func TestRangeIndexing(t *testing.T) {
	m := seqFloat(10, 10, 10)
	end := 9
	v, err := m.Index(nil, Span(0, 4), Span(end-4, end), Span(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	sub := v.(*Matrix)
	if sub.Rank() != 3 || sub.shape()[0] != 5 || sub.shape()[1] != 5 || sub.shape()[2] != 5 {
		t.Fatalf("shape = %v, want 5x5x5 (paper §III-A.3(b))", sub.shape())
	}
	got, _ := sub.At(0, 0, 0)
	want, _ := m.At(0, 5, 0)
	if got != want {
		t.Errorf("corner = %v, want %v", got, want)
	}
}

// §III-A.3(c): data[0, end, :] returns a vector of size dimSize(data,2).
func TestWholeDimIndexing(t *testing.T) {
	m := seqFloat(4, 5, 6)
	v, err := m.Index(nil, Scalar(0), Scalar(4), All())
	if err != nil {
		t.Fatal(err)
	}
	vec := v.(*Matrix)
	if vec.Rank() != 1 || vec.Size() != 6 {
		t.Fatalf("shape = %v, want [6]", vec.shape())
	}
	for k := 0; k < 6; k++ {
		want, _ := m.At(0, 4, k)
		if vec.floats()[k] != want.(float64) {
			t.Errorf("vec[%d] = %v, want %v", k, vec.floats()[k], want)
		}
	}
}

// §III-A.3(d): logical indexing with v % 2 == 1 over dimension 0.
func TestLogicalIndexing(t *testing.T) {
	m := seqFloat(6, 4)
	mask := FromBools([]bool{false, true, false, true, false, true}, 6)
	v, err := m.Index(nil, Mask(mask), All())
	if err != nil {
		t.Fatal(err)
	}
	sub := v.(*Matrix)
	if sub.shape()[0] != 3 || sub.shape()[1] != 4 {
		t.Fatalf("shape = %v, want [3 4]", sub.shape())
	}
	got, _ := sub.At(1, 2)
	want, _ := m.At(3, 2)
	if got != want {
		t.Errorf("sub[1,2] = %v, want %v", got, want)
	}
	// empty mask selection
	none := New(Bool, 6)
	v, err = m.Index(nil, Mask(none), All())
	if err != nil {
		t.Fatal(err)
	}
	if v.(*Matrix).shape()[0] != 0 {
		t.Error("all-false mask should select 0 rows")
	}
}

func TestIndexErrors(t *testing.T) {
	m := seqFloat(3, 3)
	cases := [][]IndexSpec{
		{Scalar(3), Scalar(0)},                    // out of range
		{Scalar(-1), Scalar(0)},                   // negative
		{Span(2, 1), All()},                       // inverted range
		{Span(0, 3), All()},                       // range beyond end
		{Scalar(0)},                               // wrong arity
		{Mask(FromBools([]bool{true}, 1)), All()}, // mask length mismatch
		{Mask(seqFloat(3)), All()},                // mask not bool
	}
	for i, specs := range cases {
		if _, err := m.Index(nil, specs...); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
}

// Indexing works on the left-hand side of assignment too (§III-A.3).
func TestSetIndex(t *testing.T) {
	m := seqFloat(4, 4)
	// scalar store
	if err := m.SetIndex(99.0, Scalar(1), Scalar(1)); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.At(1, 1); v.(float64) != 99.0 {
		t.Error("scalar store failed")
	}
	// slice store from a matrix: scores[beginning:i] = computeArea(trough)
	row := FromFloats([]float64{-1, -2, -3}, 3)
	if err := m.SetIndex(row, Scalar(2), Span(1, 3)); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if v, _ := m.At(2, 1+k); v.(float64) != row.floats()[k] {
			t.Errorf("slice store [2,%d] = %v", 1+k, v)
		}
	}
	// broadcast scalar into selection
	if err := m.SetIndex(7.0, All(), Scalar(0)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if v, _ := m.At(r, 0); v.(float64) != 7.0 {
			t.Errorf("broadcast store [%d,0] = %v", r, v)
		}
	}
	// size mismatch
	if err := m.SetIndex(row, All(), Scalar(0)); err == nil {
		t.Error("store size mismatch should error")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromFloats([]float64{1, 2, 3, 4}, 2, 2)
	b := FromFloats([]float64{10, 20, 30, 40}, 2, 2)
	sum, err := ElementwiseExec(OpAdd, a, b, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.floats()[3] != 44 {
		t.Errorf("sum[3] = %v", sum.floats()[3])
	}
	cmp, err := ElementwiseExec(OpLt, a, b, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.elem != Bool || !cmp.bools()[0] {
		t.Error("comparison should give bool matrix")
	}
	if _, err := ElementwiseExec(OpAdd, a, seqFloat(3, 3), Exec{}); err == nil {
		t.Error("shape mismatch should error")
	}
}

func TestBroadcast(t *testing.T) {
	a := FromInts([]int64{1, 2, 3}, 3)
	out, err := BroadcastExec(OpMul, a, int64(2), true, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if out.elem != Int || out.ints()[2] != 6 {
		t.Errorf("broadcast = %v", out)
	}
	// int matrix * float scalar promotes
	outf, err := BroadcastExec(OpMul, a, 0.5, true, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if outf.elem != Float || outf.floats()[1] != 1.0 {
		t.Errorf("promoted broadcast = %v", outf)
	}
	// scalar on the left: 10 - a
	outl, err := BroadcastExec(OpSub, a, int64(10), false, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if outl.ints()[0] != 9 {
		t.Errorf("left broadcast = %v", outl)
	}
	// comparison: ssh < i (Fig 4)
	cmp, err := BroadcastExec(OpLt, a, int64(3), true, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.elem != Bool || !cmp.bools()[0] || cmp.bools()[2] {
		t.Errorf("compare broadcast = %v", cmp)
	}
}

func TestMatMul(t *testing.T) {
	a := FromFloats([]float64{1, 2, 3, 4}, 2, 2)
	id := FromFloats([]float64{1, 0, 0, 1}, 2, 2)
	out, err := MatMulExec(a, id, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(out, a) {
		t.Errorf("a * I = %v", out)
	}
	b := FromFloats([]float64{5, 6, 7, 8}, 2, 2)
	out, _ = MatMulExec(a, b, Exec{})
	want := FromFloats([]float64{19, 22, 43, 50}, 2, 2)
	if !Equal(out, want) {
		t.Errorf("a*b = %v, want %v", out, want)
	}
	ai := FromInts([]int64{1, 2, 3, 4}, 2, 2)
	outi, err := MatMulExec(ai, ai, Exec{})
	if err != nil || outi.elem != Int || outi.ints()[0] != 7 {
		t.Errorf("int matmul = %v (%v)", outi, err)
	}
	if _, err := MatMulExec(a, seqFloat(3, 2), Exec{}); err == nil {
		t.Error("inner dimension mismatch should error")
	}
	if _, err := MatMulExec(seqFloat(2), a, Exec{}); err == nil {
		t.Error("rank-1 matmul should error")
	}
}

func TestUnary(t *testing.T) {
	a := FromInts([]int64{1, -2}, 2)
	n, err := UnaryExec(true, a, Exec{})
	if err != nil || n.ints()[0] != -1 || n.ints()[1] != 2 {
		t.Errorf("neg = %v (%v)", n, err)
	}
	b := FromBools([]bool{true, false}, 2)
	nb, err := UnaryExec(false, b, Exec{})
	if err != nil || nb.bools()[0] || !nb.bools()[1] {
		t.Errorf("not = %v (%v)", nb, err)
	}
	if _, err := UnaryExec(true, b, Exec{}); err == nil {
		t.Error("negating bool matrix should error")
	}
	if _, err := UnaryExec(false, a, Exec{}); err == nil {
		t.Error("logical not of int matrix should error")
	}
}

func TestGenArraySequential(t *testing.T) {
	// with ([0,0] <= [i,j] < [2,3]) genarray([2,3], i*10+j)
	out, err := GenArrayExec(Int, []int{0, 0}, []int{2, 3}, []int{2, 3},
		func(idx []int) (any, error) { return int64(idx[0]*10 + idx[1]), nil }, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	want := FromInts([]int64{0, 1, 2, 10, 11, 12}, 2, 3)
	if !Equal(out, want) {
		t.Errorf("genarray = %v, want %v", out, want)
	}
}

func TestGenArraySubsetZeroFill(t *testing.T) {
	// generator covers a subset; the rest is 0 (§III-A.4).
	out, err := GenArrayExec(Int, []int{1, 1}, []int{3, 3}, []int{4, 4},
		func(idx []int) (any, error) { return int64(1), nil }, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, v := range out.ints() {
		if v == 1 {
			ones++
		} else if v != 0 {
			t.Fatalf("unexpected value %d", v)
		}
	}
	if ones != 4 {
		t.Errorf("ones = %d, want 4", ones)
	}
}

func TestGenArraySupersetCheck(t *testing.T) {
	// "the shape in the operation must be a superset of the indexes in
	// the generator, which is something that can be checked at runtime"
	_, err := GenArrayExec(Int, []int{0}, []int{10}, []int{5},
		func(idx []int) (any, error) { return int64(0), nil }, Exec{})
	if err == nil {
		t.Fatal("generator exceeding shape must be a runtime error")
	}
}

func TestFoldKinds(t *testing.T) {
	body := func(idx []int) (any, error) { return int64(idx[0]), nil }
	sum, err := foldExecAny(FoldAdd, int64(0), []int{0}, []int{10}, body, Exec{})
	if err != nil || sum.(int64) != 45 {
		t.Errorf("fold + = %v (%v)", sum, err)
	}
	prod, err := foldExecAny(FoldMul, int64(1), []int{1}, []int{5}, body, Exec{})
	if err != nil || prod.(int64) != 24 {
		t.Errorf("fold * = %v (%v)", prod, err)
	}
	mn, err := foldExecAny(FoldMin, int64(100), []int{3}, []int{9}, body, Exec{})
	if err != nil || mn.(int64) != 3 {
		t.Errorf("fold min = %v (%v)", mn, err)
	}
	mx, err := foldExecAny(FoldMax, int64(-100), []int{3}, []int{9}, body, Exec{})
	if err != nil || mx.(int64) != 8 {
		t.Errorf("fold max = %v (%v)", mx, err)
	}
	// float fold (Fig 1's temporal mean numerator)
	fsum, err := foldExecAny(FoldAdd, 0.0, []int{0}, []int{4},
		func(idx []int) (any, error) { return float64(idx[0]) + 0.5, nil }, Exec{})
	if err != nil || fsum.(float64) != 8.0 {
		t.Errorf("float fold = %v (%v)", fsum, err)
	}
	// empty generator returns base
	e, err := foldExecAny(FoldAdd, int64(7), []int{5}, []int{5}, body, Exec{})
	if err != nil || e.(int64) != 7 {
		t.Errorf("empty fold = %v (%v)", e, err)
	}
}

// storing is the MapFunc of a function that owns nothing its result
// needs: the result is stored as it is.
func storing(f func(sub *Matrix) (*Matrix, error)) MapFunc {
	return func(sub *Matrix, store func(*Matrix) error) error {
		res, err := f(sub)
		if err != nil {
			return err
		}
		return store(res)
	}
}

func TestMatrixMapSequential(t *testing.T) {
	// double every element of each row vector (dims = [1])
	m := seqFloat(3, 4)
	out, err := MatrixMapExec(m, []int{1}, Float, false, storing(func(sub *Matrix) (*Matrix, error) {
		return BroadcastExec(OpMul, sub, 2.0, true, Exec{})
	}), Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.SameShape(m) {
		t.Fatalf("matrixMap changed shape: %v", out.shape())
	}
	for k := range m.floats() {
		if out.floats()[k] != 2*m.floats()[k] {
			t.Fatalf("out[%d] = %v", k, out.floats()[k])
		}
	}
}

func TestMatrixMapEquivalentToExplicitLoop(t *testing.T) {
	// Fig 5: matrixMap(f, ssh, [0,1]) ≡ loop over dim 2 applying f.
	ssh := seqFloat(4, 5, 6)
	f := func(sub *Matrix) (*Matrix, error) { return BroadcastExec(OpAdd, sub, 1.0, true, Exec{}) }
	got, err := MatrixMapExec(ssh, []int{0, 1}, Float, false, storing(f), Exec{})
	if err != nil {
		t.Fatal(err)
	}
	want := New(Float, 4, 5, 6)
	for k := 0; k < 6; k++ {
		subAny, _ := ssh.Index(nil, All(), All(), Scalar(k))
		res, _ := f(subAny.(*Matrix))
		if err := want.SetIndex(res, All(), All(), Scalar(k)); err != nil {
			t.Fatal(err)
		}
	}
	if !Equal(got, want) {
		t.Fatal("matrixMap result differs from explicit dim-2 loop (Fig 5 equivalence)")
	}
}

func TestMatrixMapErrors(t *testing.T) {
	m := seqFloat(3, 4)
	double := func(sub *Matrix) (*Matrix, error) { return sub.Copy(), nil }
	if _, err := MatrixMapExec(m, []int{0, 1}, Float, false, storing(double), Exec{}); err == nil {
		t.Error("mapping all dims should error")
	}
	if _, err := MatrixMapExec(m, nil, Float, false, storing(double), Exec{}); err == nil {
		t.Error("mapping no dims should error")
	}
	if _, err := MatrixMapExec(m, []int{5}, Float, false, storing(double), Exec{}); err == nil {
		t.Error("out-of-range dim should error")
	}
	if _, err := MatrixMapExec(m, []int{1, 1}, Float, false, storing(double), Exec{}); err == nil {
		t.Error("duplicate dim should error")
	}
	bad := func(sub *Matrix) (*Matrix, error) { return New(Float, 2), nil }
	if _, err := MatrixMapExec(m, []int{1}, Float, false, storing(bad), Exec{}); err == nil {
		t.Error("size-changing function should error")
	}
}

// Binding a matrix is what tracks it: the count is in its own header,
// the heap only accounts for it, the last DecRef recycles the cells, and
// the discipline's violations are rc's, text for text.
func TestTrackedAllocation(t *testing.T) {
	h := rc.NewHeap()
	m := New(Float, 10, 10)
	if m.Tracked() || m.DecRef() {
		t.Fatal("a matrix nothing was bound to is tracked")
	}
	m.Bind(h)
	if !m.Tracked() || h.Live() != 1 {
		t.Fatalf("after the first Bind: tracked %v, live %d", m.Tracked(), h.Live())
	}
	m.Bind(h)
	if m.DecRef() || m.Floats() == nil {
		t.Fatal("the first of two references released the matrix")
	}
	if !m.DecRef() || m.Floats() != nil {
		t.Fatal("the last reference did not release and recycle the matrix")
	}
	if err := h.CheckLeaks(); err != nil {
		t.Fatalf("after the last DecRef: %v", err)
	}
	for name, op := range map[string]func(){"DecRef on freed allocation (double free)": func() { m.DecRef() },
		"IncRef on freed allocation (use after free)": m.IncRef} {
		func() {
			defer func() {
				if v, ok := recover().(*rc.Violation); !ok || v.Msg != name {
					t.Errorf("recovered %v, want the violation %q", v, name)
				}
			}()
			op()
		}()
	}
}

// The header is 96 bytes, count included, and holds no strides. A
// tracked matrix of an inline rank is one object while its cells fit in
// it (up to inlineCells of them, whatever the element type) and two —
// header and cells — once they do not. Above InlineRank the shape moves
// behind one pointer: a slice header and its array more.
func TestMatrixHeaderBudget(t *testing.T) {
	if size := unsafe.Sizeof(Matrix{}); size > 96 {
		t.Errorf("a Matrix header is %d bytes, over 96", size)
	}
	h := rc.NewHeap()
	for _, tc := range []struct {
		shape []int
		want  float64
	}{
		{[]int{0}, 1}, {[]int{1}, 1}, {[]int{8}, 1}, {[]int{2, 3}, 1}, {[]int{1, 2, 4}, 1}, {[]int{2, 1, 2, 2}, 1},
		{[]int{9}, 2}, {[]int{3, 3}, 2}, {[]int{1, 3, 3}, 2}, {[]int{3, 1, 3, 1}, 2},
		{[]int{8, 1, 1, 1, 1}, 3}, {[]int{9, 1, 1, 1, 1}, 4},
	} {
		for _, elem := range elems {
			got := testing.AllocsPerRun(100, func() {
				m := New(elem, tc.shape...)
				m.Bind(h)
				m.DecRef()
			})
			if got != tc.want {
				t.Errorf("a tracked %s matrix of shape %v is %v objects, want %v", elem, tc.shape, got, tc.want)
			}
		}
	}
	if err := h.CheckLeaks(); err != nil {
		t.Error(err)
	}
}

// Property: with strides derived from the shape, Offset, At and an
// all-scalar Index agree with a row-major reference — each index times
// the product of the later dimensions — on every cell of shapes of rank
// 0 to 6, zero extents included, and refuse the first index past the
// end of any dimension.
func TestQuickOffsetIsRowMajor(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		shape := make([]int, r.Intn(InlineRank+3))
		for d := range shape {
			shape[d] = r.Intn(4)
		}
		m := randCells(r, elems[r.Intn(len(elems))], shape...)
		idx := make([]int, len(shape))
		specs := make([]IndexSpec, len(shape))
		for k := 0; k < m.Size(); k++ {
			ref := 0
			for d, i := range idx {
				ref += i * rowMajorStride(shape, d)
				specs[d] = Scalar(i)
			}
			off, err := m.Offset(idx)
			if err != nil || off != ref || ref != k {
				return false
			}
			at, err := m.At(idx...)
			if err != nil || !sameValue(at, m.Get(ref)) {
				return false
			}
			got, err := m.Index(nil, specs...)
			if err != nil || !sameValue(got, m.Get(ref)) {
				return false
			}
			for d := len(idx) - 1; d >= 0; d-- {
				if idx[d]++; idx[d] < shape[d] {
					break
				}
				idx[d] = 0
			}
		}
		for d := range shape {
			past := make([]int, len(shape))
			past[d] = shape[d]
			if _, err := m.Offset(past); err == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Recycling a matrix whose cells are inline detaches them like any
// other: the free list keeps none of it, an access afterwards panics,
// and a second Recycle does nothing.
func TestRecycleInlineCells(t *testing.T) {
	for _, elem := range elems {
		for n := 1; n <= inlineCells; n++ {
			m := New(elem, n)
			if uintptr(m.data) != uintptr(unsafe.Pointer(m))+unsafe.Sizeof(*m) {
				t.Fatalf("%d %s cells are not inline", n, elem)
			}
			before := freeListBytes.Load()
			m.Recycle()
			if got := freeListBytes.Load(); got != before {
				t.Errorf("recycling %d inline %s cells moved the free list from %d to %d bytes", n, elem, before, got)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("reading a recycled %s matrix of %d inline cells did not panic", elem, n)
					}
				}()
				m.Get(n - 1)
			}()
			m.Recycle()
			if m.data != nil || m.n != 0 || m.room != 0 || freeListBytes.Load() != before {
				t.Errorf("a second Recycle of %d inline %s cells was not a no-op", n, elem)
			}
		}
	}
}

func TestEqualAndAlmostEqual(t *testing.T) {
	a := FromFloats([]float64{1, 2}, 2)
	b := FromFloats([]float64{1, 2.0000001}, 2)
	if Equal(a, b) {
		t.Error("Equal should be exact")
	}
	if !AlmostEqual(a, b, 1e-5) {
		t.Error("AlmostEqual should tolerate eps")
	}
	if Equal(a, FromInts([]int64{1, 2}, 2)) {
		t.Error("different elem types are not equal")
	}
}

// Property: slice composition — indexing twice equals composed range.
func TestQuickRangeComposition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(20)
		m := seqFloat(n)
		lo1 := r.Intn(n - 2)
		hi1 := lo1 + 1 + r.Intn(n-lo1-1)
		subAny, err := m.Index(nil, Span(lo1, hi1))
		if err != nil {
			return false
		}
		sub := subAny.(*Matrix)
		k := sub.Size()
		lo2 := r.Intn(k)
		hi2 := lo2 + r.Intn(k-lo2)
		inner, err := sub.Index(nil, Span(lo2, hi2))
		if err != nil {
			return false
		}
		direct, err := m.Index(nil, Span(lo1+lo2, lo1+hi2))
		if err != nil {
			return false
		}
		return Equal(inner.(*Matrix), direct.(*Matrix))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: get after set returns the stored value.
func TestQuickGetSet(t *testing.T) {
	m := New(Float, 5, 5, 5)
	f := func(i, j, k uint8, v float64) bool {
		idx := []int{int(i) % 5, int(j) % 5, int(k) % 5}
		if err := m.SetAt(v, idx...); err != nil {
			return false
		}
		got, err := m.At(idx...)
		return err == nil && got.(float64) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: logical indexing keeps exactly the masked rows in order.
func TestQuickLogicalIndexLaws(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		m := seqFloat(n, 3)
		bits := make([]bool, n)
		count := 0
		for i := range bits {
			bits[i] = r.Intn(2) == 0
			if bits[i] {
				count++
			}
		}
		outAny, err := m.Index(nil, Mask(FromBools(bits, n)), All())
		if err != nil {
			return false
		}
		out := outAny.(*Matrix)
		if out.shape()[0] != count {
			return false
		}
		row := 0
		for i := 0; i < n; i++ {
			if !bits[i] {
				continue
			}
			for c := 0; c < 3; c++ {
				want, _ := m.At(i, c)
				got, _ := out.At(row, c)
				if want != got {
					return false
				}
			}
			row++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
