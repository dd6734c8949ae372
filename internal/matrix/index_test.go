// The indexing oracle: the walker Index and SetIndex ran on before a
// selection was a strided box — a position list per dimension, every
// source offset re-derived per cell, every cell moved through
// Get -> any -> Set. It is kept verbatim (names apart) as what the box copy
// must equal: result shape, element type, bits, error text, and a
// destination left untouched by a refused store.
package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// dimSelectionRef resolves one spec against a dimension size, returning
// the selected positions (nil means the single scalar position).
func dimSelectionRef(spec IndexSpec, size, dim int) (scalar int, list []int, err error) {
	switch spec.Kind {
	case SpecScalar:
		if spec.I < 0 || spec.I >= size {
			return 0, nil, fmt.Errorf("matrix: index %d out of range [0,%d) in dimension %d", spec.I, size, dim)
		}
		return spec.I, nil, nil
	case SpecRange:
		if spec.Lo < 0 || spec.Hi >= size || spec.Lo > spec.Hi {
			return 0, nil, fmt.Errorf("matrix: range %d:%d invalid for dimension %d of size %d", spec.Lo, spec.Hi, dim, size)
		}
		list = make([]int, spec.Hi-spec.Lo+1)
		for k := range list {
			list[k] = spec.Lo + k
		}
		return 0, list, nil
	case SpecAll:
		list = make([]int, size)
		for k := range list {
			list[k] = k
		}
		return 0, list, nil
	case SpecMask:
		mk := spec.Mask
		if mk.elem != Bool || mk.Rank() != 1 {
			return 0, nil, fmt.Errorf("matrix: logical index for dimension %d must be a rank-1 bool matrix", dim)
		}
		if mk.Size() != size {
			return 0, nil, fmt.Errorf("matrix: logical index length %d does not match dimension %d of size %d", mk.Size(), dim, size)
		}
		for k, v := range mk.bools() {
			if v {
				list = append(list, k)
			}
		}
		if list == nil {
			list = []int{}
		}
		return 0, list, nil
	}
	return 0, nil, fmt.Errorf("matrix: unknown index spec kind %d", spec.Kind)
}

// selectionRef is the resolved cross-product of per-dimension choices.
type selectionRef struct {
	scalarOnly bool
	scalars    []int   // fixed position per dimension (scalar dims)
	lists      [][]int // selected positions for kept dims, nil for scalar dims
	outShape   []int
}

func (m *Matrix) resolveRef(specs []IndexSpec) (*selectionRef, error) {
	if len(specs) != len(m.shape()) {
		return nil, fmt.Errorf("matrix: rank-%d matrix requires %d index expression(s), got %d",
			len(m.shape()), len(m.shape()), len(specs))
	}
	sel := &selectionRef{scalarOnly: true,
		scalars: make([]int, len(specs)), lists: make([][]int, len(specs))}
	for d, spec := range specs {
		sc, list, err := dimSelectionRef(spec, m.shape()[d], d)
		if err != nil {
			return nil, err
		}
		if list == nil {
			sel.scalars[d] = sc
		} else {
			sel.scalarOnly = false
			sel.lists[d] = list
			sel.outShape = append(sel.outShape, len(list))
		}
	}
	return sel, nil
}

// forEachRef visits every selected cell, giving the source offset and the
// destination linear offset in the selection's output shape.
func (sel *selectionRef) forEachRef(m *Matrix, f func(srcOff, dstOff int) error) error {
	// counters over the kept dimensions
	var keptDims []int
	for d, l := range sel.lists {
		if l != nil {
			if len(l) == 0 {
				return nil // empty selection (e.g. all-false mask)
			}
			keptDims = append(keptDims, d)
		}
	}
	idx := make([]int, len(m.shape()))
	copy(idx, sel.scalars)
	counters := make([]int, len(keptDims))
	for {
		srcOff := 0
		for d := range idx {
			v := idx[d]
			if sel.lists[d] != nil {
				v = sel.lists[d][counters[indexOfRef(keptDims, d)]]
			}
			srcOff += v * rowMajorStride(m.shape(), d)
		}
		dstOff := 0
		for k := range keptDims {
			dstOff = dstOff*len(sel.lists[keptDims[k]]) + counters[k]
		}
		if err := f(srcOff, dstOff); err != nil {
			return err
		}
		// advance counters
		k := len(counters) - 1
		for ; k >= 0; k-- {
			counters[k]++
			if counters[k] < len(sel.lists[keptDims[k]]) {
				break
			}
			counters[k] = 0
		}
		if k < 0 {
			return nil
		}
		if len(counters) == 0 {
			return nil
		}
	}
}

func indexOfRef(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// indexRef evaluates m[specs...] the parent's way.
func indexRef(m *Matrix, specs ...IndexSpec) (any, error) {
	sel, err := m.resolveRef(specs)
	if err != nil {
		return nil, err
	}
	if sel.scalarOnly {
		off, err := m.Offset(sel.scalars)
		if err != nil {
			return nil, err
		}
		return m.Get(off), nil
	}
	out := New(m.elem, sel.outShape...)
	if out.Size() == 0 {
		return out, nil
	}
	err = sel.forEachRef(m, func(srcOff, dstOff int) error {
		return out.Set(dstOff, m.Get(srcOff))
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// setIndexRef assigns into m[specs...] the parent's way.
func setIndexRef(m *Matrix, v any, specs ...IndexSpec) error {
	sel, err := m.resolveRef(specs)
	if err != nil {
		return err
	}
	if sel.scalarOnly {
		off, err := m.Offset(sel.scalars)
		if err != nil {
			return err
		}
		return m.Set(off, v)
	}
	if src, ok := v.(*Matrix); ok {
		want := 1
		for _, d := range sel.outShape {
			want *= d
		}
		if src.Size() != want {
			return fmt.Errorf("matrix: cannot store %d element(s) into a selection of %d", src.Size(), want)
		}
		return sel.forEachRef(m, func(srcOff, dstOff int) error {
			return m.Set(srcOff, src.Get(dstOff))
		})
	}
	return sel.forEachRef(m, func(srcOff, dstOff int) error {
		return m.Set(srcOff, v)
	})
}

// randSpecs draws one spec a dimension of shape: every kind, mostly valid,
// with out-of-range scalars, inverted and overlong ranges, all-false and
// all-true masks, and masks of the wrong length, rank or element type;
// now and then one spec too many or too few.
func randSpecs(r *rand.Rand, shape []int) []IndexSpec {
	var specs []IndexSpec
	for _, size := range shape {
		pick := func() int { return r.Intn(size+2) - 1 } // -1 .. size
		if r.Intn(4) > 0 && size > 0 {
			pick = func() int { return r.Intn(size) }
		}
		switch r.Intn(4) {
		case 0:
			specs = append(specs, Scalar(pick()))
		case 1:
			lo, hi := pick(), pick()
			if hi < lo && r.Intn(8) > 0 {
				lo, hi = hi, lo
			}
			specs = append(specs, Span(lo, hi))
		case 2:
			specs = append(specs, All())
		case 3:
			mask := New(Bool, size)
			switch r.Intn(12) {
			case 0:
				mask = New(Bool, size+1)
			case 1:
				mask = New(Bool, size, 1)
			case 2:
				mask = New(Int, size)
			}
			for k, density := 0, r.Intn(3); k < len(mask.bools()); k++ {
				mask.bools()[k] = density == 2 || density == 1 && r.Intn(2) == 0
			}
			specs = append(specs, Mask(mask))
		}
	}
	switch r.Intn(16) {
	case 0:
		specs = append(specs, All())
	case 1:
		specs = specs[:len(specs)-1]
	}
	return specs
}

// randIndexed draws a matrix of rank 1 to 6 — both sides of InlineRank:
// header-held and allocated dimensions, stack and heap selection scratch
// — with extents 0 to 4 and distinct cell values.
func randIndexed(r *rand.Rand, elem Elem) *Matrix {
	shape := make([]int, 1+r.Intn(InlineRank+2))
	for d := range shape {
		shape[d] = r.Intn(5)
	}
	return randCells(r, elem, shape...)
}

func randCells(r *rand.Rand, elem Elem, shape ...int) *Matrix {
	m := New(elem, shape...)
	for k := 0; k < m.Size(); k++ {
		switch elem {
		case Float:
			m.floats()[k] = float64(k) + r.Float64()
		case Int:
			m.ints()[k] = int64(1000*k + r.Intn(1000))
		case Bool:
			m.bools()[k] = r.Intn(2) == 0
		}
	}
	return m
}

// sameValue compares two Index results: both scalars of one Go type and
// value, or both matrices of one element type, shape and bits.
func sameValue(a, b any) bool {
	am, aok := a.(*Matrix)
	bm, bok := b.(*Matrix)
	if !aok || !bok {
		return aok == bok && reflect.DeepEqual(a, b)
	}
	if am.elem != bm.elem || !reflect.DeepEqual(am.shape(), bm.shape()) {
		return false
	}
	for k := range am.floats() {
		if math.Float64bits(am.floats()[k]) != math.Float64bits(bm.floats()[k]) {
			return false
		}
	}
	return reflect.DeepEqual(am.ints(), bm.ints()) && reflect.DeepEqual(am.bools(), bm.bools())
}

// rowMajorStride is the oracles' own stride of dimension d: the product
// of the later dimensions, computed here rather than by the matrix.
func rowMajorStride(shape []int, d int) int {
	s := 1
	for _, n := range shape[d+1:] {
		s *= n
	}
	return s
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

var elems = []Elem{Float, Int, Bool}

func TestQuickIndexMatchesReference(t *testing.T) {
	kept := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randIndexed(r, elems[r.Intn(3)])
		specs := randSpecs(r, m.shape())
		want, werr := indexRef(m, specs...)
		budget := NewBudget(1 << 20)
		got, gerr := m.Index(budget, specs...)
		if errText(gerr) != errText(werr) || !sameValue(got, want) {
			t.Logf("seed %d: %v%v = %v, %v; the reference has %v, %v", seed, m, specs, got, gerr, want, werr)
			return false
		}
		// What the program gets to name is what its budget was charged.
		charged := 0
		if out, ok := got.(*Matrix); ok {
			charged = out.Size()
			kept++
		}
		if budget.Used() != int64(charged) {
			t.Logf("seed %d: %d cells charged for a result of %d", seed, budget.Used(), charged)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
	if kept < 500 {
		t.Errorf("only %d of the selections kept a dimension: the generator is off", kept)
	}
}

func TestQuickSetIndexMatchesReference(t *testing.T) {
	stored := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		orig := randIndexed(r, elems[r.Intn(3)])
		specs := randSpecs(r, orig.shape())
		// The value: a scalar of any Go type Set knows, or a matrix of any
		// element type (int into float promotes, float into int is
		// refused) whose size is the selection's, or is off by one.
		var v any
		switch r.Intn(6) {
		case 0:
			v = int64(r.Intn(100))
		case 1:
			v = r.Float64()
		case 2:
			v = r.Intn(2) == 0
		case 3:
			v = r.Intn(100)
		default:
			cells := 0
			if sel, err := orig.resolve(specs, new(selScratch)); err == nil {
				cells = sel.cells
			}
			if r.Intn(8) == 0 {
				cells++
			}
			elem := orig.elem
			if r.Intn(3) == 0 {
				elem = elems[r.Intn(3)]
			}
			v = randCells(r, elem, cells)
		}
		want, got := orig.Copy(), orig.Copy()
		werr := setIndexRef(want, v, specs...)
		gerr := got.SetIndex(v, specs...)
		if errText(gerr) != errText(werr) || !sameValue(got, want) {
			t.Logf("seed %d: %v%v = %v gives %v, %v; the reference has %v, %v", seed, orig, specs, v, got, gerr, want, werr)
			return false
		}
		if gerr != nil && !sameValue(got, orig) {
			t.Logf("seed %d: the refused store %v%v = %v wrote: %v", seed, orig, specs, v, got)
			return false
		}
		if gerr == nil && !sameValue(got, orig) {
			stored++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6000}); err != nil {
		t.Error(err)
	}
	if stored < 500 {
		t.Errorf("only %d stores changed a cell: the generator is off", stored)
	}
}

// A selection costs its call a fixed number of objects, whatever it
// selects: no position list for ':' or a range, no boxed cell. The
// position-list walker made 66 000 to 200 000 for these; since the
// selection is resolved on the caller's stack and a header is one
// object, a read allocates only its result's header (these cells come
// back from the free list) and a store of a matrix nothing.
func TestIndexAllocatesPerCallNotPerCell(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled scratch is dropped at random under the race detector")
	}
	const n = 256
	m := randCells(rand.New(rand.NewSource(1)), Float, n, n)
	row := randCells(rand.New(rand.NewSource(2)), Float, n)
	ints := randCells(rand.New(rand.NewSource(3)), Int, n)
	for _, tc := range []struct {
		name string
		most float64
		f    func()
	}{
		{"column read", 1, func() {
			out, _ := m.Index(nil, All(), Scalar(7))
			out.(*Matrix).Recycle()
		}},
		{"block read", 1, func() {
			out, _ := m.Index(nil, Span(3, n-4), Span(5, n-2))
			out.(*Matrix).Recycle()
		}},
		{"row store", 0, func() { _ = m.SetIndex(row, Scalar(9), All()) }},
		{"column store", 0, func() { _ = m.SetIndex(row, All(), Scalar(9)) }},
		{"promoting column store", 0, func() { _ = m.SetIndex(ints, All(), Scalar(9)) }},
		{"scalar fill", 0, func() { _ = m.SetIndex(0.5, All(), Span(1, n-2)) }},
	} {
		if got := testing.AllocsPerRun(50, tc.f); got > tc.most {
			t.Errorf("%s of a %d x %d matrix allocates %.0f objects, measured %.0f", tc.name, n, n, got, tc.most)
		}
	}
}
