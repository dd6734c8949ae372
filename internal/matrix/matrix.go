// Package matrix is the runtime the matrix language extension
// compiles against: dense N-dimensional matrices of int, float or
// bool with MATLAB-style indexing (§III-A.3), elementwise overloaded
// arithmetic with matrix–scalar broadcasting and linear-algebra
// multiplication (§III-A.2), and parallel execution of with-loops and
// matrixMap on the enhanced fork-join pool (§III-C).
//
// Reference counts (§III-B) are kept in the matrix's own header and
// accounted on an internal/rc heap, so the discipline is checkable in
// tests.
package matrix

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/rc"
)

// Elem is the element type of a matrix.
type Elem int

// Element types.
const (
	Float Elem = iota
	Int
	Bool
)

func (e Elem) String() string {
	switch e {
	case Float:
		return "float"
	case Int:
		return "int"
	case Bool:
		return "bool"
	}
	return "?"
}

// Matrix is a dense N-dimensional array in row-major order: one header
// of 96 bytes and its cells — inside the header's own object when there
// are at most inlineCells of them, so a small matrix is one object. The
// header is the paper's and the emitted C's (cm_mat: `int rc;` first,
// then the descriptor of the data): the reference count of §III-B sits
// in it beside rank, element type, the one word that points at the
// cells, and the shape. Every matrix is dense, so its strides are not
// stored: strides derives them from the shape. A matrix no variable was
// ever bound to is untracked (heap == nil) and its count unused.
//
// Only this file touches data: floats, ints and bools are the typed
// views of it; alloc, setCells and Recycle write it, flatView shares it
// and fillBox points it at a cell on its own stack.
type Matrix struct {
	count rc.Count
	rank  int32
	elem  Elem
	heap  *rc.Heap // the heap a tracked matrix is accounted on
	// data is the first of n cells of elem's type, of room allocated: the
	// three words, in this order, are a []T's own header, which is how
	// the typed views read them.
	data unsafe.Pointer
	n    int
	room int
	// dims holds the shape of a rank <= InlineRank; a higher rank keeps
	// it in *ext.
	dims [InlineRank]int
	ext  *[]int
}

// InlineRank is the highest rank served without allocating: the header
// holds the shape itself, strides and a selection resolve in stack
// scratch, and the VM sizes its index-spec and dimension scratch from
// it. A higher rank allocates them. The paper's data is rank 3
// (latitude, longitude, time).
const InlineRank = 4

// shape is the dimension sizes, in the header.
func (m *Matrix) shape() []int {
	if r := int(m.rank); r <= InlineRank {
		return m.dims[:r:r]
	}
	return (*m.ext)[:m.rank:m.rank]
}

// strides writes into s, and returns, the row-major cell distance per
// dimension: the product of the later dimensions. Above InlineRank they
// are allocated instead. A caller derives them once per call, row or
// strip, never per cell.
func (m *Matrix) strides(s *[InlineRank]int) []int {
	shape := m.shape()
	st := s[:]
	if len(shape) > InlineRank {
		st = make([]int, len(shape))
	}
	acc := 1
	for d := len(shape) - 1; d >= 0; d-- {
		st[d] = acc
		acc *= shape[d]
	}
	return st[:len(shape)]
}

// floats is the cells of a float matrix (nil for another element type,
// after Recycle, and of no matrix).
func (m *Matrix) floats() []float64 {
	if m == nil || m.elem != Float {
		return nil
	}
	return *(*[]float64)(unsafe.Pointer(&m.data))
}

// ints is the cells of an int matrix.
func (m *Matrix) ints() []int64 {
	if m == nil || m.elem != Int {
		return nil
	}
	return *(*[]int64)(unsafe.Pointer(&m.data))
}

// bools is the cells of a bool matrix.
func (m *Matrix) bools() []bool {
	if m == nil || m.elem != Bool {
		return nil
	}
	return *(*[]bool)(unsafe.Pointer(&m.data))
}

// setCells makes s, of m's element type, m's cells.
func setCells[T float64 | int64 | bool](m *Matrix, s []T) {
	m.data, m.n, m.room = unsafe.Pointer(unsafe.SliceData(s)), len(s), cap(s)
}

// Recycle returns m's backing storage to the kernel free list and
// detaches it from m. It must only be called when the caller owns the
// last live reference (the interpreter calls it for spent expression
// temporaries, DecRef when a tracked matrix's count reaches zero). After
// Recycle any element access on m panics — a loud failure instead of
// silently reading a buffer that now belongs to someone else. Recycle
// is idempotent. Inline cells are detached like any others and never
// retained: the free list drops every buffer under minReuseCells.
func (m *Matrix) Recycle() {
	if m == nil || m.data == nil {
		return
	}
	switch m.elem {
	case Float:
		floatFree.put(unsafe.Slice((*float64)(m.data), m.room))
	case Int:
		intFree.put(unsafe.Slice((*int64)(m.data), m.room))
	case Bool:
		boolFree.put(unsafe.Slice((*bool)(m.data), m.room))
	}
	m.data, m.n, m.room = nil, 0, 0
}

// flatView makes v the rank-1 view of m's cells (a chain runs its
// leaves as [0, n) whatever their rank). v shares them and owns nothing;
// for inline cells its data word keeps m's whole object alive.
func (m *Matrix) flatView(v *Matrix) {
	*v = Matrix{rank: 1, elem: m.elem, data: m.data, n: m.n, room: m.room}
	v.dims[0] = m.n
}

// fillBox stores the scalar v in every cell of the box. The value is one
// cell of m's type in a word on this stack, so Set converts or refuses v
// as it would for a cell of m.
func (m *Matrix) fillBox(sel *selection, v any) error {
	var cell struct {
		m Matrix
		w [1]int64
	}
	cell.m.elem, cell.m.data, cell.m.n = m.elem, unsafe.Pointer(&cell.w), 1
	if err := cell.m.Set(0, v); err != nil {
		return err
	}
	m.copyBox(sel, &cell.m, boxFill)
	return nil
}

// Bind takes a reference to m on behalf of a variable binding. The
// first makes m tracked on h; it must come before m is shared across
// goroutines.
func (m *Matrix) Bind(h *rc.Heap) {
	if m.heap != nil {
		m.count.IncRef()
		return
	}
	m.heap = h
	m.count.Init()
	h.Track()
}

// Tracked reports whether a variable was ever bound to m.
func (m *Matrix) Tracked() bool { return m.heap != nil }

// IncRef takes one more reference to a tracked matrix (an untracked one
// has no count to keep).
func (m *Matrix) IncRef() {
	if m.heap != nil {
		m.count.IncRef()
	}
}

// DecRef drops a reference; the last one releases the matrix on its
// heap and recycles its cells. It reports whether this call did.
func (m *Matrix) DecRef() bool {
	if m.heap == nil || !m.count.DecRef() {
		return false
	}
	m.heap.Untrack()
	m.Recycle()
	return true
}

// New allocates a zeroed matrix. It panics on an impossible shape
// (negative dimension, size overflow); execution layers that must not
// crash use NewBudgeted and get an error instead.
func New(elem Elem, shape ...int) *Matrix {
	m, err := NewBudgeted(nil, elem, shape...)
	if err != nil {
		panic(err)
	}
	return m
}

// checkedSize validates a shape and returns its element count,
// rejecting negative dimensions and products whose byte size cannot
// exist in the address space (which would otherwise alias a huge
// request onto a small make, or panic inside make itself).
func checkedSize(shape []int) (int, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return 0, &ShapeError{msg: fmt.Sprintf("matrix: negative dimension %d", d)}
		}
		if d > 0 && n > maxCells/d {
			// The formatter gets a copy, so a caller's shape can stay on its stack.
			return 0, &ShapeError{msg: fmt.Sprintf("matrix: shape %v overflows the address space", slices.Clone(shape))}
		}
		n *= d
	}
	return n, nil
}

const (
	maxInt = int(^uint(0) >> 1)
	// maxCells bounds a single matrix's element count so that its byte
	// size (widest element: 8 bytes) still fits in int; beyond this,
	// make would panic "len out of range" instead of returning an error.
	maxCells = maxInt / 8
)

// admit is the admission sequence of every budgeted allocation, in its
// one observable order: validate the shape, consult TestHookAllocFail,
// charge the cell count against b (nil = unlimited). It returns the
// cell count; nothing has been allocated yet, so an oversized request
// fails as a *BudgetError rather than an OOM kill.
func admit(b *Budget, shape []int) (int, error) {
	n, err := checkedSize(shape)
	if err != nil {
		return 0, err
	}
	if hook := TestHookAllocFail; hook != nil {
		if err := hook(n); err != nil {
			return 0, err
		}
	}
	if err := b.Charge(n); err != nil {
		return 0, err
	}
	return n, nil
}

// alloc makes the matrix admit approved: n is shape's cell count. Up to
// inlineCells cells, zeroed, share the header's object; more come from
// the kernel free list when a released buffer fits — zeroed clears such
// a buffer, and may be false only when the caller writes every cell.
func alloc(elem Elem, shape []int, n int, zeroed bool) *Matrix {
	var m *Matrix
	if n >= 1 && n <= inlineCells {
		m = withInlineCells(elem, n)
	} else {
		m = new(Matrix)
		switch elem {
		case Float:
			setCells(m, floatFree.take(n, zeroed))
		case Int:
			setCells(m, intFree.take(n, zeroed))
		case Bool:
			setCells(m, boolFree.take(n, zeroed))
		}
	}
	m.elem, m.rank = elem, int32(len(shape))
	if len(shape) <= InlineRank {
		copy(m.dims[:], shape)
	} else {
		ext := slices.Clone(shape)
		m.ext = &ext
	}
	return m
}

// inlineCells is the most cells alloc stores inside the header's object:
// eight float or int cells, a cache line. Recycle relies on the free
// list never retaining a buffer that small.
const inlineCells = 8

const _ = uint(minReuseCells - inlineCells - 1) // inlineCells < minReuseCells

// headerAndCells is a header followed by the words of its inline cells.
// Two, four, six or eight words put the object in the allocator's 112-,
// 128-, 144- or 160-byte size class. Nothing compares one, and the
// zero-size func field says so: no equality function is built for it.
type headerAndCells[C [2]uint64 | [4]uint64 | [6]uint64 | [8]uint64] struct {
	_ [0]func()
	m Matrix
	c C
}

// withInlineCells makes a header whose n zeroed cells of elem's type
// follow it in the same object; data is an interior pointer, which keeps
// the whole object alive for as long as any view of the cells.
func withInlineCells(elem Elem, n int) *Matrix {
	bytes := 8 * n
	if elem == Bool {
		bytes = n
	}
	var m *Matrix
	var cells unsafe.Pointer
	switch words := (bytes + 7) / 8; {
	case words <= 2:
		o := new(headerAndCells[[2]uint64])
		m, cells = &o.m, unsafe.Pointer(&o.c)
	case words <= 4:
		o := new(headerAndCells[[4]uint64])
		m, cells = &o.m, unsafe.Pointer(&o.c)
	case words <= 6:
		o := new(headerAndCells[[6]uint64])
		m, cells = &o.m, unsafe.Pointer(&o.c)
	default:
		o := new(headerAndCells[[8]uint64])
		m, cells = &o.m, unsafe.Pointer(&o.c)
	}
	m.data, m.n, m.room = cells, n, n
	return m
}

// NewBudgeted allocates a zeroed matrix after validating the shape and
// charging the cell count against b (nil = unlimited); see admit.
func NewBudgeted(b *Budget, elem Elem, shape ...int) (*Matrix, error) {
	n, err := admit(b, shape)
	if err != nil {
		return nil, err
	}
	return alloc(elem, shape, n, true), nil
}

// FromFloats builds a float matrix from row-major data.
func FromFloats(data []float64, shape ...int) *Matrix {
	m := New(Float, shape...)
	if len(data) != m.Size() {
		panic(&ShapeError{msg: fmt.Sprintf("matrix: %d values for shape %v", len(data), shape)})
	}
	copy(m.floats(), data)
	return m
}

// FromInts builds an int matrix from row-major data.
func FromInts(data []int64, shape ...int) *Matrix {
	m := New(Int, shape...)
	if len(data) != m.Size() {
		panic(&ShapeError{msg: fmt.Sprintf("matrix: %d values for shape %v", len(data), shape)})
	}
	copy(m.ints(), data)
	return m
}

// FromBools builds a bool matrix from row-major data.
func FromBools(data []bool, shape ...int) *Matrix {
	m := New(Bool, shape...)
	if len(data) != m.Size() {
		panic(&ShapeError{msg: fmt.Sprintf("matrix: %d values for shape %v", len(data), shape)})
	}
	copy(m.bools(), data)
	return m
}

// RangeBudgeted returns the rank-1 int matrix [lo, lo+1, ..., hi] (the
// inclusive vector-building range of Fig 8 line 27), admitted against b;
// hi < lo is the empty vector.
func RangeBudgeted(b *Budget, lo, hi int64) (*Matrix, error) {
	m, err := newKernelOut(b, Int, []int{rangeCells(lo, hi)})
	if err != nil {
		return nil, err
	}
	cells := m.ints()
	for k := range cells {
		cells[k] = lo + int64(k)
	}
	return m, nil
}

// rangeCells counts the cells of [lo :: hi]. In uint64 the span is exact
// where hi - lo overflows int64; one no matrix can hold is clamped, for
// admit to refuse.
func rangeCells(lo, hi int64) int {
	if hi < lo {
		return 0
	}
	return int(min(uint64(hi)-uint64(lo), uint64(maxCells))) + 1
}

// Elem returns the element type.
func (m *Matrix) Elem() Elem { return m.elem }

// Rank returns the number of dimensions.
func (m *Matrix) Rank() int { return int(m.rank) }

// Shape returns the dimension sizes (not aliased).
func (m *Matrix) Shape() []int { return append([]int(nil), m.shape()...) }

// DimSize returns the size of dimension d (§III-A.3's dimSize).
func (m *Matrix) DimSize(d int) (int, error) {
	if d < 0 || d >= len(m.shape()) {
		return 0, fmt.Errorf("matrix: dimSize dimension %d out of range for rank %d", d, len(m.shape()))
	}
	return m.shape()[d], nil
}

// Size returns the total element count.
func (m *Matrix) Size() int {
	n := 1
	for _, d := range m.shape() {
		n *= d
	}
	return n
}

// SameShape reports whether m and o have identical shapes.
func (m *Matrix) SameShape(o *Matrix) bool {
	if len(m.shape()) != len(o.shape()) {
		return false
	}
	for d := range m.shape() {
		if m.shape()[d] != o.shape()[d] {
			return false
		}
	}
	return true
}

// Offset converts a multi-index to a linear offset (bounds checked).
func (m *Matrix) Offset(idx []int) (int, error) {
	if len(idx) != len(m.shape()) {
		return 0, fmt.Errorf("matrix: %d indices for rank %d", len(idx), len(m.shape()))
	}
	off := 0
	for d, i := range idx {
		if i < 0 || i >= m.shape()[d] {
			return 0, fmt.Errorf("matrix: index %d out of range [0,%d) in dimension %d", i, m.shape()[d], d)
		}
		off = off*m.shape()[d] + i // row-major, as a Horner sum
	}
	return off, nil
}

// Get returns the element at linear offset as int64, float64 or bool.
func (m *Matrix) Get(off int) any {
	switch m.elem {
	case Float:
		return m.floats()[off]
	case Int:
		return m.ints()[off]
	default:
		return m.bools()[off]
	}
}

// GetFloat returns the element at off as a float64 (ints convert).
func (m *Matrix) GetFloat(off int) float64 {
	switch m.elem {
	case Float:
		return m.floats()[off]
	case Int:
		return float64(m.ints()[off])
	default:
		if m.bools()[off] {
			return 1
		}
		return 0
	}
}

// Set stores v (int64, float64, bool or int) at linear offset,
// promoting int to float where needed.
func (m *Matrix) Set(off int, v any) error {
	switch m.elem {
	case Float:
		switch x := v.(type) {
		case float64:
			m.floats()[off] = x
		case int64:
			m.floats()[off] = float64(x)
		case int:
			m.floats()[off] = float64(x)
		default:
			return fmt.Errorf("matrix: cannot store %T in float matrix", v)
		}
	case Int:
		switch x := v.(type) {
		case int64:
			m.ints()[off] = x
		case int:
			m.ints()[off] = int64(x)
		default:
			return fmt.Errorf("matrix: cannot store %T in int matrix", v)
		}
	case Bool:
		x, ok := v.(bool)
		if !ok {
			return fmt.Errorf("matrix: cannot store %T in bool matrix", v)
		}
		m.bools()[off] = x
	}
	return nil
}

// At returns the element at a multi-index.
func (m *Matrix) At(idx ...int) (any, error) {
	off, err := m.Offset(idx)
	if err != nil {
		return nil, err
	}
	return m.Get(off), nil
}

// SetAt stores at a multi-index.
func (m *Matrix) SetAt(v any, idx ...int) error {
	off, err := m.Offset(idx)
	if err != nil {
		return err
	}
	return m.Set(off, v)
}

// Copy returns a deep copy (untracked) for host code, outside any
// budget like New, made on the caller.
func (m *Matrix) Copy() *Matrix {
	out, err := m.CopyExec(Exec{})
	if err != nil {
		panic(err)
	}
	return out
}

// CopyExec returns a deep copy (untracked) admitted against x.Budget,
// its cells copied in spans over x.Pool.
func (m *Matrix) CopyExec(x Exec) (*Matrix, error) {
	out, err := newKernelOut(x.Budget, m.elem, m.shape())
	if err == nil {
		err = runKernel(x, m.n, ParallelGrain, func(lo, hi int) error {
			switch m.elem {
			case Float:
				copy(out.floats()[lo:hi], m.floats()[lo:hi])
			case Int:
				copy(out.ints()[lo:hi], m.ints()[lo:hi])
			default:
				copy(out.bools()[lo:hi], m.bools()[lo:hi])
			}
			return nil
		})
	}
	if err != nil {
		out.Recycle()
		return nil, err
	}
	return out, nil
}

// Floats exposes the raw float storage (nil unless elem is Float).
func (m *Matrix) Floats() []float64 { return m.floats() }

// Ints exposes the raw int storage (nil unless elem is Int).
func (m *Matrix) Ints() []int64 { return m.ints() }

// Bools exposes the raw bool storage (nil unless elem is Bool).
func (m *Matrix) Bools() []bool { return m.bools() }

// Equal reports elementwise equality of shape, type and contents.
func Equal(a, b *Matrix) bool {
	if a.elem != b.elem || !a.SameShape(b) {
		return false
	}
	for k, n := 0, a.Size(); k < n; k++ {
		if a.Get(k) != b.Get(k) {
			return false
		}
	}
	return true
}

// AlmostEqual compares float matrices within eps (other types exact).
func AlmostEqual(a, b *Matrix, eps float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for k, n := 0, a.Size(); k < n; k++ {
		da := a.GetFloat(k) - b.GetFloat(k)
		if da < -eps || da > eps {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	if m.Size() > 64 {
		return fmt.Sprintf("Matrix %s %v (%d elements)", m.elem, m.shape(), m.Size())
	}
	return fmt.Sprintf("Matrix %s %v %v", m.elem, m.shape(), m.rawSlice())
}

func (m *Matrix) rawSlice() any {
	switch m.elem {
	case Float:
		return m.floats()
	case Int:
		return m.ints()
	default:
		return m.bools()
	}
}
