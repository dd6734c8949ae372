// MATLAB-style indexing (§III-A.3): standard single-element indexing,
// inclusive range indexing, whole-dimension ':' indexing, and logical
// (bool mask) indexing, usable in any combination and on both sides of
// assignment.
package matrix

import "fmt"

// SpecKind discriminates IndexSpec.
type SpecKind int

// Index specification kinds.
const (
	SpecScalar SpecKind = iota // one position; dimension is dropped
	SpecRange                  // inclusive [Lo, Hi]; dimension kept
	SpecAll                    // ':'; dimension kept
	SpecMask                   // rank-1 bool matrix; dimension kept
)

// IndexSpec describes the index applied to one dimension.
type IndexSpec struct {
	Kind   SpecKind
	I      int     // SpecScalar
	Lo, Hi int     // SpecRange (inclusive, like data[0:4] → 5 cells)
	Mask   *Matrix // SpecMask
}

// Scalar builds a single-position spec.
func Scalar(i int) IndexSpec { return IndexSpec{Kind: SpecScalar, I: i} }

// Span builds an inclusive range spec.
func Span(lo, hi int) IndexSpec { return IndexSpec{Kind: SpecRange, Lo: lo, Hi: hi} }

// All builds a whole-dimension spec.
func All() IndexSpec { return IndexSpec{Kind: SpecAll} }

// Mask builds a logical-index spec from a rank-1 bool matrix.
func Mask(m *Matrix) IndexSpec { return IndexSpec{Kind: SpecMask, Mask: m} }

// selection is a resolved m[specs...]: a strided box of the matrix.
// Dimension d selects count[d] positions at its own stride, the first of
// them folded into off; only a mask, whose positions are not a stride,
// lists them in pos[d] (pos is nil when no dimension has a mask).
type selection struct {
	off   int // the box's first cell, mask dimensions apart
	count []int
	pos   [][]int
	shape []int // the counts of the dimensions a scalar did not drop
	cells int
}

// selScratch backs a selection's count and shape for a matrix of rank
// <= InlineRank: the caller keeps one on its stack, so resolving
// allocates nothing unless a mask lists its positions.
type selScratch [2 * InlineRank]int

// resolve checks every spec against its dimension, before anything is
// allocated or written. An all-scalar selection has an empty shape.
func (m *Matrix) resolve(specs []IndexSpec, scratch *selScratch) (selection, error) {
	rank := len(m.shape())
	if len(specs) != rank {
		return selection{}, fmt.Errorf("matrix: rank-%d matrix requires %d index expression(s), got %d",
			rank, rank, len(specs))
	}
	dims := scratch[:]
	if rank > InlineRank {
		dims = make([]int, 2*rank)
	}
	sel := selection{count: dims[:rank:rank], shape: dims[rank : rank : 2*rank], cells: 1}
	for d, spec := range specs {
		size, start := m.shape()[d], 0
		switch spec.Kind {
		case SpecScalar:
			if spec.I < 0 || spec.I >= size {
				return selection{}, fmt.Errorf("matrix: index %d out of range [0,%d) in dimension %d", spec.I, size, d)
			}
			start, sel.count[d] = spec.I, 1
		case SpecRange:
			if spec.Lo < 0 || spec.Hi >= size || spec.Lo > spec.Hi {
				return selection{}, fmt.Errorf("matrix: range %d:%d invalid for dimension %d of size %d", spec.Lo, spec.Hi, d, size)
			}
			start, sel.count[d] = spec.Lo, spec.Hi-spec.Lo+1
		case SpecAll:
			sel.count[d] = size
		case SpecMask:
			mk := spec.Mask
			if mk.elem != Bool || mk.Rank() != 1 {
				return selection{}, fmt.Errorf("matrix: logical index for dimension %d must be a rank-1 bool matrix", d)
			}
			if mk.Size() != size {
				return selection{}, fmt.Errorf("matrix: logical index length %d does not match dimension %d of size %d", mk.Size(), d, size)
			}
			if sel.pos == nil {
				sel.pos = make([][]int, rank)
			}
			sel.pos[d] = []int{}
			for k, v := range mk.bools() {
				if v {
					sel.pos[d] = append(sel.pos[d], k)
				}
			}
			sel.count[d] = len(sel.pos[d])
		default:
			return selection{}, fmt.Errorf("matrix: unknown index spec kind %d", spec.Kind)
		}
		sel.off = sel.off*size + start // row-major, as a Horner sum
		if spec.Kind != SpecScalar {
			sel.shape = append(sel.shape, sel.count[d])
			sel.cells *= sel.count[d]
		}
	}
	return sel, nil
}

// boxOp is what boxCopy does with each run of a selection.
type boxOp int

const (
	boxRead  boxOp = iota // the box out to the dense cells
	boxWrite              // the dense cells back into the box
	boxFill               // the one dense cell into every cell of the box
)

// boxCopy is the one copy behind Index, SetIndex and matrixMap's
// sub-matrices. From dimension d, at offset off of strided, it visits
// the selection in the result's row-major order and moves one stride-1
// run at a time — the last dimension, unless a mask picks its cells one
// by one — returning the dense cells still to come.
func boxCopy[T any](sel *selection, strides []int, d, off int, strided, dense []T, op boxOp) []T {
	n := 1
	if d < len(strides) {
		var p []int
		if sel.pos != nil {
			p = sel.pos[d]
		}
		if p != nil || d < len(strides)-1 {
			for k := 0; k < sel.count[d]; k++ {
				at := k
				if p != nil {
					at = p[k]
				}
				dense = boxCopy(sel, strides, d+1, off+at*strides[d], strided, dense, op)
			}
			return dense
		}
		n = sel.count[d]
	}
	run := strided[off : off+n]
	switch op {
	case boxRead:
		copy(dense, run)
	case boxWrite:
		copy(run, dense)
	case boxFill:
		for j, v := 0, dense[0]; j < len(run); j++ {
			run[j] = v
		}
		return dense
	}
	return dense[n:]
}

// copyBox runs boxCopy between m's storage and dense's, which holds
// m's element type.
func (m *Matrix) copyBox(sel *selection, dense *Matrix, op boxOp) {
	var s [InlineRank]int
	strides := m.strides(&s)
	switch m.elem {
	case Float:
		boxCopy(sel, strides, 0, sel.off, m.floats(), dense.floats(), op)
	case Int:
		boxCopy(sel, strides, 0, sel.off, m.ints(), dense.ints(), op)
	case Bool:
		boxCopy(sel, strides, 0, sel.off, m.bools(), dense.bools(), op)
	}
}

// Index evaluates m[specs...]. All-scalar indexing returns the element
// value (int64/float64/bool); otherwise a fresh matrix whose rank is
// the number of kept dimensions, admitted against b (nil = unlimited)
// once every spec has been checked.
func (m *Matrix) Index(b *Budget, specs ...IndexSpec) (any, error) {
	var scratch selScratch
	sel, err := m.resolve(specs, &scratch)
	if err != nil {
		return nil, err
	}
	if len(sel.shape) == 0 {
		return m.Get(sel.off), nil
	}
	out, err := newKernelOut(b, m.elem, sel.shape) // un-zeroed: every cell is written
	if err != nil {
		return nil, err
	}
	m.copyBox(&sel, out, boxRead)
	return out, nil
}

// SetIndex assigns into m[specs...]. For an all-scalar selection v
// must be a scalar; otherwise v may be a scalar (broadcast into the
// selection) or a matrix whose size matches the selection. A value of
// the wrong type writes nothing, and an empty selection takes any.
func (m *Matrix) SetIndex(v any, specs ...IndexSpec) error {
	var scratch selScratch
	sel, err := m.resolve(specs, &scratch)
	if err != nil {
		return err
	}
	if len(sel.shape) == 0 {
		return m.Set(sel.off, v)
	}
	src, isMatrix := v.(*Matrix)
	if isMatrix && src.Size() != sel.cells {
		return fmt.Errorf("matrix: cannot store %d element(s) into a selection of %d", src.Size(), sel.cells)
	}
	if sel.cells == 0 {
		return nil
	}
	if !isMatrix {
		return m.fillBox(&sel, v)
	}
	switch {
	case m.elem == Float && src.elem == Int:
		// Promoted once, in scratch the program never sees and its
		// budget is not charged for.
		f, scratch, _ := floatScratch(Exec{}, src)
		defer releaseFloatScratch(f, scratch)
		src = &Matrix{elem: Float}
		setCells(src, f)
	case src.elem != m.elem:
		return fmt.Errorf("matrix: cannot store %T in %s matrix", src.Get(0), m.elem)
	}
	m.copyBox(&sel, src, boxWrite)
	return nil
}
