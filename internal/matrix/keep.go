// Frame-local storage (§III-B/C: an arena instead of the allocator). A
// Keep belongs to one allocation site in one frame of the VM: the site
// keeps the matrices it makes there, and its next execution takes back
// one whose last reference has been dropped instead of allocating.
// Admission does not change — the budget is charged and TestHookAllocFail
// consulted before a kept matrix is taken, exactly as before a fresh one
// — and neither does the rc heap's count: a taken matrix is untracked
// again, and its next Bind tracks it.
//
// Taking back a matrix whose count is dead is sound only when nothing
// holds it without counting: no rc cell, no global, no tuple, no other
// variable, no spawn and no retaining callee. vet proves that of a site
// (vet.Facts.FrameLocal); the VM gives a Keep to the sites it proved and
// to no other.
package matrix

import (
	"math"
	"sync/atomic"

	"repro/internal/rc"
)

// Keep holds the matrices one site made for one frame: two, so that a
// variable rebound in a loop, whose old matrix is still live while the
// site makes its new one, reuses too. One goroutine uses a Keep at a
// time (its frame's). A nil *Keep keeps nothing: each method then
// allocates as the plain function does.
type Keep struct {
	m [2]*Matrix
}

// TestHookPoisonKept, when set, makes the last release of every kept
// matrix overwrite its cells and header, so that anything still reading
// it — a holder vet missed — reads garbage, or fails, instead of the old
// values. Tests set it; it must be clear in production.
var TestHookPoisonKept atomic.Bool

// maxKeptCells is the most cells a Keep keeps a matrix of. A frame is
// pooled between activations and between runs of a cached program, and
// what it keeps is outside every budget; a bigger matrix goes back to
// the free list, which bounds what it retains, and its cells cost more
// than its header anyway.
const maxKeptCells = 4096

// alloc makes the matrix admit approved, as alloc does, from a kept
// matrix that is dead and has room for n cells of elem when there is
// one. A new matrix is kept in a free slot, or in place of a dead one
// too small; when both slots hold live matrices, or it has more than
// maxKeptCells cells, it is not kept.
func (k *Keep) alloc(elem Elem, shape []int, n int, zeroed bool) *Matrix {
	if k == nil || n > maxKeptCells {
		return alloc(elem, shape, n, zeroed)
	}
	slot := -1
	for i, m := range k.m {
		switch {
		case m == nil:
		case !m.dead():
			continue
		case m.elem == elem && m.room >= n:
			m.reuse(shape, n, zeroed)
			return m
		}
		if slot < 0 {
			slot = i
		}
	}
	m := alloc(elem, shape, n, zeroed)
	if slot >= 0 {
		m.kept = true
		k.m[slot] = m
	}
	return m
}

// Adopt binds m to h when k holds it and nothing has bound it yet: a
// matrix a return-local site made, which its caller consumes as a
// temporary. Its one count is then the caller's escape reference, and
// once the caller drops that at its statement's end, k takes m back. It
// reports whether it bound m.
func (k *Keep) Adopt(m *Matrix, h *rc.Heap) bool {
	if k == nil || m == nil || m.heap != nil || k.m[0] != m && k.m[1] != m {
		return false
	}
	m.Bind(h)
	return true
}

// dead reports whether m was bound and its last reference dropped.
func (m *Matrix) dead() bool { return m.heap != nil && m.count.Dead() }

// reuse makes the dead kept matrix m a fresh, untracked one of shape and
// its first n cells, cleared if zeroed (else the caller writes each).
func (m *Matrix) reuse(shape []int, n int, zeroed bool) {
	m.count.Reset()
	m.heap = nil
	m.n = n
	if zeroed {
		switch m.elem {
		case Float:
			clear(m.floats())
		case Int:
			clear(m.ints())
		case Bool:
			clear(m.bools())
		}
	}
	m.setShape(shape)
}

// poison overwrites a dead kept matrix's cells, all of its room, and its
// shape: a rank no shape has makes any read of the header fail loudly.
// The element type and the cells' word stay, for reuse.
func (m *Matrix) poison() {
	switch m.elem {
	case Float:
		fill(m.floats(), math.Float64frombits(0x7ff8_dead_beef_0bad))
	case Int:
		fill(m.ints(), -0x5ca1_ab1e_dead_beef)
	case Bool:
		fill(m.bools(), true)
	}
	m.rank = -1
	for d := range m.dims {
		m.dims[d] = -1
	}
	m.ext = nil
}

// fill sets every cell of s's capacity to v.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// New is NewBudgeted from k's keeping.
func (k *Keep) New(b *Budget, elem Elem, shape ...int) (*Matrix, error) {
	n, err := admit(b, shape)
	if err != nil {
		return nil, err
	}
	return k.alloc(elem, shape, n, true), nil
}

// Index is m.Index with a matrix result from k's keeping.
func (k *Keep) Index(m *Matrix, b *Budget, specs ...IndexSpec) (any, error) {
	return m.index(b, k, specs)
}

// Elementwise is ElementwiseExec with the result from k's keeping.
func (k *Keep) Elementwise(op Op, a, b *Matrix, x Exec) (*Matrix, error) {
	return elementwise(op, a, b, x, k)
}

// Broadcast is BroadcastExec with the result from k's keeping.
func (k *Keep) Broadcast(op Op, m *Matrix, s any, matLeft bool, x Exec) (*Matrix, error) {
	return broadcast(op, m, s, matLeft, x, k)
}
