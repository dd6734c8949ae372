// A size-classed free list for matrix backing slices. Chained
// expressions like (a+b).*c allocate one output per operator; without
// reuse every operator pays the allocator (and, under concurrency, the
// contention §III-C warns about). Released buffers — expression
// temporaries recycled by the interpreter, and rc-tracked matrices
// whose last reference is dropped (Matrix.DecRef) — come back
// here and are handed to the next kernel output of a compatible size.
//
// Classing is by power-of-two capacity: a slice is stored under
// floor(log2(cap)), and a request for n cells scans from class
// floor(log2(n)) (where equal-size buffers land — the chained-
// expression case) up to ceil(log2(n))+1, so a reused buffer wastes at
// most ~4x its requested size and a lookup touches at most three
// classes.
// Retention is bounded (per-class slice count and a global byte cap),
// so the free list is a small working set, not a leak.
//
// Budget accounting stays exact: reuse does not skip the Budget charge
// — the budget bounds total allocation *work* (cells requested), and a
// reused buffer satisfies a request all the same.
package matrix

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// minReuseCells is the smallest slice the free list retains; tiny
	// buffers are cheaper to allocate fresh than to serialize on the
	// free-list lock.
	minReuseCells = 256
	// maxSizeClass bounds the classes (2^47 cells is far beyond maxCells).
	maxSizeClass = 48
	// maxPerClass bounds retained slices per class per element type.
	maxPerClass = 8
)

// freeListMaxBytes caps the total bytes retained across all element
// types (atomic so tests can shrink it without a race).
var freeListMaxBytes atomic.Int64

// freeListBytes is the current retained total.
var freeListBytes atomic.Int64

func init() { freeListMaxBytes.Store(64 << 20) }

// bufFreeList holds released backing slices of one element type.
type bufFreeList[T any] struct {
	mu       sync.Mutex
	classes  [maxSizeClass][][]T
	elemSize int64
}

var (
	floatFree = &bufFreeList[float64]{elemSize: 8}
	intFree   = &bufFreeList[int64]{elemSize: 8}
	boolFree  = &bufFreeList[bool]{elemSize: 1}
)

// get returns a retained slice re-sliced to n cells, or false when none
// fits. The contents are NOT zeroed; see take.
func (p *bufFreeList[T]) get(n int) ([]T, bool) {
	if n < minReuseCells {
		return nil, false
	}
	// Start at floor(log2(n)): that class holds same-size buffers when n
	// is not a power of two (the common chained-expression case), so it
	// is scanned with a per-candidate cap check. Members of every later
	// class are guaranteed cap >= n.
	c0 := bits.Len(uint(n)) - 1
	c1 := bits.Len(uint(n-1)) + 2
	if c1 > maxSizeClass {
		c1 = maxSizeClass
	}
	p.mu.Lock()
	for c := c0; c < c1; c++ {
		cl := p.classes[c]
		for i := len(cl) - 1; i >= 0; i-- {
			s := cl[i]
			if cap(s) < n {
				continue
			}
			cl[i] = cl[len(cl)-1]
			cl[len(cl)-1] = nil
			p.classes[c] = cl[:len(cl)-1]
			p.mu.Unlock()
			freeListBytes.Add(-int64(cap(s)) * p.elemSize)
			kernelBuffersReused.Add(1)
			return s[:n], true
		}
	}
	p.mu.Unlock()
	return nil, false
}

// take returns n cells: a retained slice when one fits — cleared if
// zeroed — and a fresh one otherwise.
func (p *bufFreeList[T]) take(n int, zeroed bool) []T {
	s, ok := p.get(n)
	if !ok {
		return make([]T, n)
	}
	if zeroed {
		clear(s)
	}
	return s
}

// put retains s for reuse, dropping it when it is too small, its class
// is full, or the global byte cap is reached.
func (p *bufFreeList[T]) put(s []T) {
	c := cap(s)
	if c < minReuseCells {
		return
	}
	bytes := int64(c) * p.elemSize
	if freeListBytes.Load()+bytes > freeListMaxBytes.Load() {
		return
	}
	cls := bits.Len(uint(c)) - 1 // floor(log2(cap)): every member has cap >= 2^cls
	if cls >= maxSizeClass {
		return
	}
	p.mu.Lock()
	if len(p.classes[cls]) >= maxPerClass {
		p.mu.Unlock()
		return
	}
	p.classes[cls] = append(p.classes[cls], s[:0])
	p.mu.Unlock()
	freeListBytes.Add(bytes)
}

func (p *bufFreeList[T]) drain() {
	p.mu.Lock()
	for c := range p.classes {
		for _, s := range p.classes[c] {
			freeListBytes.Add(-int64(cap(s)) * p.elemSize)
		}
		p.classes[c] = nil
	}
	p.mu.Unlock()
}

// DrainFreeLists empties the backing-slice free lists (tests use it to
// make reuse counters deterministic).
func DrainFreeLists() {
	floatFree.drain()
	intFree.drain()
	boolFree.drain()
}
