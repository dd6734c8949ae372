// Package rc models the reference-counting memory management of
// §III-B: every allocation carries a (4-byte, in the paper) reference
// count header; copies increment it, scope exits and reassignments
// decrement it, and the data is freed when the count reaches zero.
// The count is one type, Count, and it lives where the paper and the
// emitted C (cm_mat's first field, `int rc;`) put it: a matrix keeps its
// Count inside its own header, the word beside the data's descriptor,
// and only an allocation with no header of its own (a refcounted cell)
// gets a separate Header around one.
// The package also models the allocator-scalability discussion of
// §III-C — a global-lock allocator versus a sharded per-thread arena
// allocator — for benchmark E9.
//
// The matrix runtime (internal/matrix) and the interpreter use this
// package so that RC invariant violations (double free, use after
// free, leaks) become detectable test failures rather than silent
// corruption.
package rc

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Violation is the panic value raised when the reference-counting
// discipline is broken (double free, use after free, negative count).
// It is a typed error so execution layers that recover it can classify
// the failure (the interpreter maps it to the "rc" trap) instead of
// string-matching panic text.
type Violation struct{ Msg string }

func (v *Violation) Error() string { return "rc: " + v.Msg }

// Count is the reference count of one allocation and its released
// state — the "extra 4 bytes attached to every piece of memory" of
// §III-B. It accounts for nothing: its owner (a Header, a matrix) tells
// its Heap when the allocation comes and goes.
type Count struct {
	n int32
	// state holds countFreed and countForced in one word, so that one
	// load sees both.
	state atomic.Uint32
}

const (
	// countFreed marks the allocation released.
	countFreed uint32 = 1 << iota
	// countForced marks an explicit early release (ForceFree): the
	// allocation is already returned to the heap, so the automatic
	// scope-exit DecRefs that still hold stale references become
	// no-ops instead of double-free violations.
	countForced
)

// Init sets the count to the first reference's 1.
func (c *Count) Init() { c.n = 1 }

// IncRef increments the reference count ("another variable also
// becomes a reference for that same piece of data").
func (c *Count) IncRef() {
	if s := c.state.Load(); s&countFreed != 0 {
		if s&countForced != 0 {
			return // stale alias of an explicitly released cell; caught at use
		}
		panic(&Violation{Msg: "IncRef on freed allocation (use after free)"})
	}
	atomic.AddInt32(&c.n, 1)
}

// DecRef decrements the count and reports whether this call dropped the
// last reference: the allocation is now marked freed and its owner
// releases it.
func (c *Count) DecRef() bool {
	if s := c.state.Load(); s&countFreed != 0 {
		if s&countForced != 0 {
			return false // scope-exit release after an explicit ForceFree
		}
		panic(&Violation{Msg: "DecRef on freed allocation (double free)"})
	}
	n := atomic.AddInt32(&c.n, -1)
	if n < 0 {
		panic(&Violation{Msg: "reference count went negative"})
	}
	if n == 0 {
		c.set(countFreed)
	}
	return n == 0
}

// set adds bits to the state and returns the state it found.
func (c *Count) set(bits uint32) uint32 {
	for {
		s := c.state.Load()
		if c.state.CompareAndSwap(s, s|bits) {
			return s
		}
	}
}

// Dead reports whether the last reference was dropped: the count
// reached zero on its own, not through ForceFree.
func (c *Count) Dead() bool { return c.state.Load() == countFreed }

// Reset makes a dead count a fresh allocation's again, not yet
// referenced: its owner is reusing the storage. It is legal only on a
// count Dead reports, and panics on any other.
func (c *Count) Reset() {
	if !c.Dead() {
		panic(&Violation{Msg: "Reset of a live or force-freed count"})
	}
	c.n = 0
	c.state.Store(0)
}

// ForceFree marks the allocation released whatever its count and
// reports whether this call did it (false: it already was).
func (c *Count) ForceFree() bool {
	return c.set(countFreed|countForced)&countFreed == 0
}

// Ref is a counted reference an engine holds until its statement ends:
// a *Header and a *matrix.Matrix release alike.
type Ref interface{ DecRef() bool }

// Header is the count of an allocation that has no header of its own.
type Header struct {
	c    Count
	heap *Heap
}

// Heap counts the allocations tracked on it and not yet released, for
// leak accounting. A heap several workers track and release on at once
// keeps the count in a Tally, each allocation's changes on the stripe
// its key names; a serial run's heap keeps one word.
type Heap struct {
	live    atomic.Int64
	striped *Tally // NewStripedHeap's
}

// NewHeap creates an empty heap.
func NewHeap() *Heap { return &Heap{} }

// NewStripedHeap creates an empty heap for concurrent workers.
func NewStripedHeap() *Heap { return &Heap{striped: new(Tally)} }

// Track records a new allocation whose Count its owner keeps.
func (h *Heap) Track() { h.TrackAt(0) }

// Untrack records the release of an allocation Track recorded.
func (h *Heap) Untrack() { h.UntrackAt(0) }

// TrackAt is Track on the stripe key names: an owner that can tell its
// allocations apart by a key of its own (a matrix, its address) keeps
// concurrent workers off one cache line.
func (h *Heap) TrackAt(key uint) {
	if h.striped != nil {
		h.striped.Add(key, 1)
	} else {
		h.live.Add(1)
	}
}

// UntrackAt is Untrack on the stripe key names.
func (h *Heap) UntrackAt(key uint) {
	if h.striped != nil {
		h.striped.Add(key, -1)
	} else {
		h.live.Add(-1)
	}
}

// tallyStripes is how many cache lines a Tally spreads its count over.
const tallyStripes = 8

// Tally is a counter that concurrent writers update without sharing a
// cache line: an Add lands on the stripe its key names, and Load sums
// the stripes, the exact total once the writers it should count are
// done. The zero value is zero.
type Tally struct {
	stripes [tallyStripes]struct {
		n atomic.Int64
		_ [56]byte
	}
}

// Add adds d on key's stripe.
func (t *Tally) Add(key uint, d int64) { t.stripes[key%tallyStripes].n.Add(d) }

// Load returns the total.
func (t *Tally) Load() int64 {
	var n int64
	for k := range t.stripes {
		n += t.stripes[k].n.Load()
	}
	return n
}

// Reset sets the total to zero (tests reset counters with it).
func (t *Tally) Reset() {
	for k := range t.stripes {
		t.stripes[k].n.Store(0)
	}
}

// Alloc records a new allocation with reference count 1.
func (h *Heap) Alloc() *Header {
	h.Track()
	return &Header{c: Count{n: 1}, heap: h}
}

// IncRef takes a reference (see Count.IncRef); a nil header has none.
func (hd *Header) IncRef() {
	if hd != nil {
		hd.c.IncRef()
	}
}

// DecRef decrements the count; at zero the allocation is freed.
// Returns true if this call freed the data.
func (hd *Header) DecRef() bool {
	if hd == nil || !hd.c.DecRef() {
		return false
	}
	hd.heap.Untrack()
	return true
}

// ForceFree releases the allocation immediately regardless of its
// count — the semantics of an explicit release operation (rcrelease).
// It returns false if the allocation was already freed (an explicit
// double release; callers report it as an rc violation). After a
// successful ForceFree the outstanding automatic references become
// inert: their IncRef/DecRef calls are no-ops, and any dereference is
// the caller's use-after-free to detect via Freed.
func (hd *Header) ForceFree() bool {
	if hd == nil || !hd.c.ForceFree() {
		return false
	}
	hd.heap.Untrack()
	return true
}

// Freed reports whether the allocation was released.
func (hd *Header) Freed() bool { return hd.c.state.Load()&countFreed != 0 }

// Live returns the number of allocations tracked and not yet released.
func (h *Heap) Live() int64 {
	if h.striped != nil {
		return h.striped.Load()
	}
	return h.live.Load()
}

// CheckLeaks returns an error when live allocations remain — used by
// tests to enforce the RC discipline end to end.
func (h *Heap) CheckLeaks() error {
	if n := h.Live(); n != 0 {
		return fmt.Errorf("rc: %d allocation(s) leaked", n)
	}
	return nil
}

// --- Allocator contention models (§III-C, benchmark E9) ---

// Allocator is the interface both contention models implement.
type Allocator interface {
	Allocate(size int) int // returns a block id
	Free(id int)
	Name() string
}

// GlobalLockAllocator models "some implementations of malloc [...]
// naively implemented using a mutex lock to deal with contention over
// the heap": one free list guarded by one mutex.
type GlobalLockAllocator struct {
	mu       sync.Mutex
	nextID   int
	freeList []int
	sizes    map[int]int
	// HoldWork simulates per-operation critical-section work
	// (bookkeeping walks); larger values model slower allocators.
	HoldWork int
}

// NewGlobalLock creates the global-lock model.
func NewGlobalLock(holdWork int) *GlobalLockAllocator {
	return &GlobalLockAllocator{sizes: map[int]int{}, HoldWork: holdWork}
}

// Name implements Allocator.
func (g *GlobalLockAllocator) Name() string { return "global-lock" }

// Allocate implements Allocator.
func (g *GlobalLockAllocator) Allocate(size int) int {
	g.mu.Lock()
	spin(g.HoldWork)
	var id int
	if n := len(g.freeList); n > 0 {
		id = g.freeList[n-1]
		g.freeList = g.freeList[:n-1]
	} else {
		g.nextID++
		id = g.nextID
	}
	g.sizes[id] = size
	g.mu.Unlock()
	return id
}

// Free implements Allocator.
func (g *GlobalLockAllocator) Free(id int) {
	g.mu.Lock()
	spin(g.HoldWork)
	delete(g.sizes, id)
	g.freeList = append(g.freeList, id)
	g.mu.Unlock()
}

// ArenaAllocator models the per-thread arena design ("more recent
// implementations separate the heap into arenas as soon as contention
// is detected"): allocations hash to one of N independently locked
// arenas, so threads rarely contend.
type ArenaAllocator struct {
	arenas   []arena
	next     atomic.Int64
	HoldWork int
}

type arena struct {
	mu       sync.Mutex
	freeList []int
	sizes    map[int]int
	nextID   int
	_        [40]byte // padding to keep arenas off the same cache line
}

// NewArena creates an arena allocator with n shards.
func NewArena(n, holdWork int) *ArenaAllocator {
	a := &ArenaAllocator{arenas: make([]arena, n), HoldWork: holdWork}
	for i := range a.arenas {
		a.arenas[i].sizes = map[int]int{}
	}
	return a
}

// Name implements Allocator.
func (a *ArenaAllocator) Name() string { return "sharded-arena" }

// Allocate implements Allocator. Block ids encode the arena index so
// Free returns the block to its own arena without a global lookup.
func (a *ArenaAllocator) Allocate(size int) int {
	shard := int(a.next.Add(1)) % len(a.arenas)
	ar := &a.arenas[shard]
	ar.mu.Lock()
	spin(a.HoldWork)
	var local int
	if n := len(ar.freeList); n > 0 {
		local = ar.freeList[n-1]
		ar.freeList = ar.freeList[:n-1]
	} else {
		ar.nextID++
		local = ar.nextID
	}
	ar.sizes[local] = size
	ar.mu.Unlock()
	return local*len(a.arenas) + shard
}

// Free implements Allocator.
func (a *ArenaAllocator) Free(id int) {
	shard := id % len(a.arenas)
	local := id / len(a.arenas)
	ar := &a.arenas[shard]
	ar.mu.Lock()
	spin(a.HoldWork)
	delete(ar.sizes, local)
	ar.freeList = append(ar.freeList, local)
	ar.mu.Unlock()
}

// spin burns a deterministic amount of CPU inside a critical section.
func spin(n int) {
	x := 1
	for i := 0; i < n; i++ {
		x = x*1103515245 + 12345
	}
	_ = x
}
