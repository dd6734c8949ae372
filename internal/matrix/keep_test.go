package matrix

import (
	"errors"
	"testing"

	"repro/internal/rc"
)

// A Keep takes back a kept matrix once its count is dead and it has
// room: the same header, untracked again, its cells cleared for New, its
// shape the new one. A live one is never taken, and a third matrix while
// both slots are live is not kept (its last release recycles it as
// usual).
func TestKeepReusesDeadMatrices(t *testing.T) {
	h := rc.NewHeap()
	var k Keep
	a, err := k.New(nil, Float, 3)
	if err != nil {
		t.Fatal(err)
	}
	a.Bind(h)
	a.floats()[2] = 7
	if !a.DecRef() || h.Live() != 0 {
		t.Fatal("the last DecRef of a kept matrix did not release it")
	}
	if a.room != 4 || a.n != 3 {
		t.Fatalf("a dead kept matrix has n %d, room %d: want its cells kept (3 of 4)", a.n, a.room)
	}
	b, _ := k.New(nil, Float, 2, 2)
	if b != a || b.Tracked() || b.Rank() != 2 || b.Size() != 4 || b.floats()[2] != 0 {
		t.Fatalf("New did not take back the dead matrix as a fresh 2x2 zeroed one: %v (same %v)", b, b == a)
	}
	b.Bind(h)
	c, _ := k.New(nil, Float, 2)
	c.Bind(h)
	if c == b {
		t.Fatal("New took a live matrix")
	}
	d, _ := k.New(nil, Float, 2)
	if d == b || d == c || d.kept {
		t.Fatal("a matrix made while both slots are live was kept")
	}
	d.Bind(h)
	for _, m := range []*Matrix{b, c, d} {
		m.DecRef()
	}
	if h.Live() != 0 {
		t.Fatalf("live = %d", h.Live())
	}
	if d.data != nil || b.data == nil {
		t.Fatal("the unkept matrix kept its cells, or a kept one lost them")
	}
	if e, _ := k.New(nil, Int, 1); e == b || e == c {
		t.Fatal("New took a dead matrix of another element type")
	}
	if f, _ := k.New(nil, Float, 9); f == b || f == c {
		t.Fatal("New took a dead matrix with no room")
	}
}

// Adopt binds a matrix its Keep made that nothing has bound, a returned
// temporary, with one count: when that is dropped the Keep takes the
// matrix back. It leaves alone a bound matrix, one the Keep does not
// hold, and a nil Keep's.
func TestKeepAdopt(t *testing.T) {
	h := rc.NewHeap()
	var k Keep
	a, _ := k.New(nil, Float, 3)
	if !k.Adopt(a, h) || !a.Tracked() || h.Live() != 1 {
		t.Fatal("Adopt did not bind an unbound kept matrix")
	}
	if k.Adopt(a, h) {
		t.Fatal("Adopt bound a bound matrix again")
	}
	other := New(Float, 3)
	if k.Adopt(other, h) || other.Tracked() {
		t.Fatal("Adopt bound a matrix the Keep does not hold")
	}
	var none *Keep
	if none.Adopt(other, h) || other.Tracked() {
		t.Fatal("a nil Keep adopted a matrix")
	}
	if !a.DecRef() || h.Live() != 0 {
		t.Fatal("dropping the adopted count did not release the matrix")
	}
	if b, _ := k.New(nil, Float, 2); b != a {
		t.Fatal("the Keep did not take back the adopted matrix once dead")
	}
}

// Taking a kept matrix back changes nothing admission decides: the
// budget is charged, and TestHookAllocFail consulted, as for a fresh one.
func TestKeepAdmitsLikeNew(t *testing.T) {
	h := rc.NewHeap()
	var k Keep
	b := NewBudget(10)
	m, _ := k.New(b, Int, 4)
	m.Bind(h)
	m.DecRef()
	if r, _ := k.New(b, Int, 4); r != m || b.Used() != 8 {
		t.Fatalf("reuse charged %d cells in all, want 8", b.Used())
	}
	m.Bind(h)
	m.DecRef()
	if _, err := k.New(b, Int, 4); err == nil {
		t.Fatal("reuse past the budget was admitted")
	}
	fail := errors.New("injected")
	TestHookAllocFail = func(int) error { return fail }
	defer func() { TestHookAllocFail = nil }()
	if _, err := k.New(nil, Int, 4); !errors.Is(err, fail) {
		t.Fatalf("reuse skipped the allocation hook: %v", err)
	}
}

// The poison hook overwrites a kept matrix's cells and shape at its last
// release, and reuse makes it whole again.
func TestKeepPoison(t *testing.T) {
	TestHookPoisonKept.Store(true)
	defer TestHookPoisonKept.Store(false)
	h := rc.NewHeap()
	var k Keep
	m, _ := k.Elementwise(OpAdd, FromInts([]int64{1, 2, 3}, 3), FromInts([]int64{1, 1, 1}, 3), Exec{})
	m.Bind(h)
	m.DecRef()
	if m.rank != -1 || m.ints()[:cap(m.ints())][3] == 0 {
		t.Fatalf("a dead kept matrix was not poisoned: rank %d, cells %v", m.rank, m.ints()[:cap(m.ints())])
	}
	r, _ := k.Broadcast(OpMul, FromInts([]int64{1, 2, 3, 4}, 2, 2), int64(3), true, Exec{})
	if r != m || !Equal(r, FromInts([]int64{3, 6, 9, 12}, 2, 2)) {
		t.Fatalf("reuse after poison made %v", r)
	}
}

// A nil Keep keeps nothing: each method allocates as its plain function.
func TestNilKeepAllocates(t *testing.T) {
	var k *Keep
	m, err := k.New(nil, Bool, 2)
	if err != nil || m.kept || m.Size() != 2 {
		t.Fatalf("nil Keep New: %v %v", m, err)
	}
	v, err := k.Index(FromInts([]int64{5, 6, 7}, 3), nil, Span(1, 2))
	if err != nil || !Equal(v.(*Matrix), FromInts([]int64{6, 7}, 2)) {
		t.Fatalf("nil Keep Index: %v %v", v, err)
	}
}

// A matrix of more than maxKeptCells cells is not kept: its last release
// recycles it to the free list, which bounds what it retains.
func TestKeepLeavesBigMatricesToTheFreeList(t *testing.T) {
	h := rc.NewHeap()
	var k Keep
	m, _ := k.New(nil, Float, maxKeptCells+1)
	m.Bind(h)
	m.DecRef()
	if m.kept || k.m[0] != nil || m.data != nil {
		t.Fatal("a matrix over maxKeptCells was kept")
	}
	DrainFreeLists()
}
