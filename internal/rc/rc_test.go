package rc

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestBasicLifecycle(t *testing.T) {
	h := NewHeap()
	hd := h.Alloc()
	if h.Live() != 1 {
		t.Fatalf("live after Alloc = %d", h.Live())
	}
	hd.IncRef()
	if hd.DecRef() {
		t.Fatal("decref with remaining refs should not free")
	}
	if !hd.DecRef() {
		t.Fatal("last decref should free")
	}
	if !hd.Freed() {
		t.Fatal("header should be marked freed")
	}
	if err := h.CheckLeaks(); err != nil {
		t.Fatalf("leak check: %v", err)
	}
}

func TestLeakDetection(t *testing.T) {
	h := NewHeap()
	h.Alloc()
	if err := h.CheckLeaks(); err == nil {
		t.Fatal("expected leak to be reported")
	}
	if n := h.Live(); n != 1 {
		t.Errorf("live = %d", n)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	h := NewHeap()
	hd := h.Alloc()
	hd.DecRef()
	defer func() {
		if recover() == nil {
			t.Error("double free should panic")
		}
	}()
	hd.DecRef()
}

func TestUseAfterFreePanics(t *testing.T) {
	h := NewHeap()
	hd := h.Alloc()
	hd.DecRef()
	defer func() {
		if recover() == nil {
			t.Error("IncRef after free should panic")
		}
	}()
	hd.IncRef()
}

func TestNilHeaderSafe(t *testing.T) {
	var hd *Header
	hd.IncRef()
	if hd.DecRef() {
		t.Error("nil decref should be a no-op")
	}
}

func TestConcurrentRefCounting(t *testing.T) {
	h := NewHeap()
	hd := h.Alloc()
	const goroutines = 8
	const rounds = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				hd.IncRef()
				hd.DecRef()
			}
		}()
	}
	wg.Wait()
	if !hd.DecRef() {
		t.Fatal("the last reference after concurrent inc/dec did not free")
	}
	if err := h.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

// Property: a random sequence of incs followed by matching decs frees
// exactly once at the end and never leaks.
func TestQuickBalancedOps(t *testing.T) {
	f := func(seed int64, incsU uint8) bool {
		incs := int(incsU % 50)
		h := NewHeap()
		hd := h.Alloc()
		for i := 0; i < incs; i++ {
			hd.IncRef()
		}
		for i := 0; i < incs; i++ {
			if hd.DecRef() {
				return false // must not free early
			}
		}
		if !hd.DecRef() {
			return false // final ref must free
		}
		return h.CheckLeaks() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func testAllocator(t *testing.T, a Allocator) {
	t.Helper()
	// Allocate and free under concurrency; verify ids never collide
	// while live.
	const goroutines = 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	liveIDs := map[int]bool{}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			var mine []int
			for i := 0; i < 300; i++ {
				if len(mine) > 0 && r.Intn(2) == 0 {
					id := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					mu.Lock()
					delete(liveIDs, id)
					mu.Unlock()
					a.Free(id)
				} else {
					id := a.Allocate(32)
					mu.Lock()
					if liveIDs[id] {
						t.Errorf("%s: id %d double-allocated", a.Name(), id)
					}
					liveIDs[id] = true
					mu.Unlock()
					mine = append(mine, id)
				}
			}
			for _, id := range mine {
				mu.Lock()
				delete(liveIDs, id)
				mu.Unlock()
				a.Free(id)
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestGlobalLockAllocator(t *testing.T) { testAllocator(t, NewGlobalLock(10)) }
func TestArenaAllocator(t *testing.T)      { testAllocator(t, NewArena(8, 10)) }

func TestArenaFreeReuse(t *testing.T) {
	a := NewArena(4, 0)
	id1 := a.Allocate(8)
	a.Free(id1)
	// freed blocks are reused within their arena
	seen := false
	for i := 0; i < 16; i++ {
		id := a.Allocate(8)
		if id == id1 {
			seen = true
		}
	}
	if !seen {
		t.Error("freed block was never reused")
	}
}
