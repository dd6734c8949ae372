package rc_test

import (
	"sync"
	"testing"

	"repro/internal/matrix"
	"repro/internal/rc"
)

// TestHeapLiveUnderConcurrentBinds: goroutines bind and release matrices
// they share and matrices of their own on one heap; the live count
// follows every first Bind and every last DecRef, and is back at zero
// once the shared matrices' first references go. A striped heap (a
// parallel run's) counts the same.
func TestHeapLiveUnderConcurrentBinds(t *testing.T) {
	for _, h := range []*rc.Heap{rc.NewHeap(), rc.NewStripedHeap()} {
		concurrentBinds(t, h)
	}
}

func concurrentBinds(t *testing.T, h *rc.Heap) {
	const goroutines, rounds = 8, 200
	shared := make([]*matrix.Matrix, 4)
	for k := range shared {
		shared[k] = matrix.New(matrix.Float, 3, 3)
		shared[k].Bind(h) // tracked before it is shared
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s := shared[(g+i)%len(shared)]
				s.Bind(h)
				own := matrix.New(matrix.Int, 2, 2)
				own.Bind(h)
				own.Bind(h)
				if own.DecRef() || !own.DecRef() {
					t.Error("a private matrix was not released by exactly its last DecRef")
				}
				if s.DecRef() {
					t.Error("a shared matrix was released while its first reference is held")
				}
			}
		}(g)
	}
	wg.Wait()
	if n := h.Live(); n != int64(len(shared)) {
		t.Fatalf("live = %d after the goroutines, want the %d shared matrices", n, len(shared))
	}
	for _, s := range shared {
		if !s.DecRef() {
			t.Fatal("the first reference of a shared matrix did not release it")
		}
	}
	if err := h.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}
