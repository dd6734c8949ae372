// White-box tests of the bounded LRU singleflight cache: both caps
// enforced, least-recently-used evicted first, in-flight slots pinned,
// eviction counters accurate, and the ledger exact under grow.
package driver

import (
	"fmt"
	"repro/internal/obs"
	"testing"
)

// fill inserts n completed entries key0..key{n-1} of size bytes each.
func fill(t *testing.T, l *lru[int], n int, bytes int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%d", i)
		s, how := l.lookup(key)
		if how != miss {
			t.Fatalf("%s already present", key)
		}
		l.complete(s, i, bytes)
	}
}

// present reports whether key is cached (without installing a slot the
// way lookup would).
func present(l *lru[int], key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.index[key]
	return ok
}

func TestLRUEntryCapEvictsOldestFirst(t *testing.T) {
	var ev obs.Counter
	l := newLRU[int](3, 1<<20, &ev)
	fill(t, l, 3, 10)

	// Touch key0 so key1 becomes the LRU victim.
	if s, how := l.lookup("key0"); how != hit || s.res != 0 {
		t.Fatal("key0 should be a completed hit")
	}
	s, how := l.lookup("key3")
	if how != miss {
		t.Fatal("key3 should be new")
	}
	l.complete(s, 3, 10)

	if ev.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", ev.Load())
	}
	if present(l, "key1") {
		t.Fatal("key1 (LRU) survived past the entry cap")
	}
	for _, k := range []string{"key0", "key2", "key3"} {
		if !present(l, k) {
			t.Fatalf("%s evicted out of LRU order", k)
		}
	}
	if n, b := l.stats(); n != 3 || b != 30 {
		t.Fatalf("stats = (%d, %d), want (3, 30)", n, b)
	}
}

func TestLRUByteCapEvicts(t *testing.T) {
	var ev obs.Counter
	l := newLRU[int](1000, 100, &ev)
	fill(t, l, 5, 30) // 150 bytes demanded, 100 allowed
	if _, b := l.stats(); b > 100 {
		t.Fatalf("bytes = %d over the 100-byte cap", b)
	}
	if ev.Load() != 2 {
		t.Fatalf("evictions = %d, want 2", ev.Load())
	}
	if present(l, "key0") || present(l, "key1") {
		t.Fatal("oldest entries survived the byte cap")
	}
}

func TestLRUInFlightSlotIsPinned(t *testing.T) {
	var ev obs.Counter
	l := newLRU[int](2, 1<<20, &ev)
	inflight, how := l.lookup("inflight")
	if how != miss {
		t.Fatal("fresh key not owned")
	}
	// Storm past the cap while the slot is still executing.
	fill(t, l, 10, 1)
	if !present(l, "inflight") {
		t.Fatal("in-flight slot was evicted")
	}
	// A waiter arriving now still joins the same execution.
	s2, how2 := l.lookup("inflight")
	if how2 != coalesced || s2 != inflight {
		t.Fatalf("waiter got outcome %d, same slot %v", how2, s2 == inflight)
	}
	l.complete(inflight, 42, 1)
	<-s2.done
	if s2.res != 42 {
		t.Fatalf("waiter read %d, want the owner's 42", s2.res)
	}
	if n, _ := l.stats(); n > 2 {
		t.Fatalf("completed entries = %d over cap 2", n)
	}
}

func TestLRUOversizedEntryIsNotRetained(t *testing.T) {
	var ev obs.Counter
	l := newLRU[int](10, 100, &ev)
	fill(t, l, 2, 10)
	s, _ := l.lookup("huge")
	l.complete(s, 0, 1000)
	// An artifact alone bigger than the cap cannot stay; trimming also
	// takes the older entries below it in LRU order.
	if present(l, "huge") {
		t.Fatal("entry larger than the byte cap was retained")
	}
	if _, b := l.stats(); b > 100 {
		t.Fatalf("bytes = %d over cap", b)
	}
}

// TestLRUGrowKeepsTheLedgerExact: grow charges the slot it is handed and
// only while the cache still retains it — an evicted slot, or a new slot
// that took over the evicted one's key, is never charged for it.
func TestLRUGrowKeepsTheLedgerExact(t *testing.T) {
	var ev obs.Counter
	l := newLRU[int](2, 100, &ev)
	fill(t, l, 2, 10)
	old, _ := l.lookup("key0")
	l.grow(old, 5)
	if _, b := l.stats(); b != 25 {
		t.Fatalf("bytes after grow = %d, want 25", b)
	}
	// key1 is now least recently used; two more entries push both out.
	for _, k := range []string{"a", "b"} {
		s, _ := l.lookup(k)
		l.complete(s, 0, 10)
	}
	if present(l, "key0") {
		t.Fatal("key0 survived the entry cap")
	}
	l.grow(old, 1000) // evicted: not retained, nothing to account
	if n, b := l.stats(); n != 2 || b != 20 {
		t.Fatalf("stats after growing an evicted slot = (%d, %d), want (2, 20)", n, b)
	}
	again, how := l.lookup("key0")
	if how != miss {
		t.Fatal("evicted key should be new again")
	}
	l.complete(again, 0, 10)
	l.grow(old, 1000) // same key, different slot
	if _, b := l.stats(); b != 20 {
		t.Fatalf("bytes = %d: a stale slot was charged to its successor", b)
	}
	// A grow past the byte cap evicts like any other charge.
	l.grow(again, 95)
	if _, b := l.stats(); b > 100 || b < 0 {
		t.Fatalf("bytes = %d outside [0, cap] after an oversized grow", b)
	}
}
