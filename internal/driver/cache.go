// Bounded in-memory caching for the driver: an LRU over singleflight
// slots with caps on both entry count and approximate bytes, and the
// once-only product a cached value computes lazily. The original driver
// kept plain maps that grew without bound — every distinct source text
// ever compiled (including failed compiles) was retained for the life
// of the process. Under sustained traffic from many users that is an
// OOM with extra steps; the LRU makes the memory ceiling a
// configuration knob instead.
//
// Concurrency contract: an in-flight slot (whose owner has not called
// complete) is pinned — it is never evicted, so waiters blocked on
// slot.done always observe the result. Only completed slots
// participate in eviction, and a waiter that already holds an evicted
// slot keeps reading it: eviction only stops the cache from retaining
// the value.
package driver

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// outcome says how one cached derivation was served.
type outcome int

const (
	miss      outcome = iota // the caller computes: it owns the slot or product
	coalesced                // joined an identical in-flight computation
	hit                      // the value was already complete
)

// tally names the counters one cached derivation reports into. A nil
// coalesced counter leaves joins uncounted.
type tally struct{ hit, coalesced, miss *obs.Counter }

func (t tally) count(o outcome) {
	switch {
	case o == hit:
		t.hit.Add(1)
	case o == miss:
		t.miss.Add(1)
	case t.coalesced != nil:
		t.coalesced.Add(1)
	}
}

// slot is one LRU node and singleflight cell. The owner (the lookup
// that got miss) hands its result to complete, which closes done;
// everyone else reads res after done. The remaining fields belong to
// the lru and are guarded by its mutex.
type slot[V any] struct {
	key  string
	done chan struct{}
	res  V

	prev, next *slot[V]
	bytes      int64
	completed  bool // evictable; in-flight slots are pinned
}

// lru bounds a singleflight map by entry count and approximate bytes.
// The zero value is not usable; call newLRU.
type lru[V any] struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	root       slot[V] // list sentinel: root.next is most recently used
	index      map[string]*slot[V]
	bytes      int64
	completed  int          // completed slots; in-flight ones are not counted
	evictions  *obs.Counter // driver metrics
}

func newLRU[V any](maxEntries int, maxBytes int64, evictions *obs.Counter) *lru[V] {
	l := &lru[V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		index:      map[string]*slot[V]{},
		evictions:  evictions,
	}
	l.root.prev, l.root.next = &l.root, &l.root
	return l
}

func (l *lru[V]) pushFront(s *slot[V]) {
	s.prev, s.next = &l.root, l.root.next
	s.prev.next, s.next.prev = s, s
}

func (l *lru[V]) unlink(s *slot[V]) {
	s.prev.next, s.next.prev = s.next, s.prev
}

// lookup finds or installs the slot for key. On miss the caller owns
// the slot and must call complete; otherwise it waits on done, and the
// outcome tells a completed value (hit) from an execution still in
// flight (coalesced). Either way the slot becomes most recently used.
func (l *lru[V]) lookup(key string) (*slot[V], outcome) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s, ok := l.index[key]; ok {
		l.unlink(s)
		l.pushFront(s)
		if s.completed {
			return s, hit
		}
		return s, coalesced
	}
	s := &slot[V]{key: key, done: make(chan struct{})}
	l.index[key] = s
	l.pushFront(s)
	return s, miss
}

// complete publishes the owner's result: waiters are released, the slot
// becomes evictable and is charged bytes, and the cache is trimmed back
// under its caps.
func (l *lru[V]) complete(s *slot[V], res V, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.completeLocked(s, res, bytes)
}

func (l *lru[V]) completeLocked(s *slot[V], res V, bytes int64) {
	s.res = res
	close(s.done)
	s.completed = true
	s.bytes = bytes
	l.bytes += bytes
	l.completed++
	l.trimLocked()
}

// grow charges a completed slot delta more bytes (a product landed on
// its value). A slot evicted in the meantime is left alone: it is no
// longer retained, so there is nothing to account.
func (l *lru[V]) grow(s *slot[V], delta int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.index[s.key] != s {
		return
	}
	s.bytes += delta
	l.bytes += delta
	l.trimLocked()
}

// trimLocked evicts completed slots, least recently used first, until
// both caps hold. In-flight slots are skipped: they hold no accounted
// bytes and must stay reachable for their waiters.
func (l *lru[V]) trimLocked() {
	s := l.root.prev
	for s != &l.root && (l.completed > l.maxEntries || l.bytes > l.maxBytes) {
		prev := s.prev
		if s.completed {
			l.bytes -= s.bytes
			l.completed--
			l.unlink(s)
			delete(l.index, s.key)
			l.evictions.Add(1)
		}
		s = prev
	}
}

// peek returns the completed result stored under key without
// installing a slot, promoting the entry, or blocking on an in-flight
// execution. Fleet artifact export uses it: a peer asking "do you have
// this?" must never create a slot it will not fill.
func (l *lru[V]) peek(key string) (res V, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s, found := l.index[key]; found && s.completed {
		return s.res, true
	}
	return res, false
}

// install puts an already-completed result under key if no slot exists
// yet, reporting whether it was installed. An existing entry — complete
// or in flight — wins: a peer-imported artifact never replaces a local
// result or races an execution already under way.
func (l *lru[V]) install(key string, res V, bytes int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.index[key]; ok {
		return false
	}
	s := &slot[V]{key: key, done: make(chan struct{})}
	l.index[key] = s
	l.pushFront(s)
	l.completeLocked(s, res, bytes)
	return true
}

// stats reports the completed-entry count and accounted bytes.
func (l *lru[V]) stats() (entries int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.completed, l.bytes
}

// product is a value derived from a cached one on first demand and at
// most once; callers that arrive while it is being computed wait for
// it. It is computed outside every cache lock, and lives and dies with
// the value that holds it.
type product[V any] struct {
	once sync.Once
	done atomic.Bool
	val  V
}

// get returns the product, running compute if this is the first call.
func (p *product[V]) get(compute func() V) (V, outcome) {
	if p.done.Load() {
		return p.val, hit
	}
	how := coalesced
	p.once.Do(func() {
		p.val = compute()
		p.done.Store(true)
		how = miss
	})
	return p.val, how
}
