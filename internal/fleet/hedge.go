// Hedging support: the router keeps a sliding window of observed
// forward latencies and fires a second copy of a request to the next
// shard on the ring once the first has been outstanding longer than
// the window's p99. The first response wins; the loser is cancelled.
// This converts a stuck or GC-pausing shard's tail into one extra
// (declared, counted) request instead of a slow client — the classic
// "tied requests" tail-tolerance move, tuned so only the slowest ~1%
// of requests ever hedge.
package fleet

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

const (
	latencyWindowSize = 256
	// p99RefreshEvery paces the sort: every forward reads the p99, so
	// it is recomputed by the writer once per this many samples (on
	// every sample while the window is still shorter than that) and
	// read with one atomic load.
	p99RefreshEvery = 32
)

// latencyWindow is a fixed-size ring of recent request latencies with
// a p99 view. Writers are request goroutines.
type latencyWindow struct {
	mu      sync.Mutex
	samples [latencyWindowSize]time.Duration // ring storage
	seen    int                              // observations so far; the ring holds the last min(seen, size)
	p99     atomic.Int64                     // of the window as of the last refresh, in ns; 0 = empty
}

// Observe records one successful forward's latency.
func (w *latencyWindow) Observe(d time.Duration) {
	w.mu.Lock()
	w.samples[w.seen%latencyWindowSize] = d
	w.seen++
	if w.seen < p99RefreshEvery || w.seen%p99RefreshEvery == 0 {
		sorted := w.samples
		s := sorted[:min(w.seen, latencyWindowSize)]
		slices.Sort(s)
		w.p99.Store(int64(s[max(len(s)*99/100-1, 0)]))
	}
	w.mu.Unlock()
}

// hedgeDelay derives the router's current hedge trigger: the p99 of
// recent forwards, clamped to [min, max]. Before any traffic exists
// the window is empty and min applies — conservative, so a cold
// router does not hedge everything it sees.
func hedgeDelay(w *latencyWindow, min, max time.Duration) time.Duration {
	d := time.Duration(w.p99.Load())
	if d < min {
		d = min
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}
