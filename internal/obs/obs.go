// Package obs holds the service's observability primitives: lock-free
// counters and fixed-bucket latency histograms built on sync/atomic
// only. Both marshal as their /metrics JSON, so a struct of them with
// json tags is at once the live state and the document — a counter is
// declared once.
package obs

import (
	"encoding/json"
	"sync/atomic"
	"time"
)

// Counter is an atomic.Int64 (Add, Load, Store) that marshals and
// unmarshals as a JSON number. Counters and gauges both use it.
type Counter struct{ atomic.Int64 }

func (c *Counter) MarshalJSON() ([]byte, error) { return json.Marshal(c.Load()) }

func (c *Counter) UnmarshalJSON(b []byte) error {
	var n int64
	err := json.Unmarshal(b, &n)
	c.Store(n)
	return err
}

// histBoundsUS are the upper bounds (inclusive, in microseconds) of the
// latency histogram buckets; a final implicit +Inf bucket catches the
// rest. The range spans a warm cache hit (~µs) to a cold full
// compile (~ms) to a long interpreter run (~s).
var histBoundsUS = [...]int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
	1_000_000, 5_000_000, 30_000_000,
}

// Histogram is a fixed-bucket latency histogram safe for concurrent
// observation. It marshals as its HistogramSnapshot.
type Histogram struct {
	buckets [len(histBoundsUS) + 1]atomic.Int64
	count   atomic.Int64
	sumNS   atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	i := 0
	for i < len(histBoundsUS) && us > histBoundsUS[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(d))
}

// HistogramSnapshot is a point-in-time JSON-friendly view.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	MeanUS  float64          `json:"mean_us"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one non-empty histogram bucket; LeUS is the bucket's
// inclusive upper bound in microseconds (0 marks the +Inf bucket).
type BucketSnapshot struct {
	LeUS  int64 `json:"le_us,omitempty"`
	Count int64 `json:"count"`
}

// Snapshot captures the histogram's current state. Empty buckets are
// elided to keep /metrics output small.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load()}
	if s.Count > 0 {
		s.MeanUS = float64(h.sumNS.Load()) / float64(s.Count) / 1e3
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		b := BucketSnapshot{Count: n}
		if i < len(histBoundsUS) {
			b.LeUS = histBoundsUS[i]
		}
		s.Buckets = append(s.Buckets, b)
	}
	return s
}

func (h *Histogram) MarshalJSON() ([]byte, error) { return json.Marshal(h.Snapshot()) }
