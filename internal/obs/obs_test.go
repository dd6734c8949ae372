package obs

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// Counters are bumped from every request goroutine at once; run under
// -race this is also the proof that Add, Load and the marshaller share
// nothing unsynchronised.
func TestCounterConcurrentAdd(t *testing.T) {
	const workers, each = 8, 5000
	var c Counter
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < each; k++ {
				c.Add(1)
				h.Observe(time.Duration(k) * time.Microsecond)
				if k%1000 == 0 {
					if _, err := json.Marshal(&c); err != nil {
						t.Error(err)
					}
					h.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if c.Load() != workers*each || h.Snapshot().Count != workers*each {
		t.Fatalf("counter %d, histogram %d, want %d", c.Load(), h.Snapshot().Count, workers*each)
	}
}

// The buckets are the distribution's rank at every bound: the number of
// observations at or under a bound is the sorted sample's, so a
// quantile read off /metrics brackets the sample's own.
func TestHistogramRanksMatchSortedSample(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h Histogram
	us := make([]int64, 20000)
	var sumNS int64
	for k := range us {
		// Log-uniform from under the first bound to over the last one,
		// and the bounds themselves (inclusive).
		d := time.Duration(float64(time.Microsecond) * float64(int64(1)<<r.Intn(27)) * (1 + r.Float64()))
		if k < len(histBoundsUS) {
			d = time.Duration(histBoundsUS[k]) * time.Microsecond
		}
		h.Observe(d)
		us[k] = d.Microseconds()
		sumNS += int64(d)
	}
	sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
	s := h.Snapshot()
	if want := float64(sumNS) / float64(len(us)) / 1e3; s.Count != int64(len(us)) || s.MeanUS != want {
		t.Fatalf("count %d mean %v, want %d and %v", s.Count, s.MeanUS, len(us), want)
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		rank := int64(len(us)) // the +Inf bucket
		if b.LeUS != 0 {
			rank = int64(sort.Search(len(us), func(i int) bool { return us[i] > b.LeUS }))
		}
		if cum != rank {
			t.Errorf("%d observations at or under %d us, the sorted sample has %d", cum, b.LeUS, rank)
		}
	}
	if cum != s.Count || s.Buckets[len(s.Buckets)-1].LeUS != 0 {
		t.Errorf("buckets hold %d of %d observations, last bound %d: the +Inf bucket is missing", cum, s.Count, s.Buckets[len(s.Buckets)-1].LeUS)
	}
}

// The JSON a /metrics document is made of: a counter is a bare number
// that reads back, a histogram its snapshot with empty buckets elided and
// the +Inf bucket without a bound.
func TestMetricsJSONShape(t *testing.T) {
	var doc struct {
		Hits    Counter   `json:"hits"`
		Latency Histogram `json:"latency"`
		Idle    Histogram `json:"idle"`
	}
	doc.Hits.Add(41)
	doc.Latency.Observe(80 * time.Microsecond)
	doc.Latency.Observe(120 * time.Microsecond)
	doc.Latency.Observe(time.Minute)
	got, err := json.Marshal(&doc)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"hits":41,"latency":{"count":3,"mean_us":20000066.666666668,"buckets":[{"le_us":100,"count":1},{"le_us":250,"count":1},{"count":1}]},"idle":{"count":0,"mean_us":0}}`
	if string(got) != want {
		t.Errorf("document\n got %s\nwant %s", got, want)
	}
	var back struct {
		Hits Counter `json:"hits"`
	}
	if err := json.Unmarshal(got, &back); err != nil || back.Hits.Load() != 41 {
		t.Errorf("the counter read back as %d, %v", back.Hits.Load(), err)
	}
}

// A histogram's JSON reads back as the snapshot it was made from: a
// scraper needs no type of its own. An observation on a bound belongs to
// that bound's bucket and one a microsecond over to the next; a
// histogram nothing was observed in has no buckets at all.
func TestHistogramSnapshotRoundTrip(t *testing.T) {
	var h, idle Histogram
	h.Observe(100 * time.Microsecond)
	h.Observe(101 * time.Microsecond)
	h.Observe(0)
	for _, tc := range []struct {
		h    *Histogram
		want []BucketSnapshot
	}{
		{&h, []BucketSnapshot{{LeUS: 50, Count: 1}, {LeUS: 100, Count: 1}, {LeUS: 250, Count: 1}}},
		{&idle, nil},
	} {
		raw, err := json.Marshal(tc.h)
		if err != nil {
			t.Fatal(err)
		}
		var back HistogramSnapshot
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		if !reflect.DeepEqual(back, tc.h.Snapshot()) || !reflect.DeepEqual(back.Buckets, tc.want) {
			t.Errorf("%s read back as %+v, the snapshot is %+v and the buckets should be %+v", raw, back, tc.h.Snapshot(), tc.want)
		}
	}
}
