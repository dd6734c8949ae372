package fleet

import (
	"testing"
	"time"
)

const ms = time.Millisecond

func TestHedgeDelayEmptyWindowIsTheFloor(t *testing.T) {
	var w latencyWindow
	if got := hedgeDelay(&w, 20*ms, 2*time.Second); got != 20*ms {
		t.Fatalf("empty window: %v, want the 20ms floor", got)
	}
}

// While the window is short the p99 follows every sample; once it has
// p99RefreshEvery samples it is refreshed once per that many.
func TestLatencyWindowPartlyFilled(t *testing.T) {
	var w latencyWindow
	w.Observe(300 * ms)
	if got := hedgeDelay(&w, 20*ms, 2*time.Second); got != 300*ms {
		t.Fatalf("one sample: %v, want it back", got)
	}
	for i := 2; i <= 10; i++ {
		w.Observe(time.Duration(i) * ms)
	}
	// Ten samples {2..10, 300}ms: index 10*99/100-1 = 8 of the sorted
	// window, the second largest.
	if got := time.Duration(w.p99.Load()); got != 10*ms {
		t.Fatalf("ten samples: p99 %v, want 10ms", got)
	}
	for i := 11; i <= p99RefreshEvery; i++ {
		w.Observe(50 * ms)
	}
	at32 := time.Duration(w.p99.Load())
	if at32 != 50*ms {
		t.Fatalf("%d samples: p99 %v, want 50ms", p99RefreshEvery, at32)
	}
	for i := 1; i < p99RefreshEvery; i++ {
		w.Observe(900 * ms)
		if got := time.Duration(w.p99.Load()); got != at32 {
			t.Fatalf("sample %d after a refresh moved the p99 to %v", i, got)
		}
	}
	w.Observe(900 * ms)
	if got := time.Duration(w.p99.Load()); got != 900*ms {
		t.Fatalf("after %d more samples: p99 %v, want the refresh to see 900ms", p99RefreshEvery, got)
	}
}

// A wrapped ring holds only the last latencyWindowSize samples.
func TestLatencyWindowWrappedRingForgets(t *testing.T) {
	var w latencyWindow
	for i := 0; i < latencyWindowSize; i++ {
		w.Observe(time.Second)
	}
	if got := time.Duration(w.p99.Load()); got != time.Second {
		t.Fatalf("full window of 1s: p99 %v", got)
	}
	for i := 0; i < latencyWindowSize; i++ {
		w.Observe(5 * ms)
	}
	if got := time.Duration(w.p99.Load()); got != 5*ms {
		t.Fatalf("after overwriting every slot with 5ms: p99 %v", got)
	}
	// The p99 of 256 samples is index 256*99/100-1 = 252 of the sorted
	// window: three outliers sit above it, a fourth reaches it.
	for outliers, want := range map[int]time.Duration{3: 5 * ms, 4: time.Second} {
		for i := 0; i < latencyWindowSize; i++ {
			d := 5 * ms
			if i < outliers {
				d = time.Second
			}
			w.Observe(d)
		}
		if got := time.Duration(w.p99.Load()); got != want {
			t.Fatalf("%d outliers of 1s in the window: p99 %v, want %v", outliers, got, want)
		}
	}
}

func TestHedgeDelayClamps(t *testing.T) {
	var w latencyWindow
	w.Observe(5 * time.Second)
	if got := hedgeDelay(&w, 20*ms, 2*time.Second); got != 2*time.Second {
		t.Fatalf("p99 above the ceiling: %v, want 2s", got)
	}
	if got := hedgeDelay(&w, 20*ms, 0); got != 5*time.Second {
		t.Fatalf("no ceiling: %v, want the p99 itself", got)
	}
	var quick latencyWindow
	quick.Observe(ms)
	if got := hedgeDelay(&quick, 20*ms, 2*time.Second); got != 20*ms {
		t.Fatalf("p99 below the floor: %v, want 20ms", got)
	}
}
