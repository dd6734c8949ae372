package par

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestParallelForCoversRange(t *testing.T) {
	p := NewPool(4)
	const n = 1000
	var hits [n]atomic.Int32
	p.ParallelFor(0, n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d executed %d times", i, hits[i].Load())
		}
	}
}

func TestParallelForEmptyAndSingle(t *testing.T) {
	p := NewPool(3)
	ran := 0
	p.ParallelFor(5, 5, func(i int) { ran++ })
	if ran != 0 {
		t.Error("empty range should not run")
	}
	p.ParallelFor(7, 8, func(i int) {
		if i != 7 {
			t.Errorf("i = %d", i)
		}
		ran++
	})
	if ran != 1 {
		t.Error("single-element range should run once inline")
	}
}

func TestPoolReuse(t *testing.T) {
	p := NewPool(2)
	var total atomic.Int64
	for round := 0; round < 50; round++ {
		p.ParallelFor(0, 100, func(i int) { total.Add(1) })
	}
	if total.Load() != 5000 {
		t.Errorf("total = %d, want 5000", total.Load())
	}
}

func TestParallelReduce(t *testing.T) {
	p := NewPool(4)
	sum := p.ParallelReduce(0, 1000, 0,
		func(i int) float64 { return float64(i) },
		func(a, b float64) float64 { return a + b })
	if sum != 499500 {
		t.Errorf("sum = %v, want 499500", sum)
	}
	mx := p.ParallelReduce(0, 257, -1e18,
		func(i int) float64 { return float64((i * 7919) % 257) },
		func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		})
	if mx != 256 {
		t.Errorf("max = %v, want 256", mx)
	}
}

func TestReduceEmpty(t *testing.T) {
	p := NewPool(2)
	got := p.ParallelReduce(3, 3, 42, func(i int) float64 { return 0 },
		func(a, b float64) float64 { return a + b })
	if got != 42 {
		t.Errorf("empty reduce = %v, want identity", got)
	}
}

func TestWorkersCount(t *testing.T) {
	p := NewPool(6)
	if p.Workers() != 6 {
		t.Errorf("Workers = %d", p.Workers())
	}
	q := NewPool(0)
	if q.Workers() < 1 {
		t.Error("default pool must have at least one worker")
	}
	// Negative counts must not construct an empty (deadlocking) pool.
	r := NewPool(-4)
	if r.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("NewPool(-4).Workers() = %d, want GOMAXPROCS", r.Workers())
	}
}

func TestNaiveSpawnCoversRange(t *testing.T) {
	const n = 500
	var hits [n]atomic.Int32
	NaiveSpawn(4, 0, n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d executed %d times", i, hits[i].Load())
		}
	}
}

// Property: pool reduction equals sequential reduction for random
// ranges and worker counts.
func TestQuickReduceMatchesSequential(t *testing.T) {
	p := NewPool(3)
	f := func(seed int64, nU uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nU % 500)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(r.Intn(100))
		}
		want := 0.0
		for _, v := range vals {
			want += v
		}
		got := p.ParallelReduce(0, n, 0,
			func(i int) float64 { return vals[i] },
			func(a, b float64) float64 { return a + b })
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
