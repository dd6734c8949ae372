package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a small share of a busy machine,
// and for minutes at a time it hands out slower CPU-seconds: the same
// binary on the same seed ran compute_serial at 61 and at 90 ops/s a
// quarter of an hour apart with no steal recorded, and every workload
// rose and fell with it. No rule applied inside one run sees that, so
// the window times a fixed piece of work beside the workload, ten times
// a second in its thread's own CPU time, and the timing metrics are
// scaled to the speed the host showed on it (README, "Host speed").

// refNominalMS is the reference task's CPU time on this class of host
// in a quiet hour (the median over two rounds of forty runs; beside each
// of the four workloads it read 2.24-2.34). A slice's host speed is
// refNominalMS over the median of its reference times: 1 on the quiet
// host, 0.8 when CPU-seconds are a fifth slower.
const refNominalMS = 2.25

// refPerSlice is how often the reference task runs in a slice.
const refPerSlice = 10

// A refTask is the reference work: a walk along one cycle through half
// a megabyte (cache and memory latency), a sort and map updates
// (branches, hashing), and a clear and two copies of two megabytes
// (memory bandwidth). It allocates nothing once built, so the
// collector's pacing, which belongs to the workload, stays out of it.
type refTask struct {
	next      []int32
	ints, tmp []int
	counts    map[int]int
	a, b      []byte
	sink      int
}

func newRefTask() *refTask {
	r := &refTask{
		next: make([]int32, 1<<17), ints: make([]int, 4096), tmp: make([]int, 4096),
		counts: make(map[int]int, 4096), a: make([]byte, 2<<20), b: make([]byte, 2<<20),
	}
	for i := range r.next {
		r.next[i] = int32(i)
	}
	rng := newRNG(1, 1)
	for i := len(r.next) - 1; i > 0; i-- { // Sattolo: one cycle through all of next
		j := rng.intn(i)
		r.next[i], r.next[j] = r.next[j], r.next[i]
	}
	for i := range r.ints {
		r.ints[i] = rng.intn(1 << 30)
		r.counts[r.ints[i]&4095] = i
	}
	return r
}

// run performs the work once and returns the CPU time its thread spent
// on it, in ms.
func (r *refTask) run() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := cpuClock(clockThread)
	k := int32(0)
	for i := 0; i < 20000; i++ {
		k = r.next[k]
	}
	copy(r.tmp, r.ints)
	sort.Ints(r.tmp)
	for _, v := range r.ints {
		r.counts[v&4095] += v
	}
	clear(r.a)
	copy(r.b, r.a)
	copy(r.a, r.b)
	r.sink += int(k) + r.tmp[7] + int(r.b[9])
	return float64(cpuClock(clockThread)-t0) / 1e6
}

// The kernel's CPU-time clocks, exact to the nanosecond where
// getrusage moves by scheduler ticks.
const (
	clockProcess = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThread  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
