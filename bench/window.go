package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sliceLen is the length of one slice of the timed window. The window
// is -seconds slices long; timing metrics use the fastest quarter.
const sliceLen = time.Second

// rampLen is how long the clients run before the window opens. Set-up
// warms with one caller performing each class once; the first second
// at the full client count still ran at a third to a half of the steady
// rate (connections opened, pools refilled after the forced collection,
// the heap growing to its working size), so that second is run and not
// counted. It belongs to measuring, not to set-up.
const rampLen = time.Second

// keptShare is the share of the slices the timing metrics are taken
// from: the fastest quarter (README, "The quiet-slice rule").
const keptShare = 0.25

// disturbedAbove is the steal share of the kept slices above which a
// run is flagged disturbed: to be re-run, not compared. The issue
// proposed 0.05; on this host a kept share of 0.03 already came with a
// run 30 % slow (the neighbour that steals also shares caches), and
// quiet runs read 0.000-0.005.
const disturbedAbove = 0.02

// A workload is a closed loop of ops over a seeded stream: clients
// goroutines each take the next stream index and call do, which builds
// that op's input, performs it, checks the output, and returns the
// op's class with the time from send to checked response.
type workload struct {
	name    string
	classes []string
	clients int
	do      func(i int64) (class int, start time.Time, lat time.Duration, err error)
	// counters reads the layers' own cumulative counters (the /metrics
	// documents, flattened); the window reports their deltas.
	counters func() map[string]float64
	// gauges are sampled at every slice boundary and reported as the
	// maximum seen (queue depths).
	gauges func() map[string]float64

	next atomic.Int64 // next stream index
}

type sample struct {
	class      int
	start, end int64 // ns since window start
	err        error
}

// sliceStat is one slice of the window as result.json shows it.
type sliceStat struct {
	StartS     float64 `json:"start_s"`
	EndS       float64 `json:"end_s"`
	Ops        int     `json:"ops"`
	CPUMS      float64 `json:"cpu_ms"`
	StealShare float64 `json:"steal_share"`
	HostSpeed  float64 `json:"host_speed"` // refNominalMS / median reference time, over the slice and its neighbours
	Kept       bool    `json:"kept"`
}

type classStat struct {
	MedianMS float64 `json:"median_ms"`
	Samples  int     `json:"samples"`
}

type windowResult struct {
	Attempted, Failed int
	FirstErr          string
	Slices            []sliceStat
	Classes           map[string]classStat
	EndToEnd          map[string]float64
	Client            map[string]float64 // client.* and env.* rows
	Counters          map[string]float64 // counter deltas and gauge maxima
	CountersEnd       map[string]float64 // the counters as they stood after the window
	Disturbed         bool
}

// cpuTimes reads the host's cumulative steal and total jiffies from
// the first line of /proc/stat; zeros where there is no such file.
func cpuTimes() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already inside user and nice.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// keptSlices is how many of n slices are kept: keptShare of them,
// rounded up.
func keptSlices(n int) int {
	return int(math.Ceil(float64(n) * keptShare))
}

// quietSlices marks the keep slices in which the most ops completed
// (of equals, the earlier). What disturbs a run on a shared host only
// ever slows it, and mostly without showing as steal (README, "The
// quiet-slice rule"), so the slices the host left alone are the fast
// ones; a slice that lost cycles to steal is slow as well.
func quietSlices(rate []float64, keep int) []bool {
	order := make([]int, len(rate))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rate[order[a]] > rate[order[b]] })
	kept := make([]bool, len(rate))
	for _, i := range order[:max(0, min(keep, len(order)))] {
		kept[i] = true
	}
	return kept
}

type boundary struct {
	at           int64 // ns since window start
	cpu          time.Duration
	steal, total float64
	// The reference task's runs in the slice this boundary closes:
	// their CPU times in ms (none: the host counts as nominal).
	ref []float64
}

// hostSpeed is the speed the host showed on the reference task: 1 on
// the quiet host the nominal time was taken on, less when its
// CPU-seconds are slower.
func hostSpeed(refMS []float64) float64 {
	if len(refMS) == 0 {
		return 1
	}
	return refNominalMS / median(refMS)
}

// runWindow runs w closed-loop for rampLen uncounted and then for
// seconds slices with tracing off, and computes the end-to-end metrics
// from the fastest quarter of the slices. An op that ended during the
// ramp is performed and checked but not counted, unless it failed.
func runWindow(w *workload, seconds int) *windowResult {
	ref := newRefTask()
	runtime.GC()
	gaugeMax := map[string]float64{}

	t0 := time.Now().Add(rampLen)
	deadline := t0.Add(time.Duration(seconds) * sliceLen)
	mark := func() boundary {
		s, t := cpuTimes()
		return boundary{at: int64(time.Since(t0)), cpu: cpuClock(clockProcess), steal: s, total: t}
	}

	perClient := make([][]sample, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]sample, 0, 1<<14)
			for time.Now().Before(deadline) {
				class, start, lat, err := w.do(w.next.Add(1) - 1)
				s := int64(start.Sub(t0))
				if s+int64(lat) < 0 && err == nil {
					continue // ended during the ramp
				}
				out = append(out, sample{class: class, start: s, end: s + int64(lat), err: err})
			}
			perClient[c] = out
		}(c)
	}
	time.Sleep(time.Until(t0))
	bounds := []boundary{mark()}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := w.counters()
	for k := 1; k <= seconds; k++ {
		// The reference task runs at even steps inside the slice, on
		// this goroutine, beside the clients.
		var refMS []float64
		for j := 1; j <= refPerSlice; j++ {
			time.Sleep(time.Until(t0.Add(time.Duration(k-1)*sliceLen + time.Duration(j)*sliceLen/(refPerSlice+1))))
			refMS = append(refMS, ref.run())
		}
		time.Sleep(time.Until(t0.Add(time.Duration(k) * sliceLen)))
		b := mark()
		b.ref = refMS
		bounds = append(bounds, b)
		if w.gauges != nil && k < seconds {
			for name, v := range w.gauges() {
				gaugeMax[name] = max(gaugeMax[name], v)
			}
		}
	}
	wg.Wait()
	wall := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	c1 := w.counters()

	var samples []sample
	for _, s := range perClient {
		samples = append(samples, s...)
	}
	res := summarize(w.classes, samples, bounds)
	res.EndToEnd["alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(max(res.Attempted, 1))
	res.Client["client.ops_per_s_wall"] = float64(res.Attempted-res.Failed) / wall.Seconds()
	res.Counters, res.CountersEnd = gaugeMax, c1
	for name, v := range c1 {
		res.Counters[name] = v - c0[name]
	}
	return res
}

// summarize applies the quiet-slice rule: bounds cut the window into
// slices, the quarter in which the most ops completed is kept, and the
// timing metrics come from the kept slices only. An op belongs to the
// slice it ended in (one that ended before the first boundary or after
// the last to none); its latency counts iff it also started in a kept
// slice. Every time is scaled to the nominal host by the speed the host
// showed in the slice: a rate is divided by it, a latency or a CPU time
// multiplied; the slices are ranked by the scaled rate.
func summarize(classes []string, samples []sample, bounds []boundary) *windowResult {
	n := len(bounds) - 1
	sliceOf := func(at int64) int { // -1 outside the window
		i := sort.Search(n, func(i int) bool { return at < bounds[i+1].at })
		if i == n || at < bounds[0].at {
			return -1
		}
		return i
	}
	res := &windowResult{
		Attempted: len(samples),
		Classes:   map[string]classStat{},
		EndToEnd:  map[string]float64{},
		Client:    map[string]float64{},
	}
	// A slice's host speed is the median of its own reading and its
	// neighbours': one reading wanders by a few per cent from slice to
	// slice on a steady host, while the spells to be followed last longer.
	own := make([]float64, n)
	for i := range own {
		own[i] = hostSpeed(bounds[i+1].ref)
	}
	slices := make([]sliceStat, n)
	for i := range slices {
		a, b := bounds[i], bounds[i+1]
		slices[i] = sliceStat{StartS: float64(a.at) / 1e9, EndS: float64(b.at) / 1e9, CPUMS: float64(b.cpu-a.cpu) / 1e6, HostSpeed: median(own[max(0, i-1):min(n, i+2)])}
		for _, ms := range b.ref {
			slices[i].CPUMS -= ms // the reference task is not the workload's
		}
		if b.total > a.total {
			slices[i].StealShare = (b.steal - a.steal) / (b.total - a.total)
		}
	}
	for _, s := range samples {
		if s.err != nil {
			res.Failed++
			if res.FirstErr == "" {
				res.FirstErr = s.err.Error()
			}
		} else if e := sliceOf(s.end); e >= 0 {
			slices[e].Ops++
		}
	}
	rates := make([]float64, n)
	for i, s := range slices {
		rates[i] = float64(s.Ops) / (s.EndS - s.StartS) / s.HostSpeed
	}
	kept := quietSlices(rates, keptSlices(n))
	for i := range slices {
		slices[i].Kept = kept[i]
	}

	perClass := make([][]float64, len(classes))
	var all []float64
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		if b, e := sliceOf(s.start), sliceOf(s.end); b >= 0 && e >= 0 && kept[b] && kept[e] {
			ms := float64(s.end-s.start) / 1e6 * slices[e].HostSpeed
			perClass[s.class] = append(perClass[s.class], ms)
			all = append(all, ms)
		}
	}

	// Per-slice rates, reported as the median over the kept slices.
	var rate, cpuPerOp, speed []float64
	var keptSteal, keptTotal float64
	for i := range slices {
		if kept[i] {
			rate = append(rate, rates[i])
			cpuPerOp = append(cpuPerOp, slices[i].CPUMS/float64(max(slices[i].Ops, 1))*slices[i].HostSpeed)
			speed = append(speed, slices[i].HostSpeed)
			keptSteal += bounds[i+1].steal - bounds[i].steal
			keptTotal += bounds[i+1].total - bounds[i].total
		}
	}
	medians := make([]float64, 0, len(classes))
	for c, lat := range perClass {
		sort.Float64s(lat)
		m := percentile(lat, 50)
		res.Classes[classes[c]] = classStat{MedianMS: m, Samples: len(lat)}
		medians = append(medians, m)
	}
	sort.Float64s(all)
	share := func(part, whole float64) float64 {
		if whole <= 0 {
			return 0
		}
		return part / whole
	}
	res.EndToEnd["ops_per_s"] = median(rate)
	res.EndToEnd["op_ms_geomean"] = geomean(medians)
	res.EndToEnd["cpu_ms_per_op"] = median(cpuPerOp)
	res.EndToEnd["ok_share"] = share(float64(res.Attempted-res.Failed), float64(res.Attempted))
	res.Client["client.latency_p50_ms"] = percentile(all, 50)
	res.Client["client.latency_p99_ms"] = percentile(all, 99)
	res.Client["client.latency_max_ms"] = percentile(all, 100)
	res.Client["client.samples"] = float64(len(all))
	res.Client["env.steal_share"] = share(bounds[n].steal-bounds[0].steal, bounds[n].total-bounds[0].total)
	res.Client["env.steal_share_kept"] = share(keptSteal, keptTotal)
	res.Client["env.nproc"] = float64(runtime.NumCPU())
	res.Client["env.host_speed"] = median(speed)
	res.Disturbed = res.Client["env.steal_share_kept"] > disturbedAbove
	res.Slices = slices
	return res
}
