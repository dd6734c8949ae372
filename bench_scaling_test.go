// The scaling ladder behind internal/par (ROADMAP item 1, SNIPPETS 3's
// method): seven fork-join designs, each one step from the one before,
// timed over the same seven kernels as speed-up and efficiency ×
// threads × size × block size (SNIPPETS 2's grid). Only the rung the
// data picked exists outside this file — the ladder calls it through
// par's public API, so that row is the production code — and the
// paper's spin pool (spinpool_test.go) is the second rung.
//
//	go test -run '^TestScalingLadder$' -scaling-out BENCH_scaling.json .
//	go test -run '^TestScalingSmoke$' -scaling-smoke .    # ci.sh, nproc >= 2
//
// The kernels are this file's own row bodies, shaped like the matrix
// package's inner loops, because a rung that is not par cannot be
// handed to matrix.Exec; the shipped rung is also timed through the
// real kernels and the language (shippedGrid, the bench module's
// par_grid with two kernels added), which is what the CI smoke checks.
package repro_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eddy"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/vm"
)

var (
	scalingOut   = flag.String("scaling-out", "", "run the scaling ladder and the shipped grid three times and write them to this file (BENCH_scaling.json)")
	scalingSmoke = flag.Bool("scaling-smoke", false, "run TestScalingSmoke: no above-grain row of the shipped grid may be slower on two threads than on one")
)

// forRange schedules body over the units [0, n); block is the claim
// size, read by the blocked rungs only.
type forRange func(n, block int, body func(lo, hi int))

// ladderRung is one fork-join design. start builds it for a worker
// count; stop releases whatever it keeps between constructs.
type ladderRung struct {
	name, what string
	blocked    bool
	start      func(workers int) (run forRange, stop func())
}

var ladderRungs = []ladderRung{
	{"sequential", "one goroutine, no runtime", false, func(int) (forRange, func()) {
		return func(n, _ int, body func(lo, hi int)) { body(0, n) }, func() {}
	}},
	{"spin_pool", "paper III-C, the parent's par: resident workers spin on a generation counter, the caller spins in the stop barrier, one static block a worker", false, func(workers int) (forRange, func()) {
		p := newSpinPool(workers)
		return func(n, _ int, body func(lo, hi int)) { p.forBlocks(n, body) }, p.shutdown
	}},
	{"parked_static", "resident helpers parked on a channel and woken per construct, the caller is worker 0, static blocks", false, startParked},
	{"spawn_static", "workers-1 goroutines per construct joined by a WaitGroup, the caller is worker 0, static blocks", false, func(workers int) (forRange, func()) {
		return func(n, _ int, body func(lo, hi int)) {
			forkJoin(workers, func(w int) {
				if lo, hi := staticBlock(n, w, workers); lo < hi {
					body(lo, hi)
				}
			})
		}, func() {}
	}},
	{"counter_grain1", "spawn + one shared counter handing out single units; the counter shares its cache line with the per-worker tallies (the contention / false-sharing rung)", false, func(workers int) (forRange, func()) {
		return func(n, _ int, body func(lo, hi int)) {
			var st struct {
				next  atomic.Int64
				tally [7]int64
			}
			forkJoin(workers, func(w int) {
				for {
					i := int(st.next.Add(1)) - 1
					if i >= n {
						return
					}
					st.tally[w%len(st.tally)]++
					body(i, i+1)
				}
			})
		}, func() {}
	}},
	{"counter_blocked", "spawn + shared counter handing out blocks: par.ParallelChunksCtx itself, the shipped rung", true, func(workers int) (forRange, func()) {
		p := par.NewPool(workers)
		return func(n, block int, body func(lo, hi int)) {
			_ = p.ParallelChunksCtx(context.Background(), n, block, func(lo, hi int) error {
				body(lo, hi)
				return nil
			})
		}, func() {}
	}},
	{"steal_blocked", "spawn + a range per worker, blocks popped from its front, the back half stolen by a worker that ran dry", true, func(workers int) (forRange, func()) {
		return func(n, block int, body func(lo, hi int)) { stealFor(workers, n, block, body) }, func() {}
	}},
}

// forkJoin is the caller-participating fork-join of the spawn rungs.
func forkJoin(workers int, share func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			share(w)
		}()
	}
	share(0)
	wg.Wait()
}

func startParked(workers int) (forRange, func()) {
	wake := make([]chan func(), workers-1)
	var wg sync.WaitGroup
	for k := range wake {
		wake[k] = make(chan func())
		go func() {
			for f := range wake[k] {
				f()
				wg.Done()
			}
		}()
	}
	run := func(n, _ int, body func(lo, hi int)) {
		share := func(w int) {
			if lo, hi := staticBlock(n, w, workers); lo < hi {
				body(lo, hi)
			}
		}
		wg.Add(workers - 1)
		for k := range wake {
			wake[k] <- func() { share(k + 1) }
		}
		share(0)
		wg.Wait()
	}
	return run, func() {
		for _, ch := range wake {
			close(ch)
		}
	}
}

// stealRange is one worker's remaining units, lo<<32 | hi in one word
// so owner and thieves settle by compare-and-swap, on a cache line of
// its own.
type stealRange struct {
	r atomic.Uint64
	_ [56]byte
}

func (s *stealRange) take(block int, back bool) (lo, hi int, ok bool) {
	for {
		v := s.r.Load()
		l, h := int(v>>32), int(uint32(v))
		if l >= h {
			return 0, 0, false
		}
		if !back { // the owner: one block off the front
			m := min(l+block, h)
			if s.r.CompareAndSwap(v, uint64(m)<<32|uint64(h)) {
				return l, m, true
			}
			continue
		}
		m := h - max(block, (h-l)/2/block*block) // a thief: the back half, in whole blocks
		if m = max(m, l); s.r.CompareAndSwap(v, uint64(l)<<32|uint64(m)) {
			return m, h, true
		}
	}
}

func stealFor(workers, n, block int, body func(lo, hi int)) {
	ranges := make([]stealRange, workers)
	for w := range ranges {
		lo, hi := staticBlock(n, w, workers)
		ranges[w].r.Store(uint64(lo)<<32 | uint64(hi))
	}
	forkJoin(workers, func(w int) {
		for {
			for {
				lo, hi, ok := ranges[w].take(block, false)
				if !ok {
					break
				}
				body(lo, hi)
			}
			stolen := false
			for v := 1; v < workers && !stolen; v++ {
				if lo, hi, ok := ranges[(w+v)%workers].take(block, true); ok {
					ranges[w].r.Store(uint64(lo)<<32 | uint64(hi))
					stolen = true
				}
			}
			if !stolen {
				return
			}
		}
	})
}

// The rungs are test code, but a rung that drops or repeats a unit
// would make its row of the ladder meaningless: every one of them must
// hand every unit out exactly once (ci.sh runs this under -race).
func TestLadderRungsVisitEachUnitOnce(t *testing.T) {
	for _, rung := range ladderRungs {
		for _, workers := range []int{2, 3, 5} {
			run, stop := rung.start(workers)
			for _, n := range []int{1, 7, 100, 1001} {
				for _, block := range []int{1, 5, 2000} {
					hits := make([]atomic.Int32, n)
					run(n, block, func(lo, hi int) {
						for i := lo; i < hi; i++ {
							hits[i].Add(1)
						}
					})
					for i := range hits {
						if h := hits[i].Load(); h != 1 {
							t.Fatalf("%s, %d workers, n=%d, block %d: unit %d handed out %d times", rung.name, workers, n, block, i, h)
						}
					}
				}
			}
			stop()
		}
	}
}

// ladderKernel builds, for a size, the unit count, the body over a
// unit range and the clearing checksum of the output it writes.
type ladderKernel struct {
	name  string
	sizes []int
	build func(n int) (units int, body func(lo, hi int), sum func() float64)
}

func ladderData(n int) []float64 {
	v := make([]float64, n)
	for k := range v {
		v[k] = float64(k%97)*0.25 + 1
	}
	return v
}

// sumOf returns the checksum of an output and clears it, so the next
// run has to write every cell again to reach the same sum.
func sumOf(v []float64) func() float64 {
	return func() float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		clear(v)
		return s
	}
}

var stripScratch = sync.Pool{New: func() any { return new([1024]float64) }}

var ladderKernels = []ladderKernel{
	{"matmul", []int{128, 256}, func(n int) (int, func(lo, hi int), func() float64) {
		a, b, c := ladderData(n*n), ladderData(n*n), make([]float64, n*n)
		return n, func(lo, hi int) { // the ikj row kernel
			for i := lo; i < hi; i++ {
				row := c[i*n : i*n+n]
				clear(row)
				for k := 0; k < n; k++ {
					aik, brow := a[i*n+k], b[k*n:k*n+n]
					for j, bv := range brow {
						row[j] += aik * bv
					}
				}
			}
		}, sumOf(c)
	}},
	{"transpose", []int{384, 768}, func(n int) (int, func(lo, hi int), func() float64) {
		const tile = 32
		src, dst := ladderData(n*n), make([]float64, n*n)
		return n / tile, func(lo, hi int) { // bands of 32 rows, tile by tile
			for i0 := lo * tile; i0 < hi*tile; i0 += tile {
				for j0 := 0; j0 < n; j0 += tile {
					for i := i0; i < i0+tile; i++ {
						for jx, v := range src[i*n+j0 : i*n+j0+tile] {
							dst[(j0+jx)*n+i] = v
						}
					}
				}
			}
		}, sumOf(dst)
	}},
	{"conv", []int{256, 512}, func(n int) (int, func(lo, hi int), func() float64) {
		src, dst := ladderData(n*n), make([]float64, n*n)
		k := [9]float64{1, 2, 1, 2, 4, 2, 1, 2, 1}
		return n, func(lo, hi int) { // 3x3, zero boundary
			for i := lo; i < hi; i++ {
				for j := 0; j < n; j++ {
					acc := 0.0
					for di := -1; di <= 1; di++ {
						for dj := -1; dj <= 1; dj++ {
							if y, x := i+di, j+dj; y >= 0 && y < n && x >= 0 && x < n {
								acc += k[(di+1)*3+dj+1] * src[y*n+x]
							}
						}
					}
					dst[i*n+j] = acc
				}
			}
		}, sumOf(dst)
	}},
	{"fold", []int{256, 512}, func(n int) (int, func(lo, hi int), func() float64) {
		u, rows := ladderData(n*n), make([]float64, n)
		return n, func(lo, hi int) { // a row of reads, one write: the finest unit on the ladder
			for i := lo; i < hi; i++ {
				acc := 0.0
				for _, v := range u[i*n : i*n+n] {
					acc += v
				}
				rows[i] = acc
			}
		}, sumOf(rows)
	}},
	{"genarray", []int{256, 512}, func(n int) (int, func(lo, hi int), func() float64) {
		u, next := ladderData(n*n), make([]float64, n*n)
		return n - 2, func(lo, hi int) { // one 5-point stencil step over the interior
			for i := lo + 1; i < hi+1; i++ {
				for j := 1; j < n-1; j++ {
					c := u[i*n+j]
					next[i*n+j] = c + 0.25*(u[(i-1)*n+j]+u[(i+1)*n+j]+u[i*n+j-1]+u[i*n+j+1]-4*c)
				}
			}
		}, sumOf(next)
	}},
	{"matrixmap_uneven", []int{480, 1920}, func(n int) (int, func(lo, hi int), func() float64) {
		// n series of 48 points; the first quarter costs 16x the rest (an
		// eddy field: the ocean cells do the work, the land cells none),
		// so one static block a worker leaves the others idle.
		const points = 48
		data, out := ladderData(n*points), make([]float64, n*points)
		return n, func(lo, hi int) {
			for s := lo; s < hi; s++ {
				passes := 4 + s%3
				if s < n/4 {
					passes *= 16
				}
				in, o := data[s*points:(s+1)*points], out[s*points:(s+1)*points]
				copy(o, in)
				for p := 0; p < passes; p++ {
					for k := 1; k < points-1; k++ {
						o[k] = 0.5*o[k] + 0.25*(o[k-1]+in[k+1])
					}
				}
			}
		}, sumOf(out)
	}},
	{"strip_rows", []int{256, 1024}, func(n int) (int, func(lo, hi int), func() float64) {
		// The strip engine's row grain: a*2 + b - a*0.5 a strip of 1024
		// cells at a time through a pooled scratch register.
		a, b, out := ladderData(n*n), ladderData(n*n), make([]float64, n*n)
		return n, func(lo, hi int) {
			reg := stripScratch.Get().(*[1024]float64)
			defer stripScratch.Put(reg)
			for i := lo; i < hi; i++ {
				for j0 := 0; j0 < n; j0 += len(reg) {
					w := min(len(reg), n-j0)
					ar, br, o := a[i*n+j0:][:w], b[i*n+j0:][:w], out[i*n+j0:][:w]
					for k, v := range ar {
						reg[k] = v * 2
					}
					for k, v := range br {
						reg[k] += v
					}
					for k, v := range ar {
						o[k] = reg[k] - v*0.5
					}
				}
			}
		}, sumOf(out)
	}},
}

// scalingRow is one cell of either grid. Block is the claim size in
// units and BlocksPerWorker the divisor it came from (blocked rungs
// only); CPUMS is process CPU time per construct, the column that
// tells a rung that is fast because it burns a second core waiting
// from one that is fast because it shares the work.
type scalingRow struct {
	Rung            string  `json:"rung,omitempty"`
	Kernel          string  `json:"kernel"`
	Size            int     `json:"size"`
	Threads         int     `json:"threads"`
	BlocksPerWorker int     `json:"blocks_per_worker,omitempty"`
	Block           int     `json:"block,omitempty"`
	MS              float64 `json:"ms"`
	CPUMS           float64 `json:"cpu_ms"`
	Speedup         float64 `json:"speedup"`
	Efficiency      float64 `json:"efficiency"`
	// CPURatio is cpu_ms over the Threads = 1 row's: what the speed-up
	// cost (shipped-grid rows only).
	CPURatio float64 `json:"cpu_ratio,omitempty"`
}

// timeCell times f (one construct, or one program run) reps times,
// each rep a batch long enough to be read off the clock, and returns
// the median wall and the mean CPU milliseconds per call.
func timeCell(reps int, f func()) (ms, cpuMS float64) {
	f() // warm: first-touch pages, the free list, the helpers' stacks
	batch := 1
	for t0 := time.Now(); ; batch *= 2 {
		for k := 0; k < batch; k++ {
			f()
		}
		if d := time.Since(t0); d > 2*time.Millisecond || batch >= 1024 {
			break
		}
		t0 = time.Now()
	}
	wall := make([]float64, reps)
	cpu0 := processCPU()
	for r := range wall {
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			f()
		}
		wall[r] = time.Since(t0).Seconds() * 1e3 / float64(batch)
	}
	cpuMS = float64(processCPU()-cpu0) / 1e6 / float64(reps*batch)
	sort.Float64s(wall)
	return wall[reps/2], cpuMS
}

// r4 rounds to four decimals: the file is read by people.
func r4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

var (
	scalingThreads  = []int{2, 4}
	blocksPerWorker = []int{1, 2, 4, 8, 16, 32}
)

// runLadder is one pass over rung × kernel × size × threads × block.
// Every rung must leave the checksum the sequential rung left.
func runLadder(t *testing.T) []scalingRow {
	var rows []scalingRow
	for _, k := range ladderKernels {
		for _, size := range k.sizes {
			units, body, sum := k.build(size)
			awaitTwoCPUs()
			var serial, want float64
			for _, rung := range ladderRungs {
				threads := scalingThreads
				if rung.name == "sequential" {
					threads = []int{1}
				}
				for _, th := range threads {
					run, stop := rung.start(th)
					divs := []int{0}
					if rung.blocked {
						divs = blocksPerWorker
					}
					for _, div := range divs {
						block := 0
						if div > 0 {
							block = max(1, units/(div*th))
						}
						ms, cpu := timeCell(7, func() { run(units, block, body) })
						sum()
						run(units, block, body)
						if got := sum(); rung.name == "sequential" {
							serial, want = ms, got
						} else if got != want {
							t.Errorf("%s on %s/%d at %d threads, block %d: checksum %v, sequential %v", rung.name, k.name, size, th, block, got, want)
						}
						rows = append(rows, scalingRow{rung.name, k.name, size, th, div, block, r4(ms), r4(cpu), r4(serial / ms), r4(serial / ms / float64(th)), 0})
					}
					stop()
				}
			}
		}
	}
	return rows
}

// Whole programs for the grid kernels that exist only as language
// constructs (the bench module's two, and a fused chain for the strip
// engine's row grain), each repeated so the construct outweighs
// building its input.
const (
	gridFoldSrc = `int main() {
	int n = %d;
	Matrix float <2> u;
	u = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 1.0 * ((i + 2 * j) %% 7));
	float s = 0.0;
	for (int r = 0; r < 4; r++) {
		float t = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, u[i, j]);
		s = s + t;
	}
	return 0;
}
`
	gridGenarraySrc = `int main() {
	int n = %d;
	Matrix float <2> u;
	u = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 1.0 * ((i + 2 * j) %% 7));
	for (int r = 0; r < 4; r++) {
		Matrix float <2> next;
		next = with ([1, 1] <= [i, j] < [n - 1, n - 1])
			genarray([n, n], u[i, j] + 0.25 * (u[i - 1, j] + u[i + 1, j] + u[i, j - 1] + u[i, j + 1] - 4.0 * u[i, j]));
		u = next;
	}
	return 0;
}
`
	gridChainRangeSrc = `int main() {
	int hi = %d - 1;
	float m = 0.75;
	float b = 1.5;
	for (int r = 0; r < 4; r++) {
		Matrix float <1> line;
		line = [0 :: hi] * m + b;
	}
	return 0;
}
`
	gridChainSrc = `int main() {
	int n = %d;
	Matrix float <2> a;
	Matrix float <2> b;
	a = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 1.0 * ((i + 2 * j) %% 7));
	b = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 0.5 * ((3 * i + j) %% 5));
	for (int r = 0; r < 4; r++) {
		Matrix float <2> c;
		c = a .* b + a - b * 0.5;
		a = c;
	}
	return 0;
}
`
)

// gridKernel is one row family of the shipped grid: run executes it
// once with the given thread count.
type gridKernel struct {
	name  string
	sizes []int
	reps  int
	build func(tb testing.TB, n int) (run func(threads int))
}

func gridDirect(f func(n int) func(x matrix.Exec) (*matrix.Matrix, error)) func(testing.TB, int) func(int) {
	return func(tb testing.TB, n int) func(int) {
		call := f(n)
		return func(threads int) {
			var x matrix.Exec
			if threads > 1 {
				x.Pool = par.NewPool(threads)
			}
			m, err := call(x)
			if err != nil {
				tb.Fatal(err) // fixed, valid shapes
			}
			m.Recycle()
		}
	}
}

func gridLanguage(src string) func(testing.TB, int) func(int) {
	return gridProgram(func(n int) (string, map[string]*matrix.Matrix) { return fmt.Sprintf(src, n), nil })
}

// gridProgram is a row family that is a program: its source and input
// files at size n.
func gridProgram(at func(n int) (string, map[string]*matrix.Matrix)) func(testing.TB, int) func(int) {
	return func(tb testing.TB, n int) func(int) {
		src, files := at(n)
		bp := compileBench(tb, src)
		return func(threads int) {
			it := interp.New(bp.prog, bp.info, interp.Options{Threads: threads, Stdout: io.Discard, Files: files})
			if _, err := vm.NewMachine(bp.vmp, it).Run(); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

var gridKernels = []gridKernel{
	{"matmul", []int{128, 256}, 9, gridDirect(func(n int) func(matrix.Exec) (*matrix.Matrix, error) {
		a, b := kb2Mat(matrix.Float, n, n), kb2Mat(matrix.Float, n, n)
		return func(x matrix.Exec) (*matrix.Matrix, error) { return matrix.MatMulExec(a, b, x) }
	})},
	{"transpose", []int{384, 768}, 9, gridDirect(func(n int) func(matrix.Exec) (*matrix.Matrix, error) {
		a := kb2Mat(matrix.Float, n, n)
		return func(x matrix.Exec) (*matrix.Matrix, error) { return matrix.TransposeExec(a, x) }
	})},
	{"conv", []int{256, 512}, 9, gridDirect(func(n int) func(matrix.Exec) (*matrix.Matrix, error) {
		a, k3 := kb2Mat(matrix.Float, n, n), kb2Mat(matrix.Float, 3, 3)
		return func(x matrix.Exec) (*matrix.Matrix, error) { return matrix.Conv2DExec(a, k3, x) }
	})},
	{"fold", []int{256, 512}, 5, gridLanguage(gridFoldSrc)},
	{"genarray", []int{256, 512}, 5, gridLanguage(gridGenarraySrc)},
	{"matrixmap_uneven", []int{480, 1920}, 5, gridDirect(func(n int) func(matrix.Exec) (*matrix.Matrix, error) {
		// matrixMap over n series of 48 points; the first quarter of
		// them, marked by a negative head, do 16x the work (see the
		// ladder kernel of the same name).
		m := kb2Mat(matrix.Float, n, 48)
		for s := 0; s < n/4; s++ {
			m.Floats()[s*48] = -1
		}
		return func(x matrix.Exec) (*matrix.Matrix, error) {
			return matrix.MatrixMapExec(m, []int{1}, matrix.Float, false, func(sub *matrix.Matrix, store func(*matrix.Matrix) error) error {
				out := matrix.New(matrix.Float, 48)
				in, o := sub.Floats(), out.Floats()
				copy(o, in)
				passes := 4
				if in[0] < 0 {
					passes = 64
				}
				for p := 0; p < passes; p++ {
					for k := 1; k < 47; k++ {
						o[k] = 0.5*o[k] + 0.25*(o[k-1]+in[k+1])
					}
				}
				return store(out)
			}, x)
		}
	})},
	{"strip_rows", []int{256, 1024}, 5, gridLanguage(gridChainSrc)},
	// The genarray row's program at the sizes where a construct is
	// 15-200 us: what a fork costs a short stencil (bench's stencil_256x4).
	{"stencil_small", []int{64, 128, 256}, 9, gridLanguage(gridGenarraySrc)},
	// Fig 8's line at scale: a range leaf, promoted, filled on the pool.
	{"chain_range", []int{1 << 20}, 5, gridLanguage(gridChainRangeSrc)},
	// Fig 8 itself over n series of 48 points (bench's eddy_score input at
	// 480): matrixMap over troughs of five cells.
	{"matrixmap_eddy", []int{480}, 5, gridProgram(func(n int) (string, map[string]*matrix.Matrix) {
		ssh, _ := eddy.Synthesize(eddy.SynthOptions{Lat: n / 24, Lon: 24, Time: 48,
			NumEddies: 5, NoiseAmp: 0.05, SwellAmp: 0.08, Seed: 1})
		return fig8Src, map[string]*matrix.Matrix{"ssh.data": ssh}
	})},
}

// runShippedGrid is one pass over kernel × size × threads through the
// real kernels and the language at the shipped rung.
func runShippedGrid(tb testing.TB) []scalingRow {
	var rows []scalingRow
	for _, k := range gridKernels {
		for _, size := range k.sizes {
			run := k.build(tb, size)
			awaitTwoCPUs()
			var serial, serialCPU float64
			for _, th := range append([]int{1}, scalingThreads...) {
				ms, cpu := timeCell(k.reps, func() { run(th) })
				if th == 1 {
					serial, serialCPU = ms, cpu
				}
				rows = append(rows, scalingRow{Kernel: k.name, Size: size, Threads: th, MS: r4(ms), CPUMS: r4(cpu),
					Speedup: r4(serial / ms), Efficiency: r4(serial / ms / float64(th)), CPURatio: r4(cpu / serialCPU)})
			}
		}
	}
	return rows
}

// hostParallelism is what two goroutines spinning 4 ms each gain over
// one spinning 8 ms, right now: 2 when the host gives the process both
// CPUs. This host throttles a container to about one CPU for a second
// or so after a burst (the compile of this very test is one), and a
// pass timed in such a spell reads speed-up 1.0 on every rung.
func hostParallelism() float64 {
	spin := func(d time.Duration) {
		for t0 := time.Now(); time.Since(t0) < d; {
		}
	}
	t0 := time.Now()
	forkJoin(2, func(int) { spin(4 * time.Millisecond) })
	return float64(8*time.Millisecond) / float64(time.Since(t0))
}

// awaitTwoCPUs waits (up to half a minute) for a spell in which the
// host delivers both CPUs and returns the last reading.
func awaitTwoCPUs() float64 {
	got := hostParallelism()
	for deadline := time.Now().Add(30 * time.Second); got < 1.8 && time.Now().Before(deadline); got = hostParallelism() {
		time.Sleep(500 * time.Millisecond)
	}
	return got
}

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

const scalingDescription = "Scaling ladder for internal/par (PR 18). ladder_passes: seven fork-join designs, each one step from the one before, over this file's own row kernels (bench_scaling_test.go), as speed-up over the sequential rung and efficiency = speed-up / threads, x threads x size x blocks_per_worker (block = units / (blocks_per_worker * threads)); counter_blocked is par.ParallelChunksCtx itself, the only rung that exists in non-test code, and spin_pool is the parent's par. shipped_grid_passes: the shipped rung through the real kernels and the language (the bench module's par_grid plus matrixMap with uneven bodies and a fused chain on the strip engine; since PR 25 also the stencil at 64-256, Fig 8's line as a range chain and Fig 8 itself), speed-up over Threads = 1 where no construct is forked. ms is the median of 7 (ladder) or 5-9 (grid) batches, cpu_ms the process CPU time per construct over those batches, cpu_ratio (grid rows, since PR 27) cpu_ms over the Threads = 1 row's. Every pass made is in the file. Regenerate: go test -run '^TestScalingLadder$' -scaling-out BENCH_scaling.json ."

// TestScalingLadder regenerates BENCH_scaling.json: three complete
// passes of the ladder and of the shipped grid, every one reported.
func TestScalingLadder(t *testing.T) {
	if *scalingOut == "" {
		t.Skip("pass -scaling-out FILE to run the ladder")
	}
	env := map[string]any{
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "cpu": cpuModel(), "go": runtime.Version(),
		"cores": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"note": "2-core container on a shared host: the threads = 4 columns are oversubscribed on purpose (Threads > GOMAXPROCS must make progress), and a pass can be disturbed by a neighbour — compare passes before reading a single cell",
	}
	rungs := map[string]string{}
	for _, r := range ladderRungs {
		rungs[r.name] = r.what
	}
	var host []float64
	sections := []struct {
		key    string
		passes [][]scalingRow
	}{{key: "ladder_passes"}, {key: "shipped_grid_passes"}}
	for p := 0; p < 3; p++ {
		host = append(host, awaitTwoCPUs())
		sections[0].passes = append(sections[0].passes, runLadder(t))
		host = append(host, awaitTwoCPUs())
		sections[1].passes = append(sections[1].passes, runShippedGrid(t))
	}
	env["host_parallelism_before_each_pass"] = host
	// One row a line: the file is a table, and a diff of it should be too.
	head, _ := json.Marshal(map[string]any{"description": scalingDescription, "environment": env, "rungs": rungs})
	var sb strings.Builder
	sb.Write(head[:len(head)-1])
	for _, sec := range sections {
		fmt.Fprintf(&sb, ",\n%q: [", sec.key)
		for p, rows := range sec.passes {
			lines := make([]string, len(rows))
			for k, row := range rows {
				line, _ := json.Marshal(row)
				lines[k] = "\n  " + string(line)
			}
			if p > 0 {
				sb.WriteString(",")
			}
			sb.WriteString("\n [" + strings.Join(lines, ",") + "\n ]")
		}
		sb.WriteString("\n]")
	}
	sb.WriteString("\n}\n")
	if err := os.WriteFile(*scalingOut, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScalingSmoke is ci.sh's self-relative check, no stored baseline:
// on the above-grain rows of the shipped grid, two threads are never
// slower than one ("parallel is never a slowdown"; the parent's spin
// pool read 0.78 on fold/512). A row below 0.9 is re-timed twice before
// it fails, because the CI host is shared.
func TestScalingSmoke(t *testing.T) {
	if !*scalingSmoke {
		t.Skip("pass -scaling-smoke to run (ci.sh does when nproc >= 2)")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one CPU: nothing to scale on")
	}
	for _, k := range gridKernels {
		size := k.sizes[len(k.sizes)-1]
		run := k.build(t, size)
		best := 0.0
		for try := 0; try < 3 && best < 0.9; try++ {
			one, _ := timeCell(k.reps, func() { run(1) })
			two, _ := timeCell(k.reps, func() { run(2) })
			best = max(best, one/two)
		}
		t.Logf("%s/%d: speed-up on 2 threads %.2f", k.name, size, best)
		if best < 0.9 {
			t.Errorf("%s/%d: 2-thread speed-up %.2f < 0.9 in three tries — parallel must never be a slowdown", k.name, size, best)
		}
	}
}
