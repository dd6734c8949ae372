// Allocation ceilings. Run times on a shared host spread 15–30 %;
// allocation counts repeat to within a handful of objects, so they are
// what CI can fail on. Each program below is a bench/ corpus program, run
// through a warm driver (unit cached: no parse, check, vet or bytecode
// compile in the measured runs) at one thread.
package repro_test

import (
	"bytes"
	"context"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/driver"
	"repro/internal/eddy"
	"repro/internal/matrix"
	"repro/internal/parser"
)

// allocCeilings holds, per program, the objects and KB one warm run may
// allocate: what EXPERIMENTS.md E33 (E32, E26, E25, E24, E23 or E21
// where E33 did not move it) measured, in the comments, plus 5 % (fib_rec and chain_1m, whose
// whole runs are a few dozen objects, get a handful). At PR 25 eddy_score
// read 65 018 / 5 891 (a 208-byte header and a 48-byte rc header a
// matrix, a []any and its boxed header a tuple return, a boxed float a
// fold), tuples_rc_loop 35 822 / 774.2 and withloop_flat_small 4 521 /
// 388.5. At PR 22 the first five
// read 312 900 / 27 840, 106 342 / 11 072, 41 558 / 4 866, 89 784 / 4 993
// and 16 525 / 835; at PR 24 eddy_score 144 073 / 11 182,
// withloop_flat_small 7 524 / 529.5 and chain_1m 54 / 16 395 — two 8 MB
// index vectors a run.
// Before E26 (a 128-byte header, its cells a second object) eddy_score
// read 35 410 / 3 447 and withloop_flat_small 3 021 / 201.0.
// Before E32 (every frame-local matrix made afresh, and the free list
// holding no buffer under 256 cells) eddy_score read 19 981 / 2 930 and
// withloop_flat_small 3 021 / 154.1; before E33 (getTrough's slice,
// computeArea's genarray and scoreTS's scores made afresh for each call)
// eddy_score read 12 878 / 1 783.
var allocCeilings = []struct {
	file        string
	objects, kb float64
}{
	{"eddy_score", 547, 245.5},          // 521, 233.8: Line kept by its frame, the returned trough, area and scores by their callers' (E33)
	{"fib_rec", 25, 2},                  // 21, 1.7
	{"withloop_closure", 27, 2.1},       // 25, 2.0: weight(i, j) emitted in place, the genarray flat (E25; 6 957, 56.9 a boxed float a cell at PR 27)
	{"tuples_rc_loop", 9_460, 76},       // 9 004, 72.3: one a trip, rcset's boxed int
	{"withloop_flat_small", 1600, 14.2}, // 1 521, 13.5: one a loop, the indexed cell's box; g's matrix kept by its frame
	{"chain_1m", 40, 8},                 // 26, 2.5: five chains, no range vector, no scratch
}

func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled frames are dropped at random under the race detector")
	}
	// One P: sync.Pool keeps a cache a P, and the collection that opens a
	// round drops whatever the P the round does not run on had cached. On
	// two, one round in three made chain_1m's 28 KB strip state again
	// (8.1 or 13.7 KB a run instead of 2.5), and one test run in six read
	// it in all three rounds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ssh, _ := eddy.Synthesize(eddy.SynthOptions{Lat: 20, Lon: 24, Time: 48,
		NumEddies: 5, NoiseAmp: 0.05, SwellAmp: 0.08, Seed: 1})
	for _, tc := range allocCeilings {
		src, err := os.ReadFile("bench/programs/" + tc.file + ".xc")
		if err != nil {
			t.Fatal(err)
		}
		d := driver.New()
		run := func() {
			var out bytes.Buffer
			res, err := d.Run(context.Background(), driver.RunRequest{
				Name: tc.file + ".xc", Source: string(src), Exts: parser.AllExtensions(), Threads: 1,
				Files: map[string]*matrix.Matrix{"ssh.data": ssh}, Stdout: &out})
			if err != nil || !res.OK {
				t.Fatalf("%s: %v\n%v", tc.file, err, res)
			}
		}
		run() // the cold run fills the driver's unit cache and the free list
		run()
		// The least of three rounds: the counters are the process's, so a
		// round in which the collector (still busy with the previous
		// program's garbage) empties the frame pools reads high.
		const rounds, runs = 3, 5
		objects, kb := math.Inf(1), math.Inf(1)
		for r := 0; r < rounds; r++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for k := 0; k < runs; k++ {
				run()
			}
			runtime.ReadMemStats(&after)
			objects = min(objects, float64(after.Mallocs-before.Mallocs)/runs)
			kb = min(kb, float64(after.TotalAlloc-before.TotalAlloc)/runs/1024)
		}
		t.Logf("%-20s %9.0f objects %9.1f KB a run (ceilings %.0f, %.0f)", tc.file, objects, kb, tc.objects, tc.kb)
		if objects > tc.objects || kb > tc.kb {
			t.Errorf("%s allocates %.0f objects and %.1f KB a warm run, over its ceiling of %.0f and %.0f",
				tc.file, objects, kb, tc.objects, tc.kb)
		}
	}
}
