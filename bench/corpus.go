package main

import (
	"embed"
	"fmt"
	"math"

	"repro/internal/eddy"
	"repro/internal/matrix"
)

// programs holds every benchmark program beside its expected standard
// output. The .out files were produced once with Engine "tree", the
// repo's independent oracle, and reviewed; TestExpectedOutputs holds
// them to it.
//
//go:embed programs/*.xc programs/*.out
var programs embed.FS

// A program is one benchmark input: source, expected output, and for
// the two paper programs the matrix files they read and a check of the
// files they write.
type program struct {
	name string // the metric row's name; the file is programs/<file>.xc
	file string
	src  string
	out  string
	// work is the count the program's run time is divided by for its
	// per-layer row (loop cells, iterations, calls); 0 where no row uses it.
	work float64
	// prepare builds the run's in-memory input files from the seed and
	// returns a check of the files a run wrote against a Go reference
	// computed once, here.
	prepare func(seed int64) (in map[string]*matrix.Matrix, check func(out map[string]*matrix.Matrix) error)
}

func load(name, file string, work float64) *program {
	src, err := programs.ReadFile("programs/" + file + ".xc")
	if err != nil {
		panic(err) // embedded at build time; a miss is a bug in this file
	}
	out, err := programs.ReadFile("programs/" + file + ".out")
	if err != nil {
		panic(err)
	}
	return &program{name: name, file: file, src: string(src), out: string(out), work: work}
}

// serveCorpus: eight programs that each execute in under a millisecond,
// so a request's time is the request path, not the program. Five are
// the repo's testdata programs (stencil with-loops, the transpose
// pattern, cilk spawn/sync, every indexing form, tuples with rc); three
// add the shapes those lack (scalar loop, fused chain, matmul).
func serveCorpus() []*program {
	return []*program{
		load("stencil_heat", "stencil_heat", 0),
		load("transpose_roundtrip", "transpose_roundtrip", 0),
		load("cilk_scale", "cilk_scale", 0),
		load("indexing", "indexing", 0),
		load("tuples_rc", "tuples_rc", 0),
		load("scalar_loop_small", "scalar_loop_small", 0),
		load("fused_chain_small", "fused_chain_small", 0),
		load("matmul_small", "matmul_small", 0),
	}
}

// parallelCorpus: bulk kernels, the flat with-loop engine and the pool
// do the work; the paper's two evaluation programs (Fig 1, Fig 8) are
// in it. Each runs 10-40 ms at Threads = nproc.
func parallelCorpus() []*program {
	mean := load("temporal_mean_96x96x64", "temporal_mean", 0)
	mean.prepare = prepareTemporalMean
	score := load("eddy_score_20x24x48", "eddy_score", 0)
	score.prepare = prepareEddyScore
	return []*program{
		load("matmul_256", "matmul_256", 0),
		load("transpose_768", "transpose_768", 0),
		load("stencil_256x4", "stencil_256x4", 4*254*254), // stencil cells
		load("chain_1m", "chain_1m", 3*(1<<20)),           // fused cells
		mean,
		score,
	}
}

// serialCorpus: at Threads = 1 no pool exists, so these time VM
// dispatch, frames, the interp engine surface, rc and with-loop
// admission; bulk kernels and par are bypassed. Each runs 5-30 ms.
func serialCorpus() []*program {
	return []*program{
		load("scalar_loop", "scalar_loop", 400000),               // iterations
		load("fib_rec", "fib_rec", 35421),                        // calls of fib(21)
		load("index_sum", "index_sum", 33*4096),                  // indexed elements
		load("withloop_closure", "withloop_closure", 96*96),      // closure cells
		load("withloop_flat_small", "withloop_flat_small", 1500), // loops admitted
		load("tuples_rc_loop", "tuples_rc_loop", 0),
		load("fold_nested", "fold_nested", 40*40*32), // fold cells
	}
}

// allPrograms is the three corpora and cilkFib, in that order.
func allPrograms() []*program {
	return append(append(append(serveCorpus(), parallelCorpus()...), serialCorpus()...), cilkFib())
}

// programNamed returns the corpus program behind a metric row's name.
func programNamed(name string) *program {
	for _, p := range allPrograms() {
		if p.name == name {
			return p
		}
	}
	panic("no corpus program named " + name) // a typo in this package
}

// cilkFib is kept out of the timed mixes (its run time spreads 2-60 ms
// for identical input); it prices a spawn for one layer row.
func cilkFib() *program { return load("cilk_fib", "cilk_fib", 609) } // spawns of fib(14)

// prepareTemporalMean: a seeded 96x96x64 cube of sea-surface-like
// values, and the plain triple loop the program's means.data must match.
func prepareTemporalMean(seed int64) (map[string]*matrix.Matrix, func(map[string]*matrix.Matrix) error) {
	const m, n, p = 96, 96, 64
	r := newRNG(seed, 0)
	src := matrix.New(matrix.Float, m, n, p)
	fl := src.Floats()
	for i := range fl {
		fl[i] = float64(r.intn(2001)-1000) / 1000
	}
	want := matrix.New(matrix.Float, m, n)
	w := want.Floats()
	for c := range w {
		sum := 0.0
		for k := 0; k < p; k++ {
			sum += fl[c*p+k]
		}
		w[c] = sum / p
	}
	return map[string]*matrix.Matrix{"ssh.data": src}, func(out map[string]*matrix.Matrix) error {
		if !closeTo(out["means.data"], want) {
			return fmt.Errorf("means.data differs from the reference triple loop")
		}
		return nil
	}
}

// prepareEddyScore: a synthetic 20x24x48 SSH field with five eddies,
// and eddy.ScoreField as the reference for temporalScores.data.
func prepareEddyScore(seed int64) (map[string]*matrix.Matrix, func(map[string]*matrix.Matrix) error) {
	ssh, _ := eddy.Synthesize(eddy.SynthOptions{Lat: 20, Lon: 24, Time: 48,
		NumEddies: 5, NoiseAmp: 0.05, SwellAmp: 0.08, Seed: seed})
	want, err := eddy.ScoreField(ssh, nil)
	return map[string]*matrix.Matrix{"ssh.data": ssh}, func(out map[string]*matrix.Matrix) error {
		if err != nil {
			return err
		}
		if !closeTo(out["temporalScores.data"], want) {
			return fmt.Errorf("temporalScores.data differs from eddy.ScoreField")
		}
		return nil
	}
}

// closeTo reports whether got is a float matrix of want's shape equal
// to it within 1e-6 everywhere.
func closeTo(got, want *matrix.Matrix) bool {
	if got == nil || got.Elem() != matrix.Float || !got.SameShape(want) {
		return false
	}
	g, w := got.Floats(), want.Floats()
	for i := range w {
		if math.Abs(g[i]-w[i]) > 1e-6 {
			return false
		}
	}
	return true
}
