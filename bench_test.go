// Benchmark harness: one benchmark per experiment in DESIGN.md's
// per-experiment index (E1–E10). The paper's evaluation is
// qualitative — code-generation figures plus scaling and design-choice
// claims — so each benchmark regenerates the corresponding artifact or
// measures the corresponding claim; EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/attr"
	"repro/internal/cgen"
	"repro/internal/driver"
	"repro/internal/eddy"
	"repro/internal/grammar"
	"repro/internal/loopir"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/parser"
	"repro/internal/rc"
	"repro/internal/sem"
	"repro/internal/source"
)

const fig1Src = `
int main() {
	Matrix float <3> mat = readMatrix("ssh.data");
	int m = dimSize(mat, 0);
	int n = dimSize(mat, 1);
	int p = dimSize(mat, 2);
	Matrix float <2> means;
	means = with ([0, 0] <= [i, j] < [m, n])
		genarray([m, n],
			with ([0] <= [k] < [p])
				fold(+, 0.0, mat[i, j, k]) / p);
	writeMatrix("means.data", means);
	return 0;
}
`

const fig9Src = `
int main() {
	Matrix float <3> mat = readMatrix("ssh.data");
	int m = dimSize(mat, 0);
	int n = dimSize(mat, 1);
	int p = dimSize(mat, 2);
	Matrix float <2> means;
	means = with ([0, 0] <= [i, j] < [m, n])
		genarray([m, n],
			with ([0] <= [k] < [p])
				fold(+, 0.0, mat[i, j, k]) / p)
		transform
			split j by 4, jin, jout.
			vectorize jin.
			parallelize i;
	writeMatrix("means.data", means);
	return 0;
}
`

// E1 — Fig 1 → Fig 3: full translation of the temporal-mean program
// to the expanded parallel-C loop nest.
func BenchmarkE1_TemporalMeanCodegen(b *testing.B) {
	opts := cgen.Options{Par: cgen.ParNone, Optimize: true}
	for i := 0; i < b.N; i++ {
		// A fresh driver per iteration: the pipeline, not a cache hit.
		res := driver.New().Compile(context.Background(), driver.CompileRequest{
			Name: "fig1.xc", Source: fig1Src, Exts: parser.AllExtensions(), Codegen: opts})
		if !res.OK {
			b.Fatal(res.Diagnostics)
		}
	}
}

// E2 — Fig 9 → Fig 10: the split transformation on the expanded nest.
func BenchmarkE2_SplitTransform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := &loopir.Loop{Index: "k", Lo: loopir.IC(0), Hi: loopir.V("p"), Body: []loopir.Stmt{
			&loopir.AssignStmt{LHS: loopir.V("tmp"),
				RHS: loopir.B("+", loopir.V("tmp"), loopir.Ld("mat", loopir.V("k")))},
		}}
		j := &loopir.Loop{Index: "j", Lo: loopir.IC(0), Hi: loopir.IC(1440), Body: []loopir.Stmt{
			&loopir.DeclStmt{CType: "float", Name: "tmp", Init: loopir.FC(0)}, k,
			&loopir.AssignStmt{LHS: loopir.Ld("means", loopir.V("j")), RHS: loopir.V("tmp")},
		}}
		nest := []loopir.Stmt{&loopir.Loop{Index: "i", Lo: loopir.IC(0), Hi: loopir.IC(721),
			Body: []loopir.Stmt{j}}}
		loopir.Split(nest, "j", 4, "jin", "jout")
	}
}

// E3 — Fig 10 → Fig 11: full translation with vectorize+parallelize
// to SSE intrinsics and an OpenMP pragma.
func BenchmarkE3_VectorizeCodegen(b *testing.B) {
	opts := cgen.Options{Par: cgen.ParOMP, Optimize: true}
	for i := 0; i < b.N; i++ {
		res := driver.New().Compile(context.Background(), driver.CompileRequest{
			Name: "fig9.xc", Source: fig9Src, Exts: parser.AllExtensions(), Codegen: opts})
		if !res.OK {
			b.Fatal(res.Diagnostics)
		}
	}
}

// E4 — §V's scaling claim: auto-parallelized with-loop throughput as
// the worker count grows (the paper reports near-linear scaling on a
// 2 x 6-core machine; the *shape* depends on the host's core count —
// this container exposes runtime.NumCPU() cores).
func BenchmarkE4_WithLoopScaling(b *testing.B) {
	const m, n, p = 64, 64, 64
	mat := matrix.New(matrix.Float, m, n, p)
	r := rand.New(rand.NewSource(1))
	for k := range mat.Floats() {
		mat.Floats()[k] = r.Float64()
	}
	body := func(idx []int) (any, error) {
		i, j := idx[0], idx[1]
		acc := 0.0
		base := (i*n + j) * p
		for k := 0; k < p; k++ {
			acc += mat.Floats()[base+k]
		}
		return acc / p, nil
	}
	for _, threads := range []int{1, 2, 4, 8, 12} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			var pool *par.Pool
			if threads > 1 {
				pool = par.NewPool(threads)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := matrix.GenArrayExec(matrix.Float,
					[]int{0, 0}, []int{m, n}, []int{m, n}, body, matrix.Exec{Pool: pool}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(runtime.NumCPU()), "host-cores")
		})
	}
}

// E5 — Fig 4/Fig 5: matrixMap of connected-component labelling over
// the time dimension versus the semantically equivalent explicit loop.
func BenchmarkE5_MatrixMapConnComp(b *testing.B) {
	ssh, _ := eddy.Synthesize(eddy.SynthOptions{Lat: 32, Lon: 32, Time: 16,
		NumEddies: 4, NoiseAmp: 0.05, SwellAmp: 0.08, Seed: 2})
	label := func(sub *matrix.Matrix) (*matrix.Matrix, error) {
		bin, err := matrix.BroadcastExec(matrix.OpLt, sub, -0.2, true, matrix.Exec{})
		if err != nil {
			return nil, err
		}
		return eddy.ConnComp(bin)
	}
	b.Run("matrixMap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mapF := func(sub *matrix.Matrix, store func(*matrix.Matrix) error) error {
				res, err := label(sub)
				if err != nil {
					return err
				}
				return store(res)
			}
			if _, err := matrix.MatrixMapExec(ssh, []int{0, 1}, matrix.Int, false, mapF, matrix.Exec{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("explicit-loop", func(b *testing.B) {
		tn := ssh.Shape()[2]
		for i := 0; i < b.N; i++ {
			out := matrix.New(matrix.Int, ssh.Shape()...)
			for t := 0; t < tn; t++ {
				subAny, err := ssh.Index(nil, matrix.All(), matrix.All(), matrix.Scalar(t))
				if err != nil {
					b.Fatal(err)
				}
				res, err := label(subAny.(*matrix.Matrix))
				if err != nil {
					b.Fatal(err)
				}
				if err := out.SetIndex(res, matrix.All(), matrix.All(), matrix.Scalar(t)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// E6 — Fig 8: the full trough-scoring pipeline, both through the
// translator+interpreter and as the native reference.
func BenchmarkE6_EddyScoring(b *testing.B) {
	ssh, _ := eddy.Synthesize(eddy.SynthOptions{Lat: 16, Lon: 16, Time: 48,
		NumEddies: 3, NoiseAmp: 0.05, SwellAmp: 0.08, Seed: 3})
	run := func(b *testing.B, d *driver.Driver) {
		files := map[string]*matrix.Matrix{"ssh.data": ssh}
		res, err := d.Run(context.Background(), driver.RunRequest{
			Name: "fig8.xc", Source: fig8Src, Exts: parser.AllExtensions(), Threads: 1, Files: files})
		if err != nil || !res.OK {
			b.Fatalf("%v\n%v", err, res.Diagnostics)
		}
	}
	// Execution only: one driver, its unit (parse, check, vet, bytecode)
	// made by the warm-up run.
	b.Run("interpreter", func(b *testing.B) {
		d := driver.New()
		run(b, d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, d)
		}
	})
	// What "interpreter" timed until PR 23: a new driver an iteration, so
	// the whole frontend and the bytecode compiler before every run.
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, driver.New())
		}
	})
	b.Run("go-reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eddy.ScoreField(ssh, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

const fig8Src = `
(Matrix float <1>, int, int) getTrough(Matrix float <1> ts, int i) {
	int beginning = i;
	int n = dimSize(ts, 0);
	while (i + 1 < n && ts[i] >= ts[i + 1])
		i = i + 1;
	while (i + 1 < n && ts[i] < ts[i + 1])
		i = i + 1;
	return (ts[beginning :: i], beginning, i);
}
Matrix float <1> computeArea(Matrix float <1> aoi) {
	float y1 = aoi[0];
	float y2 = aoi[end];
	int x1 = 0;
	int x2 = dimSize(aoi, 0) - 1;
	float m = (y1 - y2) / (float)(x1 - x2);
	float b = y1 - m * x1;
	Matrix float <1> Line = [x1 :: x2] * m + b;
	float area = with ([0] <= [i] < [dimSize(Line, 0)])
		fold(+, 0.0, Line[i] - aoi[i]);
	return with ([0] <= [i] < [dimSize(Line, 0)])
		genarray([dimSize(Line, 0)], area);
}
Matrix float <1> scoreTS(Matrix float <1> ts) {
	Matrix float <1> scores = init(Matrix float <1>, dimSize(ts, 0));
	int i = 0;
	int n = dimSize(ts, 0);
	while (i + 1 < n && ts[i] < ts[i + 1])
		i = i + 1;
	int beginning = 0;
	Matrix float <1> trough;
	while (i < n - 1) {
		(trough, beginning, i) = getTrough(ts, i);
		scores[beginning : i] = computeArea(trough);
	}
	return scores;
}
int main() {
	Matrix float <3> data = readMatrix("ssh.data");
	Matrix float <3> scores;
	scores = matrixMap(scoreTS, data, [2]);
	writeMatrix("temporalScores.data", scores);
	return 0;
}
`

// E7 — §VI: the modular determinism analysis and LALR(1) table
// construction for the full composed language (the cost a programmer
// pays to generate their customized translator).
func BenchmarkE7_ComposeAnalysis(b *testing.B) {
	b.Run("isComposable-matrix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := grammar.IsComposable(parser.StartSymbol, parser.HostSpec(), parser.MatrixSpec())
			if !r.Passed {
				b.Fatal("matrix extension must pass")
			}
		}
	})
	b.Run("compose-full-table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, err := grammar.New(parser.StartSymbol, parser.HostSpec(),
				parser.MatrixSpec(), parser.TransformSpec(), parser.RcSpec())
			if err != nil {
				b.Fatal(err)
			}
			t, err := grammar.BuildTable(g)
			if err != nil || len(t.Conflicts) != 0 {
				b.Fatalf("table: %v, %d conflicts", err, len(t.Conflicts))
			}
		}
	})
	b.Run("mwda-matrix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := attr.CheckWellDefined(sem.HostAG(nil), sem.MatrixAG())
			if !r.Passed {
				b.Fatal("matrix semantics must pass")
			}
		}
	})
}

// E8 — §III-C: the paper's enhanced fork-join model (spawn-once spin
// pool, kept as spinPool in spinpool_test.go) against naive spawning
// per parallel region and against the fork-join par ships (the caller
// joins the work, helpers live for one construct, blocks come off a
// shared counter), on small-grain with-loop-sized work where the
// fork-join overhead dominates. cpu-us/op is process CPU time: the
// spin pool's wall-clock lead on this grain is bought with it.
func BenchmarkE8_ForkJoinVsNaive(b *testing.B) {
	const n = 256
	work := func(i int) {
		x := float64(i)
		for k := 0; k < 50; k++ {
			x = x*1.000001 + 0.5
		}
		_ = x
	}
	run := func(b *testing.B, region func()) {
		cpu0 := processCPU()
		for i := 0; i < b.N; i++ {
			region()
		}
		b.ReportMetric(float64(processCPU()-cpu0)/1e3/float64(b.N), "cpu-us/op")
	}
	for _, threads := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("spin-t%d", threads), func(b *testing.B) {
			pool := newSpinPool(threads)
			defer pool.shutdown()
			b.ResetTimer()
			run(b, func() {
				pool.forBlocks(n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						work(i)
					}
				})
			})
		})
		b.Run(fmt.Sprintf("naive-t%d", threads), func(b *testing.B) {
			run(b, func() { par.NaiveSpawn(threads, 0, n, work) })
		})
		b.Run(fmt.Sprintf("par-t%d", threads), func(b *testing.B) {
			pool := par.NewPool(threads)
			run(b, func() { pool.ParallelFor(0, n, work) })
		})
	}
}

// E9 — §III-B/C: allocator scalability — one global-lock heap versus
// sharded per-thread arenas under concurrent allocation, the
// contention phenomenon of the paper's references [15][16].
func BenchmarkE9_AllocatorContention(b *testing.B) {
	const goroutines = 8
	const opsPer = 200
	run := func(b *testing.B, alloc rc.Allocator) {
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					ids := make([]int, 0, 8)
					r := rand.New(rand.NewSource(seed))
					for op := 0; op < opsPer; op++ {
						if len(ids) > 0 && r.Intn(2) == 0 {
							alloc.Free(ids[len(ids)-1])
							ids = ids[:len(ids)-1]
						} else {
							ids = append(ids, alloc.Allocate(64))
						}
					}
					for _, id := range ids {
						alloc.Free(id)
					}
				}(int64(g))
			}
			wg.Wait()
		}
	}
	b.Run("global-lock", func(b *testing.B) { run(b, rc.NewGlobalLock(200)) })
	b.Run("sharded-arena", func(b *testing.B) { run(b, rc.NewArena(goroutines, 200)) })
}

// E10 — §III-A.4 ablation: the two high-level optimizations the
// extension applies across construct boundaries (which "cannot be
// applied across separate libraries").
func BenchmarkE10_FusionAblation(b *testing.B) {
	const m, n, p = 48, 48, 32
	mat := matrix.New(matrix.Float, m, n, p)
	r := rand.New(rand.NewSource(4))
	for k := range mat.Floats() {
		mat.Floats()[k] = r.Float64()
	}
	// slice elimination: fold reads elements directly...
	direct := func(idx []int) (any, error) {
		i, j := idx[0], idx[1]
		base := (i*n + j) * p
		acc := 0.0
		for k := 0; k < p; k++ {
			acc += mat.Floats()[base+k]
		}
		return acc / p, nil
	}
	// ...versus iterating over a copied slice of mat (the library way).
	viaSlice := func(idx []int) (any, error) {
		subAny, err := mat.Index(nil, matrix.Scalar(idx[0]), matrix.Scalar(idx[1]), matrix.All())
		if err != nil {
			return nil, err
		}
		sub := subAny.(*matrix.Matrix)
		acc := 0.0
		for k := 0; k < p; k++ {
			acc += sub.Floats()[k]
		}
		return acc / p, nil
	}
	b.Run("slice-eliminated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matrix.GenArrayExec(matrix.Float, []int{0, 0}, []int{m, n},
				[]int{m, n}, direct, matrix.Exec{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("copied-slice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matrix.GenArrayExec(matrix.Float, []int{0, 0}, []int{m, n},
				[]int{m, n}, viaSlice, matrix.Exec{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// fusion: move the with-loop result into its destination...
	b.Run("fused-move", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := matrix.GenArrayExec(matrix.Float, []int{0, 0}, []int{m, n},
				[]int{m, n}, direct, matrix.Exec{})
			if err != nil {
				b.Fatal(err)
			}
			_ = out // the assignment is a pointer move
		}
	})
	// ...versus the library's extra copy into the destination.
	b.Run("unfused-copy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := matrix.GenArrayExec(matrix.Float, []int{0, 0}, []int{m, n},
				[]int{m, n}, direct, matrix.Exec{})
			if err != nil {
				b.Fatal(err)
			}
			_ = out.Copy() // the extraneous copy of §III-A.4
		}
	})
}

// Front-end throughput: scanning+parsing+checking the Fig 8 program
// through the composed extensible pipeline.
func BenchmarkFrontEnd(b *testing.B) {
	b.Run("parse+check", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var diags source.Diagnostics
			if prog := parser.ParseFile("fig8.xc", fig8Src, parser.AllExtensions(), &diags); prog != nil {
				sem.Check(prog, &diags)
			}
			if diags.HasErrors() {
				b.Fatal(diags.String())
			}
		}
	})
}

// Frontend layer numbers beside the end-to-end serve_cold workload
// (PR 13, EXPERIMENTS E17; committed before/after in
// BENCH_frontend.json). Every iteration parses and checks a source text
// no earlier iteration saw — one of three figure programs plus a fresh
// function — so nothing but the cached LALR/scanner tables is warm.
// Parse and check are timed separately (parse-us/op, check-us/op);
// B/op and allocs/op cover both. Run with:
//
//	go test -run '^$' -bench 'FrontendCold|BuildTable' -benchmem .
func BenchmarkFrontendCold(b *testing.B) {
	srcs := []string{fig1Src, fig9Src, fig8Src}
	if _, err := parser.BuildTable(parser.AllExtensions()); err != nil {
		b.Fatal(err)
	}
	var parse, check time.Duration
	var bytes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := fmt.Sprintf("%s\n// variant %d\nint fresh_%d(int v_%d) { return v_%d + %d; }\n",
			srcs[i%len(srcs)], i, i, i, i, i)
		bytes += len(src)
		var diags source.Diagnostics
		t0 := time.Now()
		prog := parser.ParseFile("cold.xc", src, parser.AllExtensions(), &diags)
		t1 := time.Now()
		if prog == nil {
			b.Fatal(diags.String())
		}
		sem.Check(prog, &diags)
		check += time.Since(t1)
		parse += t1.Sub(t0)
		if diags.HasErrors() {
			b.Fatal(diags.String())
		}
	}
	b.SetBytes(int64(bytes / b.N))
	b.ReportMetric(float64(parse.Microseconds())/float64(b.N), "parse-us/op")
	b.ReportMetric(float64(check.Microseconds())/float64(b.N), "check-us/op")
}

// BenchmarkSemCheck is the check half of BenchmarkFrontendCold alone:
// sem.Check over already-parsed programs (the same three sources, in
// rotation), so ns/op, B/op and allocs/op are the attribute-grammar
// evaluator's and nothing else's — the tree, its slot values, the
// scopes and Info. The grammar is composed before the timer starts;
// every later Check shares it.
func BenchmarkSemCheck(b *testing.B) {
	var progs []*ast.Program
	for _, src := range []string{fig1Src, fig9Src, fig8Src} {
		var diags source.Diagnostics
		prog := parser.ParseFile("check.xc", src, parser.AllExtensions(), &diags)
		if prog == nil {
			b.Fatal(diags.String())
		}
		sem.Check(prog, &diags)
		if diags.HasErrors() {
			b.Fatal(diags.String())
		}
		progs = append(progs, prog)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var diags source.Diagnostics
		if info := sem.Check(progs[i%len(progs)], &diags); len(info.Types) == 0 || diags.Len() != 0 {
			b.Fatal(diags.String())
		}
	}
}

// BenchmarkBuildTable is what a process pays once per extension set
// before its first parse (parser.first_call_ms, part of every
// workload's setup_s): grammar composition, the LALR(1) tables and the
// scanner tables, uncached.
func BenchmarkBuildTable(b *testing.B) {
	for _, c := range []struct {
		name string
		o    parser.Options
	}{{"all", parser.AllExtensions()}, {"host", parser.Options{}}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := grammar.New(parser.StartSymbol, parser.HostSpec(), c.o.Specs()...)
				if err != nil {
					b.Fatal(err)
				}
				t, err := grammar.BuildTable(g)
				if err != nil || len(t.Conflicts) != 0 {
					b.Fatalf("table: %v, %d conflicts", err, len(t.Conflicts))
				}
			}
		})
	}
}

// ---- kernel benchmarks (PR 5) ----
//
// BenchmarkKernel* measure the specialized arithmetic kernels of
// internal/matrix/kernels.go against the retained boxed reference path
// (the pre-PR implementation, kept as *Ref). BENCH_kernels.json records
// the committed before/after baseline. Run with:
//
//	go test -bench=Kernel -benchmem

func kernelBenchMat(elem matrix.Elem, n int) *matrix.Matrix {
	m := matrix.New(elem, n)
	switch elem {
	case matrix.Float:
		fl := m.Floats()
		for k := range fl {
			fl[k] = float64(k%97) + 0.5
		}
	case matrix.Int:
		is := m.Ints()
		for k := range is {
			is[k] = int64(k%97) + 1
		}
	}
	return m
}

// BenchmarkKernelElementwise: kernel vs boxed reference across sizes
// and element types (satisfies the BenchmarkElementwise axis of the
// bench plan; the Kernel prefix keeps one CI smoke regex).
func BenchmarkKernelElementwise(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 16, 1 << 20} {
		for _, elem := range []matrix.Elem{matrix.Float, matrix.Int} {
			x := kernelBenchMat(elem, size)
			y := kernelBenchMat(elem, size)
			b.Run(fmt.Sprintf("kernel/%s/%d", elem, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := matrix.ElementwiseExec(matrix.OpAdd, x, y, matrix.Exec{}); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("generic/%s/%d", elem, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := matrix.ElementwiseRef(matrix.OpAdd, x, y); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		// An int operand promoted to float, and a unary minus.
		xi, yf := kernelBenchMat(matrix.Int, size), kernelBenchMat(matrix.Float, size)
		b.Run(fmt.Sprintf("kernel/promote/%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := matrix.ElementwiseExec(matrix.OpAdd, xi, yf, matrix.Exec{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("kernel/neg/float/%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := matrix.UnaryExec(true, yf, matrix.Exec{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelBroadcast: matrix-scalar kernels vs boxed reference.
func BenchmarkKernelBroadcast(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 20} {
		for _, elem := range []matrix.Elem{matrix.Float, matrix.Int} {
			x := kernelBenchMat(elem, size)
			var s any = 1.5
			if elem == matrix.Int {
				s = int64(3)
			}
			b.Run(fmt.Sprintf("kernel/%s/%d", elem, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := matrix.BroadcastExec(matrix.OpMul, x, s, true, matrix.Exec{}); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("generic/%s/%d", elem, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := matrix.BroadcastRef(matrix.OpMul, x, s, true); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		// An int matrix promoted to float by its scalar.
		xi := kernelBenchMat(matrix.Int, size)
		b.Run(fmt.Sprintf("kernel/promote/%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := matrix.BroadcastExec(matrix.OpMul, xi, 0.5, true, matrix.Exec{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelMatMul: the register-blocked kernel vs the naive i-j-k
// reference, serial (one-row chunks), and at 256 and 512 on a
// two-worker pool, which cuts the rows into 8 chunks (32 rows a chunk
// at 256, as in the matmul_256 workload program).
func BenchmarkKernelMatMul(b *testing.B) {
	pool := matrix.Exec{Pool: par.NewPool(2)}
	for _, size := range []int{64, 256, 512} {
		for _, elem := range []matrix.Elem{matrix.Float, matrix.Int} {
			x := kernelBenchMat(elem, size*size)
			y := kernelBenchMat(elem, size*size)
			xm := matrix.New(elem, size, size)
			ym := matrix.New(elem, size, size)
			switch elem {
			case matrix.Float:
				copy(xm.Floats(), x.Floats())
				copy(ym.Floats(), y.Floats())
			case matrix.Int:
				copy(xm.Ints(), x.Ints())
				copy(ym.Ints(), y.Ints())
			}
			b.Run(fmt.Sprintf("kernel/%s/%d", elem, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := matrix.MatMulExec(xm, ym, matrix.Exec{}); err != nil {
						b.Fatal(err)
					}
				}
			})
			if size >= 256 {
				b.Run(fmt.Sprintf("kernel/pool/%s/%d", elem, size), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := matrix.MatMulExec(xm, ym, pool); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			if size > 256 && elem == matrix.Int {
				continue // the boxed reference at 512 int adds nothing new and minutes of runtime
			}
			b.Run(fmt.Sprintf("generic/%s/%d", elem, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := matrix.MatMulRef(xm, ym); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKernelChained: the buffer-reuse case — (a+b).*c allocates
// two outputs; recycling the spent a+b temporary lets the free list
// feed later outputs, cutting allocs/op versus the reference chain.
func BenchmarkKernelChained(b *testing.B) {
	x := kernelBenchMat(matrix.Float, 1<<20)
	y := kernelBenchMat(matrix.Float, 1<<20)
	z := kernelBenchMat(matrix.Float, 1<<20)
	b.Run("kernel", func(b *testing.B) {
		matrix.DrainFreeLists()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := matrix.ElementwiseExec(matrix.OpAdd, x, y, matrix.Exec{})
			if err != nil {
				b.Fatal(err)
			}
			out, err := matrix.ElementwiseExec(matrix.OpMul, s, z, matrix.Exec{})
			if err != nil {
				b.Fatal(err)
			}
			s.Recycle()
			out.Recycle()
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := matrix.ElementwiseRef(matrix.OpAdd, x, y)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := matrix.ElementwiseRef(matrix.OpMul, s, z); err != nil {
				b.Fatal(err)
			}
		}
	})
}
