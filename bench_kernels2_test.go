// Kernel-breadth benchmarks (PR 10): the panel transpose, 2-D
// convolution, axis reduction and recursive-matmul kernels against the
// retained boxed *Ref oracles, plus the compiled with-loop ablation —
// the same proven genarray/fold program run through the tree walker,
// the VM on closure bodies (no facts), and the VM on the flat engine
// (facts-driven). BENCH_kernels2.json records the committed numbers.
//
// Run with: go test -bench=Kernel -benchmem
package repro_test

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/vm"
)

func kb2Mat(elem matrix.Elem, rows, cols int) *matrix.Matrix {
	m := matrix.New(elem, rows, cols)
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

// kb2Execs: the serial path and one worker per core (two on the box
// the BENCH files were recorded on). BENCH_scaling.json has the grid
// over threads, sizes and block sizes; these rows only place the pool
// path beside the serial kernel it forks.
func kb2Execs() []struct {
	name string
	x    matrix.Exec
} {
	return []struct {
		name string
		x    matrix.Exec
	}{
		{"serial", matrix.Exec{}},
		{"pool", matrix.Exec{Pool: par.NewPool(0)}},
	}
}

// BenchmarkKernelTranspose: the panel kernel vs the boxed
// element-at-a-time reference. 2048x2048 float is the acceptance row;
// 768x768 int is transpose_768's shape.
func BenchmarkKernelTranspose(b *testing.B) {
	for _, size := range []struct {
		n    int
		elem matrix.Elem
		name string
	}{{512, matrix.Float, "512"}, {768, matrix.Int, "768_int"}, {2048, matrix.Float, "2048"}} {
		m := kb2Mat(size.elem, size.n, size.n)
		for _, e := range kb2Execs() {
			b.Run(fmt.Sprintf("kernel/%s/%s", e.name, size.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out, err := matrix.TransposeExec(m, e.x)
					if err != nil {
						b.Fatal(err)
					}
					out.Recycle()
				}
			})
		}
		b.Run("generic/"+size.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := matrix.TransposeRef(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// transposePatternSrc transposes a 768² int matrix four times. With an
// empty suffix the body is the bare m[j, i] the flat engine hands to the
// transpose kernel; with " + 1" it is a general strip program whose load
// strides down m's columns.
const transposePatternSrc = `
int main() {
	int n = 768;
	Matrix int <2> m;
	m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], i * 1000 + j);
	Matrix int <2> t;
	for (int r = 0; r < 4; r++) {
		t = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], m[j, i]%s);
	}
	return t[3, 700] %% 251;
}
`

// BenchmarkKernelTransposePattern: whether pattern-matching m[j, i] onto
// the transpose kernel pays, against the strip program of m[j, i] + 1 —
// the same loop with one add more — at one thread and one worker per
// core. ns/cell divides the whole program, m's fill included, by the
// 4·768² transposed cells.
func BenchmarkKernelTransposePattern(b *testing.B) {
	const cells = 4 * 768 * 768
	for _, arm := range []struct{ name, suffix string }{{"pattern", ""}, {"strip", " + 1"}} {
		bp := compileBench(b, fmt.Sprintf(transposePatternSrc, arm.suffix))
		if bp.vmp.WithCompiled() != 2 {
			b.Fatalf("%s: expected both with-loops compiled flat, got %d", arm.name, bp.vmp.WithCompiled())
		}
		for _, threads := range []int{1, runtime.NumCPU()} {
			b.Run(fmt.Sprintf("%s/threads_%d", arm.name, threads), func(b *testing.B) {
				t0, _, _ := matrix.KernelOpStats()
				for i := 0; i < b.N; i++ {
					it := interp.New(bp.prog, bp.info, interp.Options{Threads: threads, Stdout: io.Discard})
					_, err := vm.NewMachine(bp.vmp, it).Run()
					it.Close()
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
				want := int64(0)
				if arm.suffix == "" {
					want = int64(4 * b.N)
				}
				if t1, _, _ := matrix.KernelOpStats(); t1-t0 != want {
					b.Fatalf("%s: %d transpose kernels in %d runs, want %d", arm.name, t1-t0, b.N, want)
				}
			})
		}
	}
}

// BenchmarkKernelConv2D: specialized row loops vs the boxed reference.
// 1024x1024 with a 3x3 kernel is the acceptance row.
func BenchmarkKernelConv2D(b *testing.B) {
	src := kb2Mat(matrix.Float, 1024, 1024)
	kern := kb2Mat(matrix.Float, 3, 3)
	for _, e := range kb2Execs() {
		b.Run("kernel/"+e.name+"/1024x1024_3x3", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := matrix.Conv2DExec(src, kern, e.x)
				if err != nil {
					b.Fatal(err)
				}
				out.Recycle()
			}
		})
	}
	b.Run("generic/1024x1024_3x3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matrix.Conv2DRef(src, kern); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKernelReduceAxis: blocked axis reduction vs the boxed
// reference, along both the outer (0) and inner (1) axis of a square.
func BenchmarkKernelReduceAxis(b *testing.B) {
	m := kb2Mat(matrix.Float, 2048, 2048)
	for _, axis := range []int{0, 1} {
		for _, e := range kb2Execs() {
			b.Run(fmt.Sprintf("kernel/%s/sum_axis%d", e.name, axis), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out, err := matrix.ReduceAxisExec(matrix.FoldAdd, m, axis, e.x)
					if err != nil {
						b.Fatal(err)
					}
					out.Recycle()
				}
			})
		}
		b.Run(fmt.Sprintf("generic/sum_axis%d", axis), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := matrix.ReduceAxisRef(matrix.FoldAdd, m, axis); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelRecMatMul: 640x640 crosses mmRecCutoff=512, so the
// kernel row runs the blocked-recursive split; the generic row is the
// boxed naive triple loop.
func BenchmarkKernelRecMatMul(b *testing.B) {
	const size = 640
	x := kb2Mat(matrix.Float, size, size)
	y := kb2Mat(matrix.Float, size, size)
	b.Run(fmt.Sprintf("kernel/%d", size), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matrix.MatMulExec(x, y, matrix.Exec{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("generic/%d", size), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matrix.MatMulRef(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// withBenchSrc: transpose, five-point stencil and a fold, all with
// provable flat bodies. The same checked program runs on every engine
// variant; exit codes are compared to keep the ablation honest.
const withBenchSrc = `
int main() {
	int n = 256;
	Matrix float <2> u;
	u = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 1.0 + 0.5 * i - 0.25 * j);
	Matrix float <2> t;
	t = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], u[j, i]);
	Matrix float <2> s;
	s = with ([1, 1] <= [i, j] < [n - 1, n - 1])
		genarray([n, n],
			t[i, j] + 0.25 * (t[i - 1, j] + t[i + 1, j]
				+ t[i, j - 1] + t[i, j + 1] - 4.0 * t[i, j]));
	float total = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, s[i, j]);
	return (int)(total / 1000.0) % 251;
}
`

// withRowSrc isolates one body shape per row of the flat engine's
// layer table: the measured loop repeats so its cells dominate the
// program, and every input is filled by a flat loop on either side of
// the strip-engine change, so the before and after columns of
// BENCH_kernels2.json time the same work.
var withRowSrc = []struct {
	name  string
	cells int // evaluations of the measured body per run
	src   string
}{
	{"stencil_256", 8 * 254 * 254, `
int main() {
	int n = 256;
	float alpha = 0.25;
	Matrix float <2> u;
	u = with ([96, 96] <= [i, j] < [160, 160]) genarray([n, n], 64.0);
	for (int step = 0; step < 8; step++) {
		Matrix float <2> next;
		next = with ([1, 1] <= [i, j] < [n - 1, n - 1])
			genarray([n, n],
				u[i, j] + alpha * (u[i - 1, j] + u[i + 1, j]
					+ u[i, j - 1] + u[i, j + 1] - 4.0 * u[i, j]));
		u = next;
	}
	return (int)u[128, 128];
}`},
	{"fill_768", 4 * 768 * 768, `
int main() {
	int n = 768;
	int s = 0;
	for (int r = 0; r < 4; r++) {
		Matrix int <2> m;
		m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], i * 1000 + j + r);
		s = s + m[r, 700];
	}
	return s % 251;
}`},
	{"difffold_768", 8 * 768 * 768, `
int main() {
	int n = 768;
	Matrix int <2> m;
	m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], i * 1000 + j);
	Matrix int <2> back;
	back = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], i * 1000 + j + 1);
	int s = 0;
	for (int r = 0; r < 8; r++) {
		s = s + with ([0, 0] <= [i, j] < [n, n]) fold(+, r, back[i, j] - m[i, j]);
	}
	return s % 251;
}`},
	{"nested_mean_96x96x64", 4 * 96 * 96 * 64, `
int main() {
	int m = 96;
	int n = 96;
	int p = 64;
	Matrix float <3> mat;
	mat = with ([0, 0, 0] <= [i, j, k] < [m, n, p]) genarray([m, n, p], 0.5 * i - 0.25 * j + k);
	float s = 0.0;
	for (int r = 0; r < 4; r++) {
		Matrix float <2> means;
		means = with ([0, 0] <= [i, j] < [m, n])
			genarray([m, n],
				with ([0] <= [k] < [p])
					fold(+, 0.0, mat[i, j, k]) / p);
		s = s + means[r, 5];
	}
	return (int)s % 251;
}`},
}

// BenchmarkKernelWithCompiled: the with-loop compilation ablation.
// tree = per-node evaluation; vm_closure = bytecode engine but boxed
// per-element body closures (compiled without facts); vm_flat = the
// facts-driven flat engine (transpose pattern-match, stencil fill,
// fold chunks). vm_flat_pool runs vm_flat with one worker per core.
func BenchmarkKernelWithCompiled(b *testing.B) {
	bp := compileBench(b, withBenchSrc)
	// vm.Compile computes facts itself, so bp.vmp is the flat program;
	// compiling with nil facts yields the closure-body ablation arm.
	flat := bp.vmp
	if flat.WithCompiled() != 4 {
		b.Fatalf("expected all 4 with-loops compiled flat, got %d", flat.WithCompiled())
	}
	closure, err := vm.CompileWithFacts(bp.prog, bp.info, nil)
	if err != nil {
		b.Fatalf("vm.CompileWithFacts(nil): %v", err)
	}
	if closure.WithCompiled() != 0 {
		b.Fatalf("nil-facts compile still flattened %d with-loops", closure.WithCompiled())
	}
	codes := map[string]int{}
	run := func(name string, threads int, vmp *vm.Program) {
		opts := interp.Options{Threads: threads, Stdout: io.Discard}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it := interp.New(bp.prog, bp.info, opts)
				var code int
				var err error
				if vmp != nil {
					code, err = vm.NewMachine(vmp, it).Run()
				} else {
					code, err = it.Run()
				}
				it.Close()
				if err != nil {
					b.Fatal(err)
				}
				codes[name] = code
			}
		})
	}
	run("tree", 1, nil)
	run("vm_closure", 1, closure)
	run("vm_flat", 1, flat)
	run("vm_flat_pool", runtime.NumCPU(), flat)
	// One body shape per row, flat engine, one thread, ns per cell.
	for _, row := range withRowSrc {
		rp := compileBench(b, row.src)
		b.Run("rows/"+row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it := interp.New(rp.prog, rp.info, interp.Options{Threads: 1, Stdout: io.Discard})
				_, err := vm.NewMachine(rp.vmp, it).Run()
				it.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(row.cells), "ns/cell")
		})
	}
	want, ok := codes["tree"], false
	for name, code := range codes {
		ok = true
		if code != want {
			b.Fatalf("engine %s exited %d, tree exited %d", name, code, want)
		}
	}
	if !ok {
		b.Log("no engine variant ran (benchtime 0?)")
	}
}

// foldWholeSrc folds the whole of one matrix, reps times: the program
// FoldFlat's whole-matrix single-load branch exists for. PR 20 measured
// it against the strip walk of the same cells and kept it (EXPERIMENTS.md
// E19).
const foldWholeSrc = `
int main() {
	int n = %d;
	Matrix float <2> c;
	c = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 0.37 * i - 0.11 * j + 1.0 / (1.0 + i + j));
	float total = 0.0;
	for (int r = 0; r < %d; r++) {
		total = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, c[i, j]);
	}
	print(total);
	return 0;
}
`

// BenchmarkFoldWholeMatrix: fold(+, 0.0, c[i, j]) over all of c at 256²
// and 1024², on one thread and on two, in ns per folded cell. What it
// prints pins the sum's bits: %g is the shortest text that reads back
// as the same float64.
func BenchmarkFoldWholeMatrix(b *testing.B) {
	for _, size := range []struct {
		n, reps int
		want    [2]string // threads 1, threads 2
	}{
		{256, 256, [2]string{"2.1728727918447386e+06", "2.1728727918447196e+06"}},
		{1024, 16, [2]string{"1.394515413055465e+08", "1.3945154130554724e+08"}},
	} {
		bp := compileBench(b, fmt.Sprintf(foldWholeSrc, size.n, size.reps))
		if bp.vmp.WithCompiled() != 2 {
			b.Fatalf("expected both with-loops compiled flat, got %d", bp.vmp.WithCompiled())
		}
		for threads := 1; threads <= 2; threads++ {
			b.Run(fmt.Sprintf("%dx%d/threads_%d", size.n, size.n, threads), func(b *testing.B) {
				var out strings.Builder
				for i := 0; i < b.N; i++ {
					out.Reset()
					it := interp.New(bp.prog, bp.info, interp.Options{Threads: threads, Stdout: &out})
					_, err := vm.NewMachine(bp.vmp, it).Run()
					it.Close()
					if err != nil {
						b.Fatal(err)
					}
				}
				if got := strings.TrimSpace(out.String()); got != size.want[threads-1] {
					b.Fatalf("sum = %s, want %s", got, size.want[threads-1])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size.reps*size.n*size.n), "ns/cell")
			})
		}
	}
}

// BenchmarkIndex*: the selection layer alone — one Index or SetIndex a
// call on a 256×256 float matrix, in ns a selected cell and objects a
// call. The result is recycled as the interpreter does when the last
// reference to a slice is dropped.
func benchIndex(b *testing.B, cells int, f func(m *matrix.Matrix) error) {
	m := matrix.New(matrix.Float, 256, 256)
	for k, fl := 0, m.Floats(); k < len(fl); k++ {
		fl[k] = float64(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f(m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
}

func benchIndexRead(b *testing.B, cells int, specs ...matrix.IndexSpec) {
	benchIndex(b, cells, func(m *matrix.Matrix) error {
		out, err := m.Index(nil, specs...)
		if err == nil {
			out.(*matrix.Matrix).Recycle()
		}
		return err
	})
}

func BenchmarkIndexColumnRead(b *testing.B) {
	benchIndexRead(b, 256, matrix.All(), matrix.Scalar(7))
}

func BenchmarkIndexRangeRead(b *testing.B) {
	benchIndexRead(b, 128*128, matrix.Span(8, 135), matrix.Span(64, 191))
}

func BenchmarkIndexMaskRead(b *testing.B) {
	mask := matrix.New(matrix.Bool, 256)
	for k, bs := 0, mask.Bools(); k < len(bs); k += 2 {
		bs[k] = true
	}
	benchIndexRead(b, 128*256, matrix.Mask(mask), matrix.All())
}

func BenchmarkIndexRowStore(b *testing.B) {
	row := matrix.New(matrix.Float, 256)
	benchIndex(b, 256, func(m *matrix.Matrix) error {
		return m.SetIndex(row, matrix.Scalar(9), matrix.All())
	})
}
