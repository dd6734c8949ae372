// Dual-engine execution benchmarks (E15): the same checked program
// run through the tree-walking interpreter and the register bytecode
// VM. Parse+check (and for the VM, bytecode compilation) happen once
// outside the timed loop — exactly what the driver's caches give a
// warm server — so the numbers isolate pure execution dispatch.
//
// Run with: go test -bench 'ScalarLoop|Fib|IndexSum' -benchmem
// Results are committed in BENCH_vm.json, with the two layer rows of
// PR 27: BenchmarkTupleCall (a call of divmod destructured, beside
// vm.call_ns's scalar call) and BenchmarkMatrixBind (a five-cell matrix
// allocated, bound and released through the engine surface).
package repro_test

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/vet"
	"repro/internal/vm"
)

// scalarLoopSrc is the VM's headline case: a tight counted loop of
// fused integer opcodes (compare-and-branch, add-immediate) that the
// tree walker pays per-node evaluation and boxing for.
const scalarLoopSrc = `
int main() {
	int s = 0;
	for (int i = 0; i < 200000; i++) {
		s = s + i * 3 - 1;
	}
	return s % 251;
}
`

// fibSrc stresses the call path: frames, argument binding, returns.
const fibSrc = `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int main() { return fib(21) % 251; }
`

// indexSumSrc stresses the fused rank-1 indexed load/store opcodes.
const indexSumSrc = `
int main() {
	Matrix float <1> a = init(Matrix float <1>, 4096);
	for (int i = 0; i < 4096; i++) {
		a[i] = (float)(i % 97);
	}
	float s = 0.0;
	for (int r = 0; r < 16; r++) {
		for (int i = 0; i < 4096; i++) {
			s = s + a[i];
		}
	}
	return (int)(s / 4096.0);
}
`

type benchProg struct {
	prog *ast.Program
	info *sem.Info
	vmp  *vm.Program
}

func compileBench(b testing.TB, src string) benchProg {
	b.Helper()
	var d source.Diagnostics
	p := parser.ParseFile("bench.xc", src, parser.AllExtensions(), &d)
	if p == nil {
		b.Fatalf("parse failed:\n%s", d.String())
	}
	info := sem.Check(p, &d)
	if d.HasErrors() {
		b.Fatalf("check failed:\n%s", d.String())
	}
	vmp, err := vm.Compile(p, info)
	if err != nil {
		b.Fatalf("vm.Compile: %v", err)
	}
	return benchProg{prog: p, info: info, vmp: vmp}
}

func benchEngines(b *testing.B, src string) {
	bp := compileBench(b, src)
	opts := interp.Options{Threads: 1, Stdout: io.Discard}
	var treeCode, vmCode int
	b.Run("Tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			it := interp.New(bp.prog, bp.info, opts)
			code, err := it.Run()
			it.Close()
			if err != nil {
				b.Fatal(err)
			}
			treeCode = code
		}
	})
	b.Run("VM", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			it := interp.New(bp.prog, bp.info, opts)
			code, err := vm.NewMachine(bp.vmp, it).Run()
			it.Close()
			if err != nil {
				b.Fatal(err)
			}
			vmCode = code
		}
	})
	if treeCode != 0 && vmCode != 0 && treeCode != vmCode {
		b.Fatalf("engines disagree: tree=%d vm=%d", treeCode, vmCode)
	}
}

func BenchmarkScalarLoop(b *testing.B) { benchEngines(b, scalarLoopSrc) }
func BenchmarkFib(b *testing.B)        { benchEngines(b, fibSrc) }
func BenchmarkIndexSum(b *testing.B)   { benchEngines(b, indexSumSrc) }

// BenchmarkVMCompile times the bytecode compiler alone over the
// benchmark's programs (bench/programs/*.xc), facts computed outside
// the loop: the us/program it reports is what bench/ samples once a
// program as vm.compile_us.
func BenchmarkVMCompile(b *testing.B) {
	paths, err := filepath.Glob("bench/programs/*.xc")
	if err != nil || len(paths) == 0 {
		b.Fatalf("no benchmark programs: %v", err)
	}
	type unit struct {
		benchProg
		facts *vet.Facts
	}
	var units []unit
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		bp := compileBench(b, string(src))
		units = append(units, unit{bp, vet.ComputeFacts(bp.prog, bp.info)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			if _, err := vm.CompileWithFacts(u.prog, u.info, u.facts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(units)), "us/program")
}

// tupleCallSrc is bench's tuples_rc_loop without the rc cell: one call
// of a function returning a tuple literal, destructured, a trip.
const tupleCalls = 20000
const tupleCallSrc = `
(int, int, bool) divmod(int a, int b) {
	return (a / b, a % b, a % b == 0);
}
int main() {
	int q; int r; bool exact;
	int hits = 0;
	for (int i = 1; i < 20001; i++) {
		(q, r, exact) = divmod(i * 7, 5);
		if (exact) { hits = hits + q - r; }
	}
	return hits % 251;
}
`

// BenchmarkTupleCall: ns and objects one destructured tuple call costs
// on the VM (the loop around it is six dispatches a trip, 15-20 ns).
func BenchmarkTupleCall(b *testing.B) {
	bp := compileBench(b, tupleCallSrc)
	opts := interp.Options{Threads: 1, Stdout: io.Discard}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it := interp.New(bp.prog, bp.info, opts)
		if _, err := vm.NewMachine(bp.vmp, it).Run(); err != nil {
			b.Fatal(err)
		}
		it.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tupleCalls), "ns/call")
}

// BenchmarkMatrixBind: what a five-cell matrix (Fig 8's average trough)
// costs beside its cells — admitted and allocated, bound to a variable
// and released, through the calls an engine makes.
func BenchmarkMatrixBind(b *testing.B) {
	bp := compileBench(b, "int main() { return 0; }")
	it := interp.New(bp.prog, bp.info, interp.Options{Threads: 1, Stdout: io.Discard})
	defer it.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := matrix.NewBudgeted(it.Budget(), matrix.Float, 5)
		if err != nil {
			b.Fatal(err)
		}
		it.BindValue(m)
		it.ReleaseValue(m)
	}
	if err := it.Heap().CheckLeaks(); err != nil {
		b.Fatal(err)
	}
}
