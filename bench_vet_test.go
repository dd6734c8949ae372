// Vet facts + fusion benchmarks: the cost of proving fusion legality
// (vet.ComputeFacts) and the payoff of consuming it — the same
// chained-elementwise program executed by the VM with the facts-driven
// fused loop versus with fusion disabled (nil facts, every stage a
// full kernel pass with a materialized intermediate).
//
// Run with: go test -bench 'VetFacts|FusedChain' -benchmem
// Results are committed in BENCH_vet.json.
package repro_test

import (
	"io"
	"testing"

	"repro/internal/interp"
	"repro/internal/vet"
	"repro/internal/vm"
)

// chainedSrc runs a four-stage elementwise chain over 64k floats
// repeatedly: the fusable shape the paper's §III-A.4 optimization
// targets. Unfused, every repetition materializes three full
// intermediates; fused, intermediates live in strip registers.
const chainedSrc = `
int main() {
	Matrix float <1> a = [0 :: 65535] * 1.0;
	Matrix float <1> b = [1 :: 65536] * 1.0;
	float s = 0.0;
	for (int i = 0; i < 40; i++) {
		Matrix float <1> r = a .* b + a - b * 0.5;
		s = s + r[end];
	}
	print(s);
	return 0;
}
`

// rangeLeafSrc and promotingLeafSrc are the two leaf kinds a chain has
// beside identifiers, each alone: a range on an int chain (no vector is
// built), an int matrix on a float chain (no conversion scratch), both
// over 64k cells, 40 repetitions. Fig 8's line is the two together.
const rangeLeafSrc = `
int main() {
	int lo = 1;
	int hi = 65536;
	int s = 0;
	for (int i = 0; i < 40; i++) {
		Matrix int <1> r = [lo :: hi] * 3 + i;
		s = s + r[end];
	}
	print(s);
	return 0;
}
`

const promotingLeafSrc = `
int main() {
	Matrix int <1> v = [1 :: 65536];
	float s = 0.0;
	for (int i = 0; i < 40; i++) {
		Matrix float <1> r = v * 0.5 + 1.0;
		s = s + r[end];
	}
	print(s);
	return 0;
}
`

// BenchmarkVetFacts times the fusion-legality proof pass alone, on a
// program with provable chains — the cost a driver cache miss pays
// before bytecode compilation.
func BenchmarkVetFacts(b *testing.B) {
	bp := compileBench(b, chainedSrc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vet.ComputeFacts(bp.prog, bp.info)
	}
	if _, chains := provenSites(bp.prog, bp.info); chains != 3 {
		b.Fatalf("%d chains proven, want 3 (the loop's chain and the two range-scaling initializers)", chains)
	}
}

// inlinedCallSrc is bench/programs/withloop_closure.xc: a genarray over
// a pure function with one if, which the plan emits in place.
const inlinedCallSrc = `
float weight(int i, int j) {
	if ((i + j) % 3 == 0) { return 2.0; }
	return 1.0 * ((i * j) % 5);
}
int main() {
	int n = 96;
	Matrix float <2> w;
	w = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], weight(i, j));
	float total = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, w[i, j]);
	print(total);
	return 0;
}
`

// BenchmarkVetFactsInlinedCall times the proof pass on a program whose
// genarray calls a pure function: the inliner's shape check and the
// plan it writes in place of the call.
func BenchmarkVetFactsInlinedCall(b *testing.B) {
	bp := compileBench(b, inlinedCallSrc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vet.ComputeFacts(bp.prog, bp.info)
	}
	if withs, _ := provenSites(bp.prog, bp.info); withs != 2 {
		b.Fatalf("%d with-loops proven, want 2 (the genarray through its call, and the fold)", withs)
	}
}

// BenchmarkFusedChain is the ablation pair: identical program and VM,
// fusion on (facts-driven opFused) vs off (nil facts, per-stage
// kernels). The contract elsewhere (vmdiff) holds the two observably
// identical; this measures the time and allocation difference — for the
// identifier chain (FusionOn, FusionOff) and for a range leaf and a
// promoting leaf, which also report ns a chain cell.
func BenchmarkFusedChain(b *testing.B) {
	for _, tc := range []struct {
		name, src string
		sites     int
	}{{"", chainedSrc, 3}, {"range_leaf/", rangeLeafSrc, 1}, {"promoting_leaf/", promotingLeafSrc, 1}} {
		bp := compileBench(b, tc.src)
		if bp.vmp.FusedSites() != tc.sites {
			b.Fatalf("%sFusedSites = %d, want %d", tc.name, bp.vmp.FusedSites(), tc.sites)
		}
		unfused, err := vm.CompileWithFacts(bp.prog, bp.info, nil)
		if err != nil {
			b.Fatalf("CompileWithFacts(nil): %v", err)
		}
		if unfused.FusedSites() != 0 {
			b.Fatalf("unfused FusedSites = %d, want 0", unfused.FusedSites())
		}
		opts := interp.Options{Threads: 1, Stdout: io.Discard}
		run := func(b *testing.B, p *vm.Program) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it := interp.New(bp.prog, bp.info, opts)
				_, err := vm.NewMachine(p, it).Run()
				it.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(40*65536), "ns/cell")
		}
		b.Run(tc.name+"FusionOn", func(b *testing.B) { run(b, bp.vmp) })
		b.Run(tc.name+"FusionOff", func(b *testing.B) { run(b, unfused) })
	}
}
