// White-box tests for vet.Facts-driven chain fusion: proven chains
// must lower to opFused (replacing the per-stage opBinM kernels), and
// everything the legality rules exclude must keep the generic
// lowering. Behavioral equivalence is covered by the dual-engine
// differential suite at the repository root.
package vm

import (
	"strings"
	"testing"

	"repro/internal/interp"
)

func TestCompileFusesElementwiseChain(t *testing.T) {
	p := compile(t, `
int main() {
	Matrix float <1> a = [0 :: 7] * 1.0;
	Matrix float <1> b = [1 :: 8] * 1.0;
	Matrix float <1> r = a .* b + a - b * 0.5;
	print(r[end]);
	return 0;
}`)
	// The three binary ops of the chain all fold into one opFused, and
	// the two range-scaling initializers are one-stage chains of a range
	// leaf: no opBinM, and no opRange, is left.
	if p.FusedSites() != 3 {
		t.Fatalf("FusedSites = %d, want 3", p.FusedSites())
	}
	ops := countOps(p)
	if ops[opFused] != 3 {
		t.Errorf("opFused emitted %d times, want 3: %v", ops[opFused], ops)
	}
	if ops[opBinM] != 0 || ops[opRange] != 0 {
		t.Errorf("opBinM emitted %d times and opRange %d, want neither: %v", ops[opBinM], ops[opRange], ops)
	}
	// A chain runs on the with-loop engine but is not a with-loop site.
	if p.WithCompiled() != 0 {
		t.Errorf("WithCompiled = %d, want 0", p.WithCompiled())
	}
}

func TestCompileFusedIntScalarOnFloatChainConverts(t *testing.T) {
	// An int scalar broadcast onto a float chain converts before the
	// loop, mirroring BroadcastExec's charge-free conversion: a literal
	// in the plan itself, an identifier through one opI2F.
	p := compile(t, `
int main() {
	Matrix float <1> a = [0 :: 7] * 1.0;
	int k = 3;
	Matrix float <1> r = a * 2 + a;
	Matrix float <1> q = a * k - a;
	print(r[7]);
	print(q[7]);
	return 0;
}`)
	if p.FusedSites() != 3 {
		t.Fatalf("FusedSites = %d, want 3 (r, q and a's initializer)", p.FusedSites())
	}
	if ops := countOps(p); ops[opI2F] != 1 {
		t.Errorf("opI2F emitted %d times, want 1 (the identifier k): %v", ops[opI2F], ops)
	}
	var out strings.Builder
	i := interp.New(p.prog, p.info, interp.Options{Stdout: &out})
	defer i.Close()
	if _, err := NewMachine(p, i).Run(); err != nil {
		t.Fatal(err)
	}
	if want := "21\n14\n"; out.String() != want {
		t.Errorf("stdout = %q, want %q", out.String(), want)
	}
}

func TestCompileDeclinesUnprovenChains(t *testing.T) {
	for _, tc := range []struct {
		name, src string
	}{
		{"matmul_stage", `
int main() {
	Matrix float <2> a = init(Matrix float <2>, 2, 2);
	Matrix float <2> r = a * a + a;
	print(r[0, 0]);
	return 0;
}`},
		{"int_division", `
int main() {
	Matrix int <1> a = [1 :: 4];
	Matrix int <1> r = a / 2 + a;
	print(r[0]);
	return 0;
}`},
		{"single_stage", `
int main() {
	Matrix float <1> a = init(Matrix float <1>, 4);
	Matrix float <1> r = a + a;
	print(r[0]);
	return 0;
}`},
		{"call_leaf", `
Matrix float <1> mk() { return init(Matrix float <1>, 4); }
int main() {
	Matrix float <1> a = init(Matrix float <1>, 4);
	Matrix float <1> r = mk() + a - a;
	print(r[0]);
	return 0;
}`},
		{"range_bound_is_a_call", `
int two() { return 2; }
int main() {
	Matrix float <1> r = [two() :: 5] * 1.5 + 0.5;
	print(r[0]);
	return 0;
}`},
		{"range_int_division_and_remainder", `
int main() {
	Matrix int <1> d = [1 :: 8] / 2 + 1;
	Matrix int <1> m = [1 :: 8] % 4 + 1;
	print(d[0] + m[0]);
	return 0;
}`},
		{"comparison_root", `
int main() {
	Matrix int <1> a = [1 :: 4];
	Matrix bool <1> r = a + a > a;
	print(r[0]);
	return 0;
}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := compile(t, tc.src)
			if p.FusedSites() != 0 {
				t.Errorf("FusedSites = %d, want 0 (chain must not be proven)", p.FusedSites())
			}
		})
	}
}

func TestFusedChainRunsCorrectly(t *testing.T) {
	p := compile(t, `
int main() {
	Matrix float <1> a = [0 :: 4] * 1.0;
	Matrix float <1> b = [10 :: 14] * 1.0;
	Matrix float <1> r = a .* b + b - a * 2.0;
	print(r[0]);
	print(r[end]);
	Matrix int <1> u = [1 :: 5];
	Matrix int <1> w = u .* u + u - u .* 2;
	print(w[0]);
	print(w[end]);
	return 0;
}`)
	if p.FusedSites() != 4 {
		t.Fatalf("FusedSites = %d, want 4 (r, w and the two range-scaling initializers)", p.FusedSites())
	}
	before, flat := FusedLoopsRun(), WithFlatLoopsRun()
	var out strings.Builder
	i := interp.New(p.prog, p.info, interp.Options{Stdout: &out})
	defer i.Close()
	if _, err := NewMachine(p, i).Run(); err != nil {
		t.Fatal(err)
	}
	// a=[0..4], b=[10..14]: r[0]=0*10+10-0=10, r[4]=4*14+14-8=62.
	// u=[1..5]: w[0]=1+1-2=0, w[4]=25+5-10=20.
	want := "10\n62\n0\n20\n"
	if out.String() != want {
		t.Errorf("stdout = %q, want %q", out.String(), want)
	}
	if got := FusedLoopsRun() - before; got != 4 {
		t.Errorf("FusedLoopsRun advanced by %d, want 4", got)
	}
	if got := WithFlatLoopsRun() - flat; got != 0 {
		t.Errorf("WithFlatLoopsRun advanced by %d, want 0: a chain run is a fused loop, not a flat with-loop", got)
	}
}
