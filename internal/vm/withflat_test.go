// White-box tests for vet.Facts-driven with-loop compilation: proven
// genarray/fold bodies must lower to opWithGen/opWithFold and run on
// the flat engine; everything the legality rules exclude must keep the
// closure lowering. Behavioral equivalence is covered by the
// dual-engine differential suite at the repository root.
package vm

import (
	"strings"
	"testing"

	"repro/internal/interp"
)

func TestCompileWithFlatSites(t *testing.T) {
	p := compile(t, `
int main() {
	int n = 8;
	Matrix float <2> m;
	m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], (float)i * 2.0 + j);
	Matrix float <2> tr;
	tr = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], m[j, i]);
	float s = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, m[i, j] * tr[j, i]);
	print(s);
	return 0;
}`)
	if got := p.WithCompiled(); got != 3 {
		t.Fatalf("WithCompiled = %d, want 3", got)
	}
	ops := countOps(p)
	if ops[opWithGen] != 2 || ops[opWithFold] != 1 {
		t.Errorf("opWithGen = %d, opWithFold = %d, want 2 and 1: %v",
			ops[opWithGen], ops[opWithFold], ops)
	}
	if ops[opWith] != 0 {
		t.Errorf("opWith emitted %d times, want 0 (all sites proven)", ops[opWith])
	}
}

func TestCompileDeclinesUnprovenWithBodies(t *testing.T) {
	for _, tc := range []struct {
		name, src string
	}{
		{"call_in_body", `
float f(int i) { print(i); return (float)i; }
int main() {
	Matrix float <1> m;
	m = with ([0] <= [i] < [4]) genarray([4], f(i));
	print(m[0]);
	return 0;
}`},
		{"global_matrix_leaf", `
Matrix float <1> g = [0 :: 3] * 1.0;
int main() {
	Matrix float <1> m;
	m = with ([0] <= [i] < [4]) genarray([4], g[i] + 1.0);
	print(m[0]);
	return 0;
}`},
		{"modulo_variable_body", `
int main() {
	int d = 3;
	Matrix int <1> m;
	m = with ([0] <= [i] < [4]) genarray([4], i % d);
	print(m[0]);
	return 0;
}`},
		{"int_division_zero_body", `
int main() {
	Matrix int <1> m;
	m = with ([0] <= [i] < [4]) genarray([4], i / 0);
	print(m[0]);
	return 0;
}`},
		{"nested_bound_along_strip", `
int main() {
	Matrix int <1> m;
	m = with ([0] <= [i] < [4])
		genarray([4], with ([0] <= [k] < [i]) fold(+, 0, k));
	print(m[3]);
	return 0;
}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := compile(t, tc.src)
			ops := countOps(p)
			switch tc.name {
			case "global_matrix_leaf":
				// A global leaf is no reason to decline: it is loaded once,
				// at loop entry, as a chain's global leaves are.
				if p.WithCompiled() != 1 || ops[opWith] != 0 || ops[opWithGen] != 1 {
					t.Errorf("WithCompiled = %d, opWith = %d, opWithGen = %d, want 1/0/1",
						p.WithCompiled(), ops[opWith], ops[opWithGen])
				}
			case "nested_bound_along_strip":
				// The triangular outer genarray keeps the closure path, but
				// the inner fold compiles flat inside the body proto (its
				// leaves are the outer ids, plain int locals there).
				if p.WithCompiled() != 1 || ops[opWith] != 1 || ops[opWithFold] != 1 {
					t.Errorf("WithCompiled = %d, opWith = %d, opWithFold = %d, want 1/1/1",
						p.WithCompiled(), ops[opWith], ops[opWithFold])
				}
			default:
				if p.WithCompiled() != 0 {
					t.Errorf("WithCompiled = %d, want 0 (body must not be proven)", p.WithCompiled())
				}
				if ops[opWithGen]+ops[opWithFold] != 0 {
					t.Errorf("flat opcodes emitted for an unproven body: %v", ops)
				}
			}
		})
	}
}

// TestCompileWithNestedFoldSites: a fold nested in a genarray or fold
// body compiles as part of the outer site's plan; literal % and / no
// longer keep a body off the flat engine.
func TestCompileWithNestedFoldSites(t *testing.T) {
	p := compile(t, `
int main() {
	int p = 3;
	Matrix float <1> m;
	m = with ([0] <= [i] < [4])
		genarray([4], with ([0] <= [k] < [p]) fold(+, 0.0, (float)((i + k) % 5)) / p);
	print(m[0]);
	return 0;
}`)
	ops := countOps(p)
	// Outer site flat; the inner fold is compiled flat too, inside the
	// body proto the outer site falls back to.
	if p.WithCompiled() != 2 || ops[opWith] != 0 || ops[opWithGen] != 1 || ops[opWithFold] != 1 {
		t.Errorf("WithCompiled = %d, opWith = %d, opWithGen = %d, opWithFold = %d, want 2/0/1/1",
			p.WithCompiled(), ops[opWith], ops[opWithGen], ops[opWithFold])
	}
	before, declined := WithFlatLoopsRun(), WithFlatLoopsDeclined()
	var out strings.Builder
	i := interp.New(p.prog, p.info, interp.Options{Stdout: &out})
	defer i.Close()
	if _, err := NewMachine(p, i).Run(); err != nil {
		t.Fatal(err)
	}
	// m[0] = (0%5 + 1%5 + 2%5) / 3 = 1
	if want := "1\n"; out.String() != want {
		t.Errorf("stdout = %q, want %q", out.String(), want)
	}
	if got := WithFlatLoopsRun() - before; got != 1 {
		t.Errorf("WithFlatLoopsRun advanced by %d, want 1 (the inner fold runs inside the outer plan)", got)
	}
	if got := WithFlatLoopsDeclined() - declined; got != 0 {
		t.Errorf("WithFlatLoopsDeclined advanced by %d, want 0", got)
	}
}

// TestWithFlatInlinedCalls: a body calling a pure function compiles to a
// flat plan that runs flat when the run has no step budget and its
// depth leaves room for the callee's frame; under a budget, or deep
// enough that the call traps, the closure path runs it — with the same
// output and trap, and without counting a decline.
func TestWithFlatInlinedCalls(t *testing.T) {
	p := compile(t, `
float weight(int i, int j) {
	if ((i + j) % 3 == 0) { return 2.0; }
	return 1.0 * ((i * j) % 5);
}
float at(int n) {
	if (n > 0) { return at(n - 1); }
	Matrix float <2> w;
	w = with ([0, 0] <= [i, j] < [6, 6]) genarray([6, 6], weight(i, j));
	return w[2, 3] + w[4, 5] + w[1, 1];
}
int main() {
	print(at(0));
	print(at(509));
	print(at(510));
	return 0;
}`)
	if got := p.WithCompiled(); got != 1 {
		t.Fatalf("WithCompiled = %d, want 1", got)
	}
	for _, tc := range []struct {
		opts interp.Options
		flat int64
	}{
		{interp.Options{}, 2},
		{interp.Options{MaxSteps: 1 << 20}, 0},
	} {
		ran, declined := WithFlatLoopsRun(), WithFlatLoopsDeclined()
		var out strings.Builder
		tc.opts.Stdout = &out
		i := interp.New(p.prog, p.info, tc.opts)
		_, err := NewMachine(p, i).Run()
		i.Close()
		// The with-loop at(510) reaches sits at depth 512: its callee's
		// frame is the 513th.
		if err == nil || !strings.Contains(err.Error(), "call stack exceeded 512 frames") {
			t.Errorf("MaxSteps %d: err = %v, want the depth trap", tc.opts.MaxSteps, err)
		}
		if want := "4\n4\n"; out.String() != want {
			t.Errorf("MaxSteps %d: stdout = %q, want %q", tc.opts.MaxSteps, out.String(), want)
		}
		if got := WithFlatLoopsRun() - ran; got != tc.flat {
			t.Errorf("MaxSteps %d: %d flat runs, want %d", tc.opts.MaxSteps, got, tc.flat)
		}
		if got := WithFlatLoopsDeclined() - declined; got != 0 {
			t.Errorf("MaxSteps %d: %d declines, want 0", tc.opts.MaxSteps, got)
		}
	}
}

func TestWithFlatRunsCorrectly(t *testing.T) {
	p := compile(t, `
int main() {
	int n = 6;
	Matrix int <2> m;
	m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], i * 10 + j);
	Matrix int <2> tr;
	tr = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], m[j, i]);
	print(tr[1, 4]);
	int s = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0, m[i, j]);
	print(s);
	float shifted = with ([1] <= [i] < [5])
		fold(+, 0.0, (float)(m[0, i] - m[0, i - 1]));
	print(shifted);
	return 0;
}`)
	if got := p.WithCompiled(); got != 4 {
		t.Fatalf("WithCompiled = %d, want 4", got)
	}
	before := WithFlatLoopsRun()
	var out strings.Builder
	i := interp.New(p.prog, p.info, interp.Options{Stdout: &out})
	defer i.Close()
	if _, err := NewMachine(p, i).Run(); err != nil {
		t.Fatal(err)
	}
	// tr[1,4] = m[4,1] = 41; sum of i*10+j over 6x6 = 990; the
	// telescoping shifted sum over row 0 is m[0,4]-m[0,0] = 4.
	want := "41\n990\n4\n"
	if out.String() != want {
		t.Errorf("stdout = %q, want %q", out.String(), want)
	}
	if got := WithFlatLoopsRun() - before; got != 4 {
		t.Errorf("WithFlatLoopsRun advanced by %d, want 4", got)
	}
}

func TestWithFlatScalarLeaves(t *testing.T) {
	p := compile(t, `
int main() {
	int bias = 7;
	float scale = 0.5;
	Matrix float <1> m;
	m = with ([0] <= [i] < [8]) genarray([8], (float)(i + bias) * scale);
	print(m[0]);
	print(m[7]);
	return 0;
}`)
	if got := p.WithCompiled(); got != 1 {
		t.Fatalf("WithCompiled = %d, want 1", got)
	}
	var out strings.Builder
	i := interp.New(p.prog, p.info, interp.Options{Stdout: &out})
	defer i.Close()
	if _, err := NewMachine(p, i).Run(); err != nil {
		t.Fatal(err)
	}
	if want := "3.5\n7\n"; out.String() != want {
		t.Errorf("stdout = %q, want %q", out.String(), want)
	}
}

// TestWithFlatAdmissionAllocs pins the per-execution cost of the flat
// engine's admission: a 16x16 flat genarray in a loop allocates its
// output matrix's header (the cells come back from the free list), which
// holds the count its binding takes — not a shape, strides, bounds,
// leaves, an evaluator and index buffers per loop, since PR 25 no
// row closure (a one-chunk fill hands none to par) and no release hook
// (the matrix is its own), and since PR 27 no rc header beside the
// matrix's. Before the strip engine the same loop took 14, with a
// three-object header 7, then 4, then 2; bench's withloop_flat_small,
// which also indexes the result, went from 21 a loop to 11 to 5 to 3 to
// 2.
func TestWithFlatAdmissionAllocs(t *testing.T) {
	per := allocsPerLoop(t, func(loops string) string {
		return `
int main() {
	int n = 16;
	for (int r = 0; r < ` + loops + `; r++) {
		Matrix float <2> g;
		g = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 1.0 * (i + j + r));
	}
	return 0;
}`
	}, func(p *Program) bool { return p.WithCompiled() == 1 })
	if per > 1.1 { // 1, and what a collection in mid-run drops from the pools
		t.Errorf("%.2f allocations per 16x16 flat genarray execution, want 1", per)
	}
}

// TestChainAdmissionAllocs pins a warm chain execution to the same
// pooled run and strip state: what an 8x8 chain in a loop allocates is
// its result (one header, the count in it, and, under the free list's
// 256 cells, its cells) — no stage table, leaf views or scratch per
// execution, no chunk closure, no release hook and no rc header. The
// block engine took 13, the strip engine 5 until PR 25, then 3.
func TestChainAdmissionAllocs(t *testing.T) {
	per := allocsPerLoop(t, func(loops string) string {
		return `
int main() {
	Matrix float <2> a = init(Matrix float <2>, 8, 8);
	Matrix float <2> b = init(Matrix float <2>, 8, 8);
	for (int r = 0; r < ` + loops + `; r++) {
		Matrix float <2> c = a .* b + a - b * 0.5;
	}
	return 0;
}`
	}, func(p *Program) bool { return p.FusedSites() == 1 })
	if per > 2.1 {
		t.Errorf("%.2f allocations per chain execution, want 2", per)
	}
}

// A call whose arguments and result are scalars of their parameters'
// classes moves registers to registers: the frame comes from the proto's
// pool and nothing is boxed, so a warm call allocates nothing — an int
// promoted into a float parameter included. It took three objects (the
// frame, its registers, a boxed value) while frames were made per call.
func TestScalarCallAllocatesNothing(t *testing.T) {
	per := allocsPerLoop(t, func(loops string) string {
		return `
float scale(int k, float by, bool neg) {
	if (neg) { return 0.0 - by * k; }
	return by * k;
}
int next(int k) { return k * 1000 + 7; }
int main() {
	float acc = 0.0;
	for (int r = 0; r < ` + loops + `; r++) {
		acc = acc + scale(next(r), r, r % 2 == 0);
	}
	if (acc < 0.0) { return 1; }
	return 0;
}`
	}, func(p *Program) bool { return p.Funcs() == 3 })
	// A collection in mid-run may empty the pools once: four objects in
	// a thousand trips, never one a call.
	if per > 0.01 {
		t.Errorf("%.3f allocations per pair of scalar calls, want none", per)
	}
}

// A tuple literal returned into a destructuring assignment rides in
// registers: no []any, no boxed element, an int promoted into a float
// element or target included, and a matrix element costs what the matrix
// does (one object: five cells fit in the header's). The []any, its
// boxed header and a boxed int an element made it four objects a call.
func TestTupleCallAllocatesNothing(t *testing.T) {
	per := allocsPerLoop(t, func(loops string) string {
		return `
(int, int, bool) divmod(int a, int b) { return (a / b, a % b, a % b == 0); }
(float, float) halves(int a) { return (a / 2, a * 0.5); }
int main() {
	int q; int r; bool exact; float h; float w;
	int hits = 0;
	for (int i = 1; i < ` + loops + ` + 1; i++) {
		(q, r, exact) = divmod(i * 7001, 5);
		(h, w) = halves(q);
		(w, h) = halves(r);
		if (exact) { hits = hits + 1; }
	}
	return hits % 7;
}`
	}, func(p *Program) bool { return p.Funcs() == 3 })
	if per > 0.01 {
		t.Errorf("%.3f allocations per three tuple-returning calls, want none", per)
	}
	per = allocsPerLoop(t, func(loops string) string {
		return `
(Matrix int <1>, int) cut(Matrix int <1> v, int i) { return (v[i :: i + 4], i + 1); }
int main() {
	Matrix int <1> v = [0 :: 2000];
	Matrix int <1> piece; int i = 0;
	for (int r = 0; r < ` + loops + `; r++) {
		(piece, i) = cut(v, i);
	}
	return i % 7;
}`
	}, func(p *Program) bool { return p.Funcs() == 2 })
	if per > 1.1 {
		t.Errorf("%.2f allocations per call returning a five-cell matrix in a tuple, want 1", per)
	}
}

// allocsPerLoop reports what one trip of src's loop allocates: a run of
// 1000 trips against a run of none, on a warm program that passes ok.
func allocsPerLoop(t *testing.T, src func(loops string) string, ok func(*Program) bool) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("pooled scratch is dropped at random under the race detector")
	}
	allocs := func(loops string) float64 {
		p := compile(t, src(loops))
		if !ok(p) {
			t.Fatalf("the loop body did not compile to the site under test")
		}
		return testing.AllocsPerRun(5, func() {
			i := interp.New(p.prog, p.info, interp.Options{})
			defer i.Close()
			if _, err := NewMachine(p, i).Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	return (allocs("1000") - allocs("0")) / 1000
}
