// White-box compiler tests: the fused opcode forms the whole exercise
// is about must actually be emitted for the shapes they target, and
// the compiler must decline (never panic on) programs it cannot prove
// lowerable. Behavioral equivalence with the tree walker is covered by
// the dual-engine differential suite at the repository root.
package vm

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

func compile(t *testing.T, src string) *Program {
	t.Helper()
	var d source.Diagnostics
	p := parser.ParseFile("t.xc", src, parser.AllExtensions(), &d)
	if p == nil {
		t.Fatalf("parse failed:\n%s", d.String())
	}
	info := sem.Check(p, &d)
	if d.HasErrors() {
		t.Fatalf("check failed:\n%s", d.String())
	}
	prog, err := Compile(p, info)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return prog
}

// countOps tallies opcodes across all protos (ginit included).
func countOps(p *Program) map[opcode]int {
	n := map[opcode]int{}
	for _, pr := range p.protos {
		for _, in := range pr.code {
			n[in.op]++
		}
	}
	for _, in := range p.ginit.code {
		n[in.op]++
	}
	return n
}

// loops lists every loop of pr as the compiler laid it out: for each
// instruction that jumps backwards, the code from its target to itself,
// one instruction a line — what one iteration dispatches when no branch
// inside it is taken.
func loops(pr *proto) []string {
	var out []string
	for pc, in := range pr.code {
		if in.op.branches() && int(in.c) <= pc {
			var b strings.Builder
			for _, body := range pr.code[in.c : pc+1] {
				b.WriteString(body.String() + "\n")
			}
			out = append(out, b.String())
		}
	}
	return out
}

func TestOpcodeNames(t *testing.T) {
	if len(opNames) != int(opCount) {
		t.Fatalf("%d opcode names for %d opcodes", len(opNames), opCount)
	}
	for op, want := range map[opcode]string{opNop: "Nop", opIncJLtIK: "IncJLtIK", opMove: "Move",
		opModIK: "ModIK", opBindR: "BindR", opSetIdx1B: "SetIdx1B", opDimEnd: "DimEnd", opWithFold: "WithFold"} {
		if op.String() != want {
			t.Errorf("opcode %d is named %s, want %s", op, op, want)
		}
	}
}

// The hot loops of the scalar benchmark programs as golden listings
// (name a b c, see program.go): a change to the compiler that adds a
// dispatch to an iteration, or brings a move back, shows here.

func TestCompileFusesScalarLoop(t *testing.T) {
	p := compile(t, `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int trough(Matrix float <1> ts, int i, int n) {
	while (i + 1 < n && ts[i] >= ts[i + 1]) { i = i + 1; }
	return i;
}
int main() {
	int s = 0;
	for (int i = 0; i < 400000; i++) {
		s = s + i * 3 - 1;
	}
	print(s);
	return fib(21) + trough(init(Matrix float <1>, 4), 0, 4);
}`)
	// scalar_loop, six dispatches an iteration: both statement entries of
	// the body in one tick, three arithmetic instructions the last of
	// which writes s itself, the post statement's tick, and i++ with the
	// bottom test and the jump back.
	want := []string{"Step 2 0 0\nMulIK 2 1 3\nAddI 3 0 2\nAddIK 0 3 -1\nStep 1 0 0\nIncJLtIK 1 400000 5\n"}
	if got := loops(p.protos[p.main]); !slices.Equal(got, want) {
		t.Errorf("loops of main:\n%q\nwant\n%q\n%s", got, want, p.protos[p.main].disasm())
	}
	// fib_rec: results land where they are used, no opMove anywhere.
	wantFib := "0: Step 2 0 0\n1: BrLtIK 0 2 4\n2: Step 2 0 0\n3: Ret 0 0 0\n4: Step 1 0 0\n" +
		"5: AddIK 1 0 -1\n6: Call 2 0 0\n7: AddIK 3 0 -2\n8: Call 4 0 0\n9: AddI 5 2 4\n10: Ret 5 0 0\n"
	if got := p.protos[0].disasm(); got != wantFib {
		t.Errorf("fib compiled to\n%swant\n%s", got, wantFib)
	}
	// The shape of the paper's Fig 8 helpers: a while over two indexed
	// loads with && in the condition and i = i + 1 last in the body. The
	// bottom test branches per operand, back to the body while both hold.
	want = []string{"Step 2 0 0\nAddIK 1 1 1\nAddIK 8 1 1\nBrLtI 8 2 17\nIdx1F 9 0 1\nAddIK 10 1 1\nIdx1F 11 0 10\nGeF 12 9 11\nBrTrue 12 0 8\n"}
	if got := loops(p.protos[1]); !slices.Equal(got, want) {
		t.Errorf("loops of trough:\n%q\nwant\n%q\n%s", got, want, p.protos[1].disasm())
	}
	if n := countOps(p)[opMove] + countOps(p)[opBinM] + countOps(p)[opJmp]; n != 0 {
		t.Errorf("%d opMove, opBinM or opJmp instructions in a program of scalar loops", n)
	}
}

func TestCompileFusesRank1Indexing(t *testing.T) {
	p := compile(t, `
int main() {
	Matrix float <1> a = init(Matrix float <1>, 4096);
	for (int i = 0; i < 4096; i++) {
		a[i] = (float)(i % 97);
	}
	float s = 0.0;
	for (int r = 0; r < 32; r++) {
		for (int i = 0; i < 4096; i++) {
			s = s + a[i];
		}
	}
	print(s);
	return 0;
}`)
	// index_sum. The store loop is six and the inner load loop five: no
	// opIdxCheck before an index that cannot fail, no opDimEnd nobody
	// reads, % by a literal without a zero test, the load's sum into s.
	store := "Step 2 0 0\nModIK 5 4 97\nI2F 6 5 0\nSetIdx1F 0 4 6\nStep 1 0 0\nIncJLtIK 4 4096 9\n"
	inner := "Step 2 0 0\nIdx1F 10 0 9\nAddF 7 7 10\nStep 1 0 0\nIncJLtIK 9 4096 24\n"
	outer := "Step 2 0 0\nStep 1 0 0\nConstI 9 0 0\nBrLtIK 9 4096 29\n" + inner + "Step 1 0 0\nIncJLtIK 8 32 20\n"
	if got, want := loops(p.protos[p.main]), []string{store, inner, outer}; !slices.Equal(got, want) {
		t.Errorf("loops of main:\n%q\nwant\n%q\n%s", got, want, p.protos[p.main].disasm())
	}
}

// A statement ticks once wherever its entry was merged: main has
// exactly 3 statements (decl, expression statement, return) plus the
// body block entry, and the block's tick shares an instruction with the
// declaration's.
func TestCompileStepPerStatement(t *testing.T) {
	p := compile(t, `
int main() {
	int x = 1;
	print(x);
	return 0;
}`)
	ticks, steps := 0, 0
	for _, in := range p.protos[p.main].code {
		if in.op == opStep {
			steps++
			ticks += int(in.a)
		}
	}
	if ticks != 4 || steps != 3 {
		t.Errorf("main compiled with %d ticks in %d step instructions, want 4 in 3 (block + 3 statements)\n%s",
			ticks, steps, p.protos[p.main].disasm())
	}
	// Global initializers never tick.
	for _, in := range p.ginit.code {
		if in.op == opStep {
			t.Error("ginit must not tick the step budget")
		}
	}
}

func TestMachineRunsCompiledProgram(t *testing.T) {
	p := compile(t, `
int main() {
	int s = 0;
	for (int i = 1; i <= 10; i++) { s = s + i; }
	print(s);
	return s % 7;
}`)
	var out strings.Builder
	i := interp.New(p.prog, p.info, interp.Options{Stdout: &out})
	defer i.Close()
	code, err := NewMachine(p, i).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "55\n" {
		t.Errorf("stdout = %q, want %q", out.String(), "55\n")
	}
	if code != 55%7 {
		t.Errorf("exit code = %d, want %d", code, 55%7)
	}
}

func TestCompileSharesProgramAcrossMachines(t *testing.T) {
	// One compiled Program must be reusable by concurrent machines
	// (the driver caches it); run it twice and from two goroutines.
	p := compile(t, `
int g = 3;
int main() { g = g + 1; return g; }`)
	done := make(chan int, 2)
	for k := 0; k < 2; k++ {
		go func() {
			i := interp.New(p.prog, p.info, interp.Options{Stdout: &strings.Builder{}})
			defer i.Close()
			code, err := NewMachine(p, i).Run()
			if err != nil {
				t.Error(err)
			}
			done <- code
		}()
	}
	for k := 0; k < 2; k++ {
		if code := <-done; code != 4 {
			t.Errorf("exit code = %d, want 4 (each machine owns its globals)", code)
		}
	}
}

// A Program is shared by concurrent runs, and since frames are pooled on
// its protos so is that scratch: runs of one program on several
// goroutines — recursion, a spawn, a with-loop body that calls, and in
// every fourth run an error exit that drops its frames — must each see
// only their own registers. Under -race this is also the proof that a
// frame is never in two activations at once.
func TestSharedProgramConcurrentRuns(t *testing.T) {
	p := compile(t, `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
Matrix int <1> row(int n, int seed) {
	Matrix int <1> held;
	if (n == 0 && seed == 3) { print(held[0]); }
	if (n == 0) { held = [seed :: seed + 3]; return held; }
	Matrix int <1> below = row(n - 1, seed);
	return with ([0] <= [i] < [4]) genarray([4], below[i] + fib(i + 3));
}
int main() {
	Matrix int <1> cfg = readMatrix("cfg");
	int a = 0;
	spawn a = fib(12);
	Matrix int <1> r = row(3, cfg[0]);
	sync;
	print(a + r[0] + r[3]);
	return 0;
}`)
	want := []string{"177\n", "179\n", "181\n", ""}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				seed := (g + k) % 4
				var out bytes.Buffer
				i := interp.New(p.prog, p.info, interp.Options{Stdout: &out, Threads: 1 + g%2,
					Files: map[string]*matrix.Matrix{"cfg": matrix.FromInts([]int64{int64(seed)}, 1)}})
				_, err := NewMachine(p, i).Run()
				i.Close()
				if (err != nil) != (seed == 3) || out.String() != want[seed] {
					t.Errorf("goroutine %d run %d seed %d: printed %q, error %v", g, k, seed, out.String(), err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBailsAreCheckerRejected: the VM compiles the checker's verdicts,
// and defers none of them to run time. Each program below reaches one of
// the compile-time bails that replaced a deferred diagnosis — a
// with-loop's element type, a matrixMap's dimension, function or element
// type — and the checker rejects every one, so no checked program meets
// them.
func TestBailsAreCheckerRejected(t *testing.T) {
	for _, tc := range []struct{ name, body, decls, want string }{
		{"genarray matrix body", "Matrix int <1> r = with ([0] <= [i] < [2]) genarray([2], m);", "",
			"genarray element expression must be scalar"},
		{"genarray string body", `Matrix int <1> r = with ([0] <= [i] < [2]) genarray([2], "s");`, "",
			"genarray element expression must be scalar"},
		{"matrixMap dimension", "int d = 1;\n\tMatrix int <2> r = matrixMap(f, g, [d]);", "Matrix int <1> f(Matrix int <1> v) { return v; }\n",
			"matrixMap dimensions must be integer literals"},
		{"matrixMap function", "Matrix int <2> r = matrixMap(h, g, [1]);", "",
			`undeclared function "h" in matrixMap`},
		{"matrixMap element type", "Matrix int <2> r = matrixMap(f, g, [1]);", "Matrix int <2> f(Matrix int <1> v) { return g; }\n",
			"matrixMap function \"f\" must return a rank-1 matrix"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := "Matrix int <2> g = init(Matrix int <2>, 2, 2);\n" + tc.decls +
				"int main() {\n\tMatrix int <1> m = [0 :: 1];\n\t" + tc.body + "\n\treturn 0;\n}"
			var d source.Diagnostics
			p := parser.ParseFile("t.xc", src, parser.AllExtensions(), &d)
			if p == nil {
				t.Fatalf("parse failed:\n%s", d.String())
			}
			info := sem.Check(p, &d)
			if !strings.Contains(d.String(), tc.want) {
				t.Errorf("the checker said\n%s\nwant a diagnostic with %q", d.String(), tc.want)
			}
			if _, err := Compile(p, info); err == nil {
				t.Error("the VM compiles it regardless: no bail")
			}
		})
	}
}
