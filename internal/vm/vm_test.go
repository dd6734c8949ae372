// White-box compiler tests: the fused opcode forms the whole exercise
// is about must actually be emitted for the shapes they target, and
// the compiler must decline (never panic on) programs it cannot prove
// lowerable. Behavioral equivalence with the tree walker is covered by
// the dual-engine differential suite at the repository root.
package vm

import (
	"bytes"
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

func TestCompileFusesScalarLoop(t *testing.T) {
	p := compile(t, `
int main() {
	int s = 0;
	for (int i = 0; i < 100; i++) { s = s + i; }
	while (s > 10) { s = s - 3; }
	return s;
}`)
	ops := countOps(p)
	if ops[opBrLtIK]+ops[opBrGtIK] == 0 {
		t.Errorf("no fused compare-and-branch-with-immediate emitted: %v", ops)
	}
	if ops[opAddIK] == 0 {
		t.Errorf("no fused add-immediate emitted (i++ / s - 3): %v", ops)
	}
	if ops[opBinM] != 0 {
		t.Errorf("scalar-only program fell back to the dynamic operator %d times", ops[opBinM])
	}
}

func TestCompileFusesRank1Indexing(t *testing.T) {
	p := compile(t, `
int main() {
	Matrix float <1> a = init(Matrix float <1>, 8);
	for (int i = 0; i < 8; i++) { a[i] = (float)i; }
	float s = 0.0;
	for (int i = 0; i < 8; i++) { s = s + a[i]; }
	return (int)s;
}`)
	ops := countOps(p)
	if ops[opSetIdx1F] == 0 {
		t.Errorf("no fused rank-1 store emitted: %v", ops)
	}
	if ops[opIdx1F] == 0 {
		t.Errorf("no fused rank-1 load emitted: %v", ops)
	}
}

func TestCompileStepPerStatement(t *testing.T) {
	// One opStep per statement: main has exactly 3 statements (decl,
	// expression statement, return) plus the body block entry.
	p := compile(t, `
int main() {
	int x = 1;
	print(x);
	return 0;
}`)
	mp := p.protos[p.main]
	steps := 0
	for _, in := range mp.code {
		if in.op == opStep {
			steps++
		}
	}
	if steps != 4 {
		t.Errorf("main compiled with %d step ticks, want 4 (block + 3 statements)", steps)
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
