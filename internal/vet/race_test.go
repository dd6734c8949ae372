package vet

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

// --- determinacy-race detector (race.go) ---

func TestRaceSpawnWritesGlobalContinuationReads(t *testing.T) {
	findings := vetSrc(t, `
int ga = 0;
int bump() { ga = ga + 1; return ga; }
int main() {
	int x = 0;
	spawn x = bump();
	print(ga);
	sync;
	return x;
}`)
	wantCodes(t, findings, CodeRace)
	f := findings[0]
	if !strings.Contains(f.Message, `global "ga"`) {
		t.Errorf("message should name the global: %q", f.Message)
	}
	if len(f.Related) != 1 {
		t.Fatalf("want one related span (the spawn), got %v", f.Related)
	}
	if !f.Related[0].Span.Start.IsValid() {
		t.Errorf("related spawn span is invalid: %v", f.Related[0])
	}
	if f.Severity != source.Warning {
		t.Errorf("severity = %v, want warning", f.Severity)
	}
}

func TestRaceSpawnWritesParamContinuationReads(t *testing.T) {
	findings := vetSrc(t, `
void fill(Matrix float <1> m, float v) { m[0] = v; return; }
int main() {
	Matrix float <1> m = init(Matrix float <1>, 4);
	spawn fill(m, 1.0);
	print(m[0]);
	sync;
	return 0;
}`)
	wantCodes(t, findings, CodeRace)
	if !strings.Contains(findings[0].Message, `"m"`) {
		t.Errorf("message should name the matrix: %q", findings[0].Message)
	}
}

func TestRaceContinuationWritesSpawnReads(t *testing.T) {
	findings := vetSrc(t, `
float total(Matrix float <1> m) {
	float s = 0.0;
	for (int i = 0; i < dimSize(m, 0); i = i + 1) { s = s + m[i]; }
	return s;
}
int main() {
	Matrix float <1> m = init(Matrix float <1>, 8);
	float s = 0.0;
	spawn s = total(m);
	m[3] = 7.0;
	sync;
	print(s);
	return 0;
}`)
	wantCodes(t, findings, CodeRace)
}

func TestRaceSpawnVsSpawn(t *testing.T) {
	findings := vetSrc(t, `
int ga = 0;
int bump() { ga = ga + 1; return ga; }
int main() {
	int x = 0;
	int y = 0;
	spawn x = bump();
	spawn y = bump();
	sync;
	return x + y;
}`)
	wantCodes(t, findings, CodeRace)
	if !strings.Contains(findings[0].Message, "spawned calls") {
		t.Errorf("want the spawn-vs-spawn wording, got %q", findings[0].Message)
	}
}

func TestRaceTransitiveThroughHelper(t *testing.T) {
	// The effect reaches the spawn through two call-graph hops, so the
	// detector depends on the interprocedural fixpoint.
	findings := vetSrc(t, `
int ga = 0;
int bump() { ga = ga + 1; return ga; }
int helper() { return bump() * 2; }
int main() {
	int x = 0;
	spawn x = helper();
	print(ga);
	sync;
	return x;
}`)
	wantCodes(t, findings, CodeRace)
}

func TestRaceRecursiveSummaryConverges(t *testing.T) {
	findings := vetSrc(t, `
int ga = 0;
int down(int n) {
	if (n <= 0) { return 0; }
	ga = ga + 1;
	return down(n - 1);
}
int main() {
	int x = 0;
	spawn x = down(5);
	print(ga);
	sync;
	return x;
}`)
	wantCodes(t, findings, CodeRace)
}

func TestRaceCrossIterationInLoop(t *testing.T) {
	// The spawn from iteration i is still outstanding when iteration
	// i+1 writes the global: only the loop re-scan sees this.
	findings := vetSrc(t, `
int ga = 0;
int get() { return ga; }
int main() {
	int x = 0;
	for (int i = 0; i < 4; i = i + 1) {
		spawn x = get();
		ga = ga + 1;
	}
	sync;
	return x;
}`)
	wantCodes(t, findings, CodeRace)
}

func TestRaceFreeSharedReads(t *testing.T) {
	// Two spawns reading the same matrix, plus a continuation read:
	// no writes, no race.
	findings := vetSrc(t, `
float sum2(Matrix float <1> m) { return m[0] + m[1]; }
int main() {
	Matrix float <1> base = init(Matrix float <1>, 4);
	float a = 0.0;
	float b = 0.0;
	spawn a = sum2(base);
	spawn b = sum2(base);
	print(base[2]);
	sync;
	print(a + b);
	return 0;
}`)
	wantCodes(t, findings)
}

func TestRaceFreeDisjointParams(t *testing.T) {
	findings := vetSrc(t, `
void fill(Matrix float <1> m, float v) { m[0] = v; return; }
int main() {
	Matrix float <1> a = init(Matrix float <1>, 4);
	Matrix float <1> b = init(Matrix float <1>, 4);
	spawn fill(a, 1.0);
	spawn fill(b, 2.0);
	sync;
	print(a[0] + b[0]);
	return 0;
}`)
	wantCodes(t, findings)
}

func TestRaceAliasedArgsConflict(t *testing.T) {
	// Same storage passed to both spawns through an alias: the race is
	// only visible to the alias tracking, not the variable names.
	findings := vetSrc(t, `
void fill(Matrix float <1> m, float v) { m[0] = v; return; }
int main() {
	Matrix float <1> a = init(Matrix float <1>, 4);
	Matrix float <1> alias = a;
	spawn fill(a, 1.0);
	spawn fill(alias, 2.0);
	sync;
	print(a[0]);
	return 0;
}`)
	wantCodes(t, findings, CodeRace)
}

func TestRaceClearedBySync(t *testing.T) {
	findings := vetSrc(t, `
int ga = 0;
int bump() { ga = ga + 1; return ga; }
int main() {
	int x = 0;
	spawn x = bump();
	sync;
	ga = ga + 1;
	print(ga);
	return x;
}`)
	wantCodes(t, findings)
}

func TestRaceReportedOnBothBranches(t *testing.T) {
	// The spawn is outstanding on only one path; the conflicting access
	// after the join must still be flagged.
	findings := vetSrc(t, `
int ga = 0;
int bump() { ga = ga + 1; return ga; }
int main(int n) {
	int x = 0;
	if (n > 0) {
		spawn x = bump();
	}
	ga = ga + 1;
	sync;
	return x;
}`)
	wantCodes(t, findings, CodeRace)
}

func TestRaceFibPatternClean(t *testing.T) {
	// The canonical cilk fib: spawned recursion is pure, so no race.
	findings := vetSrc(t, `
int fib(int n) {
	if (n < 2) { return n; }
	int a = 0;
	int b = 0;
	spawn a = fib(n - 1);
	b = fib(n - 2);
	sync;
	return a + b;
}
int main() {
	print(fib(10));
	return 0;
}`)
	wantCodes(t, findings)
}

// --- CM-SYNC-MISSING ---

func TestSyncMissingTargetReadBeforeSync(t *testing.T) {
	findings := vetSrc(t, `
int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
int main() {
	int a = 0;
	spawn a = fib(10);
	print(a);
	sync;
	return a;
}`)
	wantCodes(t, findings, CodeSyncMissing)
	if len(findings[0].Related) != 1 {
		t.Fatalf("want the spawn as a related span, got %v", findings[0].Related)
	}
}

func TestSyncMissingClearedByReassignment(t *testing.T) {
	// Deliberately overwriting the target before the sync makes the
	// read deterministic (the sync store still wins afterwards).
	findings := vetSrc(t, `
int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
int main() {
	int a = 0;
	spawn a = fib(10);
	a = 5;
	print(a);
	sync;
	return a;
}`)
	wantCodes(t, findings)
}

func TestSyncMissingNotAfterSync(t *testing.T) {
	findings := vetSrc(t, `
int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
int main() {
	int a = 0;
	spawn a = fib(10);
	sync;
	print(a);
	return a;
}`)
	wantCodes(t, findings)
}

// --- CM-SPAWN-DEAD ---

func TestSpawnDeadPureFireAndForget(t *testing.T) {
	findings := vetSrc(t, `
int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
int main() {
	spawn fib(10);
	sync;
	return 0;
}`)
	wantCodes(t, findings, CodeSpawnDead)
}

func TestSpawnDeadNotForEffectfulSpawn(t *testing.T) {
	findings := vetSrc(t, `
int shout(int n) { print(n); return n; }
int main() {
	spawn shout(3);
	sync;
	return 0;
}`)
	wantCodes(t, findings)
}

// A loop body that declares a matrix mints a new atom for it on every
// pass of the race scan (two iterations' matrices are told apart), and
// spawns a read of it: the passes compare their environments and
// outstanding spawns by the nodes the atoms were made at, so the loop
// stops at its fixpoint, not at the pass limit of 8.
func TestRaceLoopPassesReachFixpoint(t *testing.T) {
	var diags source.Diagnostics
	prog := parser.ParseFile("test.xc", `
float total(Matrix float <1> x) {
	return with ([0] <= [i] < [dimSize(x, 0)]) fold(+, 0.0, x[i]);
}
int main() {
	float s = 0.0;
	int i = 0;
	while (i < 4) {
		Matrix float <1> a = [0 :: i] * 2.0;
		spawn s = total(a);
		i = i + 1;
	}
	sync;
	print(s);
	return 0;
}`, parser.AllExtensions(), &diags)
	info := sem.Check(prog, &diags)
	if diags.HasErrors() {
		t.Fatalf("unexpected errors: %v", diags.All())
	}
	c := &checker{info: info}
	sums := computeSummaries(prog, info)
	for _, d := range prog.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name == "main" {
			w := raceScanFunc(c, prog, sums, fd)
			if w.passes > 3 {
				t.Errorf("the loop took %d race-scan passes, want at most 3", w.passes)
			}
		}
	}
	wantCodes(t, c.diags)
}
