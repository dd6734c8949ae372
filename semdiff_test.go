// The compiled attribute-grammar evaluator (dense slot tables, pure
// equations, Info read off the decorated tree — PR 15) against the
// map-per-node evaluator it replaced: for every shipped program (the
// vet manifest's corpus), the dual-engine corpus and a set of programs
// sem rejects, a digest over the diagnostics (text, span, order) and a
// canonical dump of sem.Info must equal the value the parent commit
// (f0b478e) computed with this same dump function. The golden was
// written there; regenerate only when sem's behaviour is meant to move:
//
//	go test -run TestSemMatchesParent -update-semdiff .
package repro_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

var updateSemdiff = flag.Bool("update-semdiff", false, "rewrite testdata/semdiff_golden.txt")

const semdiffPath = "testdata/semdiff_golden.txt"

// semErrCorpus are programs that parse and that sem rejects, several
// with more than one diagnostic so their order is pinned too.
var semErrCorpus = []struct{ name, src string }{
	{"undeclared", `int main() { return x + y; }`},
	{"redeclared", `int g = 1; float g = 2.0; int f() { return 0; } int f(int a) { return a; }
		void v; int main() { return f() + g; }`},
	{"bad_arity_and_args", `int f(int a, float b) { return a; }
		int main() { Matrix float <1> m = init(Matrix float <1>, 3); return f() + f(m, m) + h(1); }`},
	{"rank_mismatch", `int main() {
		Matrix float <2> a = init(Matrix float <2>, 2, 2);
		Matrix float <3> b = init(Matrix float <3>, 2, 2, 2);
		Matrix float <2> c = a + b;
		Matrix float <3> d = b * b;
		return 0; }`},
	{"with_arity", `int main() {
		Matrix float <2> m;
		m = with ([0, 0] <= [i] < [4, 4]) genarray([4, 4], 0.0);
		m = with ([0] <= [i, i] < [4.0]) genarray([4, true], m);
		return with ([0] <= [k] < [4]) fold(+, false, "s"); }`},
	{"indexing", `int main() {
		Matrix float <2> m = init(Matrix float <2>, 2, 2);
		Matrix bool <2> b = m > 0.0;
		float x = m[0];
		Matrix float <1> r = m[b, 0];
		float y = m[1.5 : 2, end];
		int z = end;
		return x[0] + readMatrix("f")[0]; }`},
	{"statements", `void f() { return 3; }
		int main() {
			int x = 1; int x = 2; void v;
			if (1) { break; } else { continue; }
			while (2.0) { return; }
			for (int i = 0; i; i = i + 1) { x = 1.5; }
			(x, x) = 3;
			3 = x;
			return 1.5; }`},
	{"tuples", `(int, int) f() { return (1, 2); }
		int main() { int a; int b; int c; (a, b, c) = f(); (a, c) = (1, 2.5); return 0; }`},
	{"transforms", `int main() {
		Matrix float <2> m;
		m = with ([0,0] <= [i,j] < [8,8]) genarray([8,8], 0.0)
			transform split i by 2, j, iout. vectorize i. split q by 0, a, a. tile i by 0, j by 4. unroll z by 0. reorder (j, w). parallelize p;
		return 0; }`},
	{"matrixmap", `Matrix float <1> f(Matrix float <1> x) { return x; }
		int g(int x) { return x; }
		int main() {
			Matrix float <2> m = init(Matrix float <2>, 2, 2);
			Matrix float <2> r = matrixMap(f, m, [5]);
			r = matrixMap(g, m, [0]);
			r = matrixMap(nope, m, [0]);
			r = matrixMap(f, m, [0, 1]);
			r = matrixMap(f, 3, [0]);
			r = init(Matrix float <2>, 4);
			r = init(Matrix float <2>, 4, 1.0);
			return 0; }`},
	{"cilk", `int fib(int n) { return n; } void nop() { }
		int main() { int x; float q; Matrix int <1> m;
			spawn x = fib(1.5); spawn y = fib(1); spawn x = nop(); spawn m = fib(2); spawn print(1); sync;
			return x; }`},
	{"builtins_and_casts", `int main() {
		int r = rcnew(print(1)); int p = rcget(3); rcset(1, 2); rcrelease(2.0);
		print("s", 1); dimSize(1, 2); writeMatrix(1, 2);
		int c = (int)"s"; float f = 1.5; int x = f % 2; bool b = !3;
		return x; }`},
}

// semDump is the canonical text of one check: diagnostics in the order
// Diagnostics.All delivers them (a stable sort by offset, so ties keep
// the order sem emitted them in), then Info.Types by expression span,
// Funcs and GlobalTypes, each sorted.
func semDump(info *sem.Info, diags *source.Diagnostics) string {
	var b strings.Builder
	for _, d := range diags.All() {
		fmt.Fprintf(&b, "diag %d-%d %s\n", d.Span.Start.Offset, d.Span.End.Offset, d.String())
	}
	var lines []string
	for e, ty := range info.Types {
		sp := e.Span()
		lines = append(lines, fmt.Sprintf("type %d-%d %T %s => %s", sp.Start.Offset, sp.End.Offset, e, ast.ExprString(e), ty))
	}
	for name, f := range info.Funcs {
		lines = append(lines, fmt.Sprintf("func %s %s decl@%d name=%s", name, f.Type, f.Decl.Span().Start.Offset, f.Name))
	}
	for name, ty := range info.GlobalTypes {
		lines = append(lines, fmt.Sprintf("global %s %s", name, ty))
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// semCorpus is every program the differential tests run sem over.
func semCorpus(t *testing.T) []corpusProgram {
	progs := corpus(t)
	for _, tc := range vmCorpus {
		progs = append(progs, corpusProgram{name: "vmdiff/" + tc.name, src: tc.src})
	}
	for _, tc := range semErrCorpus {
		progs = append(progs, corpusProgram{name: "semerr/" + tc.name, src: tc.src})
	}
	return progs
}

// semCheckDump parses and checks one corpus program and returns its
// dump; ok is false when the program does not parse (sem never runs).
func semCheckDump(p corpusProgram) (dump string, ok bool) {
	var diags source.Diagnostics
	prog := parser.ParseFile(p.name, p.src, parser.AllExtensions(), &diags)
	if prog == nil {
		return "", false
	}
	info := sem.Check(prog, &diags)
	return semDump(info, &diags), true
}

func TestSemMatchesParent(t *testing.T) {
	progs := semCorpus(t)
	var got strings.Builder
	got.WriteString("# sem digests computed at f0b478e. Regenerate: go test -run TestSemMatchesParent -update-semdiff .\n")
	dumps := map[string]string{}
	rejected := 0
	for _, p := range progs {
		dump, ok := semCheckDump(p)
		if !ok {
			if strings.HasPrefix(p.name, "semerr/") {
				t.Errorf("%s does not parse; it is meant to reach sem", p.name)
			}
			continue
		}
		if strings.Contains(dump, "error:") {
			rejected++
		}
		dumps[p.name] = dump
		fmt.Fprintf(&got, "%s %x\n", p.name, sha256.Sum256([]byte(dump)))
	}
	if len(dumps) < 60 || rejected < len(semErrCorpus) {
		t.Errorf("dumped %d programs, %d rejected by sem; expected testdata + goldens + examples + vmdiff corpus and every semerr program rejected", len(dumps), rejected)
	}
	if *updateSemdiff {
		if err := os.WriteFile(semdiffPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(semdiffPath)
	if err != nil {
		t.Fatalf("missing golden (written at the parent commit with -update-semdiff): %v", err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("golden has %d lines, this run %d — the corpus changed; regenerate at a commit whose sem is trusted", len(wantLines), len(gotLines))
	}
	for i, w := range wantLines {
		if w != gotLines[i] {
			name, _, _ := strings.Cut(gotLines[i], " ")
			t.Errorf("sem differs from the parent on %s\n want %s\n got  %s\ndump:\n%s", name, w, gotLines[i], dumps[name])
		}
	}
}

// One composed grammar serves every check of the process, concurrent
// ones included: eight goroutines each check the whole corpus and every
// dump must equal the serial one. Run under -race (ci.sh) this is also
// the proof that evaluation writes nothing the checks share.
func TestCheckSharesOneGrammar(t *testing.T) {
	g1, err := sem.Grammar()
	if err != nil {
		t.Fatal(err)
	}
	if g2, _ := sem.Grammar(); g1 != g2 {
		t.Fatal("sem.Grammar composed a second grammar")
	}
	progs := semCorpus(t)
	serial := make([]string, len(progs))
	for i, p := range progs {
		serial[i], _ = semCheckDump(p)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine starts elsewhere in the corpus, so different
			// programs are in flight side by side.
			for k := range progs {
				i := (k + w*len(progs)/8) % len(progs)
				if got, _ := semCheckDump(progs[i]); got != serial[i] {
					t.Errorf("goroutine %d: %s checked concurrently differs from the serial check\n got:\n%s\n want:\n%s",
						w, progs[i].name, got, serial[i])
				}
			}
		}(w)
	}
	wg.Wait()
}
