// Dual-engine differential suite: every program in the corpus (and in
// testdata/) runs under both the tree-walking interpreter and the
// register bytecode VM, and the two executions must be observably
// identical — stdout bytes, exit code, the full error string (which
// embeds the trap code and the source span), the budget-visible cell
// count, and rc-heap leak-freedom. The tree walker is the oracle; the
// VM is the engine under test, with vet's facts and without them.
package repro_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ast"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/matio"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/parser"
	"repro/internal/rc"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/vet"
	"repro/internal/vm"
)

// engineResult is everything one execution makes observable.
type engineResult struct {
	out   string
	code  int
	err   string
	cells int64
	live  int64
}

// runOne executes a checked program on the named engine. The VM path
// requires the bytecode compiler to accept the program (the corpus is
// curated to be fully compilable; a bail here is a test failure, not a
// silent fallback).
func runOne(t *testing.T, prog *parsedProg, engine string, opts interp.Options) engineResult {
	t.Helper()
	var out bytes.Buffer
	heap := rc.NewHeap()
	opts.Stdout = &out
	opts.Heap = heap
	switch {
	case opts.MaxSteps == 0:
		opts.MaxSteps = 5_000_000
	case opts.MaxSteps < 0:
		opts.MaxSteps = 0 // unbudgeted: an inlined call's plan is taken only then
	}
	if opts.MaxCells == 0 {
		opts.MaxCells = 1 << 22
	}
	i := interp.New(prog.prog, prog.info, opts)
	defer i.Close()
	var code int
	var err error
	switch engine {
	case "vm", "vm-nofacts":
		facts := vet.ComputeFacts(prog.prog, prog.info)
		if engine == "vm-nofacts" {
			facts = nil // no chain fused, no with-loop compiled flat
		}
		p, cerr := vm.CompileWithFacts(prog.prog, prog.info, facts)
		if cerr != nil {
			t.Fatalf("vm.Compile declined the program: %v", cerr)
		}
		code, err = vm.NewMachine(p, i).Run()
	default:
		code, err = i.Run()
	}
	res := engineResult{out: out.String(), code: code, cells: i.Budget().Used(), live: heap.Live()}
	if err != nil {
		res.err = err.Error()
	}
	return res
}

type parsedProg struct {
	prog *ast.Program
	info *sem.Info
}

// parseAndCheck front-ends src, failing the test on diagnostics (the
// corpus must be fully checkable).
func parseAndCheck(t *testing.T, name, src string) *parsedProg {
	t.Helper()
	var d source.Diagnostics
	p := parser.ParseFile(name, src, parser.AllExtensions(), &d)
	if p == nil {
		t.Fatalf("%s: parse failed:\n%s", name, d.String())
	}
	info := sem.Check(p, &d)
	if d.HasErrors() {
		t.Fatalf("%s: check failed:\n%s", name, d.String())
	}
	return &parsedProg{prog: p, info: info}
}

// parseCorpusEntry front-ends a corpus entry: checked, or — for an
// entry that pins the checker's diagnostic — run whatever the checker
// says, once the diagnostic is the one pinned.
func parseCorpusEntry(t *testing.T, name, src, unchecked string) *parsedProg {
	t.Helper()
	if unchecked == "" {
		return parseAndCheck(t, name+".xc", src)
	}
	var d source.Diagnostics
	p := parser.ParseFile(name+".xc", src, parser.AllExtensions(), &d)
	if p == nil {
		t.Fatalf("%s: parse failed:\n%s", name, d.String())
	}
	info := sem.Check(p, &d)
	if got := strings.TrimSpace(d.String()); got != unchecked {
		t.Fatalf("%s: the checker said %q, pinned %q", name, got, unchecked)
	}
	return &parsedProg{prog: p, info: info}
}

// compare asserts two engine results are observably identical.
func compare(t *testing.T, label string, tree, vmr engineResult) {
	t.Helper()
	if tree.out != vmr.out {
		t.Errorf("%s: stdout diverged\n--- tree ---\n%s--- vm ---\n%s", label, tree.out, vmr.out)
	}
	if tree.code != vmr.code {
		t.Errorf("%s: exit code tree=%d vm=%d", label, tree.code, vmr.code)
	}
	if tree.err != vmr.err {
		t.Errorf("%s: error diverged\ntree: %s\nvm:   %s", label, tree.err, vmr.err)
	}
	if tree.cells != vmr.cells {
		t.Errorf("%s: cells charged tree=%d vm=%d", label, tree.cells, vmr.cells)
	}
	if tree.err == "" && (tree.live != 0 || vmr.live != 0) {
		t.Errorf("%s: rc leak on success: tree live=%d vm live=%d", label, tree.live, vmr.live)
	}
	// A failed run keeps what the oracle keeps (neither pops a failed
	// frame), and no more: a VM frame dropped on an error exit has
	// released what the tree walker's has.
	if tree.live != vmr.live {
		t.Errorf("%s: rc cells live after the run: tree %d, vm %d", label, tree.live, vmr.live)
	}
}

// chainRangeLine is Fig 8's line 27 over six cells.
const chainRangeLine = `
int main() {
	int x1 = 0;
	int x2 = 5;
	float m = 0.75;
	float b = 1.5;
	print(3);
	Matrix float <1> Line = [x1 :: x2] * m + b;
	print(Line[end]);
	return 0;
}`

// pinned is an oracle run's stdout and budget cells, recorded at the
// commit the entry was written against.
type pinned struct {
	out   string
	cells int64
}

// vmCorpus is the table-driven dual-engine suite: one entry per
// language area, each exercising evaluation order, error texts and rc
// discipline. Every entry must compile on the VM (no fallback).
var vmCorpus = []struct {
	name   string
	src    string
	opts   interp.Options
	errHas string  // when set, the oracle's error must contain it
	pin    *pinned // when set, the oracle's stdout and budget cells
	errIs  string  // when set, the oracle's whole error, and
	live   int64   // the rc cells its failed run leaves live
	// threads the entry runs at: 1 and 4 when nil.
	threads []int
	// unchecked, when set, is the checker's one diagnostic: the entry
	// runs the program regardless, as a host that skips the checker does.
	unchecked string
}{
	{name: "scalar_loop", src: `
int main() {
	int s = 0;
	int i = 0;
	while (i < 1000) { s = s + i * 2 - 1; i = i + 1; }
	print(s);
	return 0;
}`},
	{name: "for_break_continue", src: `
int main() {
	int s = 0;
	for (int i = 0; i < 100; i++) {
		if (i % 3 == 0) { continue; }
		if (i > 80) { break; }
		s = s + i;
	}
	print(s);
	return s % 256;
}`},
	{name: "float_mix", src: `
int main() {
	float x = 1.5;
	int n = 7;
	float y = x * n + 2.0 / 4.0 - n;
	print(y);
	print((int)(y * 10.0));
	print(x < 2.0);
	print(n == 7);
	bool b = true;
	print((float)(int)b);
	print(0.0 - x);
	return 0;
}`},
	{name: "short_circuit_order", src: `
bool chk(int v, bool r) { print(v); return r; }
int main() {
	if (chk(1, false) && chk(2, true)) { print(100); }
	if (chk(3, true) || chk(4, false)) { print(200); }
	if (chk(5, true) && chk(6, true)) { print(300); }
	bool t = chk(7, false) || chk(8, false);
	print(t);
	print(!t && chk(9, true));
	return 0;
}`},
	{name: "shadowing_decl_order", src: `
int main() {
	int x = 10;
	{
		int x = x + 5;
		print(x);
	}
	print(x);
	return 0;
}`},
	{name: "globals", src: `
int ga = 5;
int gb = ga * 3;
Matrix int <1> gv = [0 :: 4];
int bump() { ga = ga + 1; return ga; }
int main() {
	print(gb);
	print(bump() + bump());
	print(ga);
	print(ga + bump());
	print(gv[2] + gv[end]);
	return 0;
}`},
	{name: "indexing_forms", src: `
int main() {
	Matrix int <1> v = [0 :: 9];
	print(v[end]);
	print(v[end - 4]);
	Matrix int <1> mid = v[2 : 5];
	print(dimSize(mid, 0));
	Matrix int <1> odds = v[v % 2 == 1];
	print(dimSize(odds, 0));
	Matrix int <2> m = init(Matrix int <2>, 3, 4);
	m[1, :] = [10 :: 13];
	print(m[1, 2]);
	m[:, 0] = v[0 : 2];
	print(m[2, 0]);
	m[0, 1] = 42;
	print(m[0, 1]);
	return 0;
}`},
	{name: "fused_rank1_load_store", src: `
int main() {
	Matrix float <1> a = init(Matrix float <1>, 64);
	for (int i = 0; i < 64; i++) { a[i] = (float)(i * i); }
	float s = 0.0;
	for (int i = 0; i < 64; i++) { s = s + a[i]; }
	print(s);
	a[0] = 7;
	print(a[0]);
	Matrix int <1> b = init(Matrix int <1>, 16);
	for (int i = 0; i < 16; i++) { b[i] = i * 3; }
	print(b[15]);
	Matrix bool <1> c = init(Matrix bool <1>, 4);
	c[2] = true;
	print(c[2]);
	print(c[0]);
	return 0;
}`},
	{name: "tuples_and_rc", src: `
(int, int, bool) divmod(int a, int b) {
	return (a / b, a % b, a % b == 0);
}
int main() {
	int q; int r; bool exact;
	(q, r, exact) = divmod(47, 5);
	print(q);
	print(r);
	print(exact);
	refcounted int * cell = rcnew(q * 10);
	rcset(cell, rcget(cell) + r);
	print(rcget(cell));
	rcrelease(cell);
	return 0;
}`},
	{name: "with_loops", src: `
int main() {
	Matrix int <2> sq;
	sq = with ([0, 0] <= [i, j] < [4, 5]) genarray([4, 5], i * 10 + j);
	print(sq[3, 4]);
	int s = with ([0] <= [k] < [10]) fold(+, 0, k * k);
	print(s);
	int mx = with ([0] <= [k] < [7]) fold(max, -100, k * (5 - k));
	print(mx);
	float p = with ([1] <= [k] < [6]) fold(*, 1.0, (float)k);
	print(p);
	int outer = 3;
	Matrix float <1> nested;
	nested = with ([0] <= [i] < [outer])
		genarray([outer], with ([0] <= [j] < [4]) fold(+, 0.0, (float)(i * j)));
	print(nested[2]);
	return 0;
}`},
	{name: "with_flat_kernels", src: `
int main() {
	int n = 8;
	int bias = 3;
	float scale = 0.25;
	Matrix int <2> m;
	m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], i * n + j + bias);
	Matrix int <2> tr;
	tr = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], m[j, i]);
	print(tr[2, 5]);
	Matrix float <2> sm;
	sm = with ([1, 1] <= [i, j] < [7, 7])
		genarray([n, n], (float)(m[i - 1, j] + m[i + 1, j] + m[i, j - 1] + m[i, j + 1]) * scale);
	print(sm[0, 0]);
	print(sm[3, 3]);
	int s = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0, m[i, j] - tr[j, i]);
	print(s);
	float w = with ([0] <= [k] < [6]) fold(max, -1.0, (float)(k * (4 - k)) * scale);
	print(w);
	return 0;
}`},
	// m[j, i] over every panel remainder and both degenerate shapes: the
	// flat engine's transpose kernel against the closure path, in each
	// element type (bool runs the closure path on both arms). Every float
	// is a multiple of 0.25, so the folds are exact in any worker order.
	{name: "transpose_shapes", pin: &pinned{"39\n21320\n-9.75\n-5330\n287\n39000\n21320000\n19.5\n10660\n287\n6008\n6311004\n1\n399\n651\n7015\n29651680\n-0.25\n-6136\n2752\n8016\n48271296\n0\n-7752\n3924\n2767\n4014964608\n-190.75\n-3.38188704e+08\n885120\n63063\n266057186304\n15.75\n4.4411136e+07\n2798251\n", 40944}, src: `
int tint(int r, int c) {
	Matrix int <2> m;
	m = with ([0, 0] <= [i, j] < [r, c]) genarray([r, c], i * 1000 + j);
	Matrix int <2> t;
	t = with ([0, 0] <= [i, j] < [c, r]) genarray([c, r], m[j, i]);
	print(t[c - 1, 0] + t[0, r - 1]);
	return with ([0, 0] <= [i, j] < [c, r]) fold(+, 0, t[i, j] * (i * r + j + 1));
}
float tfloat(int r, int c) {
	Matrix float <2> m;
	m = with ([0, 0] <= [i, j] < [r, c]) genarray([r, c], 0.5 * i - 0.25 * j);
	Matrix float <2> t;
	t = with ([0, 0] <= [i, j] < [c, r]) genarray([c, r], m[j, i]);
	print(t[c - 1, 0] + t[0, r - 1]);
	return with ([0, 0] <= [i, j] < [c, r]) fold(+, 0.0, t[i, j] * (i * r + j + 1));
}
int tbool(int r, int c) {
	Matrix bool <2> m;
	m = with ([0, 0] <= [i, j] < [r, c]) genarray([r, c], (i + 2 * j) % 3 == 0);
	Matrix bool <2> t;
	t = with ([0, 0] <= [i, j] < [c, r]) genarray([c, r], m[j, i]);
	return with ([0, 0] <= [i, j] < [c, r]) fold(+, 0, (int)t[i, j] * (i * r + j + 1));
}
int shape(int r, int c) {
	print(tint(r, c));
	print(tfloat(r, c));
	print(tbool(r, c));
	return 0;
}
int main() {
	shape(1, 40);
	shape(40, 1);
	shape(7, 9);
	shape(8, 16);
	shape(9, 17);
	shape(3, 768);
	shape(64, 64);
	return 0;
}`},
	{name: "err_with_flat_oom", opts: interp.Options{MaxCells: 40}, src: `
int main() {
	int n = 5;
	Matrix int <2> small;
	small = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], i - j);
	print(small[4, 4]);
	Matrix int <2> big;
	big = with ([0, 0] <= [i, j] < [9, 9]) genarray([9, 9], i * j);
	print(big[0, 0]);
	return 0;
}`},
	{name: "err_with_flat_out_of_bounds_load", src: `
int main() {
	int n = 4;
	Matrix int <1> v;
	v = with ([0] <= [i] < [n]) genarray([n], i * 2);
	Matrix int <1> shifted;
	shifted = with ([0] <= [i] < [n]) genarray([n], v[i + 1]);
	print(shifted[0]);
	return 0;
}`},
	// Flat-provable genarrays whose admission fails: the flat engine
	// raises the error the closure path raises, with the same charges.
	{name: "err_with_flat_not_superset", pin: &pinned{"9\n", 4},
		errIs: "err_with_flat_not_superset.xc:8:6: runtime error: matrix: genarray shape [4] is not a superset of the generator box [[1], [6]) in dimension 0", live: 0, src: `
int main() {
	int n = 4;
	Matrix int <1> v;
	v = with ([0] <= [i] < [n]) genarray([n], i * 3);
	print(v[n - 1]);
	Matrix int <1> w;
	w = with ([1] <= [i] < [n + 2]) genarray([n], i * 2);
	print(w[0]);
	return 0;
}`},
	{name: "err_with_flat_shape_negative", pin: &pinned{"0.5\n", 2},
		errIs: "err_with_flat_shape_negative.xc:8:6: runtime error [trap:shape]: matrix: negative dimension -3", live: 0, src: `
int main() {
	int n = 0 - 3;
	Matrix float <1> v;
	v = with ([0] <= [i] < [2]) genarray([2], (float)i * 0.5);
	print(v[1]);
	Matrix float <1> w;
	w = with ([0] <= [i] < [2]) genarray([n], (float)i * 0.5);
	print(w[0]);
	return 0;
}`},
	{name: "err_with_flat_shape_overflow", pin: &pinned{"5\n", 6},
		errIs: "err_with_flat_shape_overflow.xc:8:6: runtime error [trap:shape]: matrix: shape [1099511627776 1099511627776] overflows the address space", live: 0, src: `
int main() {
	int n = 1048576 * 1048576;
	Matrix int <2> v;
	v = with ([0, 0] <= [i, j] < [2, 3]) genarray([2, 3], i * 3 + j);
	print(v[1, 2]);
	Matrix int <2> w;
	w = with ([0, 0] <= [i, j] < [2, 2]) genarray([n, n], i + j);
	print(w[0, 0]);
	return 0;
}`},
	{name: "with_flat_promoted_fold", src: `
int main() {
	int n = 6;
	Matrix int <2> m;
	m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], i + 2 * j);
	float mean = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, (float)m[i, j]) / 36.0;
	print(mean);
	int prod = with ([1] <= [k] < [5]) fold(*, 1, m[k, k]);
	print(prod);
	return 0;
}`},
	{name: "with_nested_folds", src: `
void show(Matrix float <2> m) {
	for (int i = 0; i < dimSize(m, 0); i++) {
		for (int j = 0; j < dimSize(m, 1); j++) { print(m[i, j]); }
	}
}
void showi(Matrix int <2> m) {
	for (int i = 0; i < dimSize(m, 0); i++) {
		for (int j = 0; j < dimSize(m, 1); j++) { print(m[i, j]); }
	}
}
int main() {
	int n = 5;
	int p = 4;
	int q = 3;
	int z = 0;
	Matrix int <3> c;
	c = with ([0, 0, 0] <= [i, j, k] < [n, p, q]) genarray([n, p, q], (i * 7 + j * 3 - k * 5) % 11 - 4);
	Matrix float <3> cf;
	cf = with ([0, 0, 0] <= [i, j, k] < [n, p, q])
		genarray([n, p, q], 0.1 * ((i * 7 + j * 3 + k * 5) % 13) - 0.37);
	// genarray of fold, inner rank 1: all four kinds, float and int
	// bodies, bounds from int scalars.
	Matrix float <2> fadd;
	fadd = with ([0, 0] <= [i, j] < [n, p]) genarray([n, p], with ([0] <= [k] < [q]) fold(+, 0.0, cf[i, j, k]));
	show(fadd);
	Matrix float <2> fmul;
	fmul = with ([0, 0] <= [i, j] < [n, p]) genarray([n, p], with ([0] <= [k] < [q]) fold(*, 1.0, cf[i, j, k] + 1.0));
	show(fmul);
	Matrix float <2> fmin;
	fmin = with ([0, 0] <= [i, j] < [n, p]) genarray([n, p], with ([1] <= [k] < [q]) fold(min, 2.5, cf[i, j, k]));
	show(fmin);
	Matrix float <2> fmax;
	fmax = with ([0, 0] <= [i, j] < [n, p]) genarray([n, p], with ([0] <= [k] < [q - 1]) fold(max, 0.0 - 2.5, cf[i, j, k]));
	show(fmax);
	Matrix int <2> iadd;
	iadd = with ([0, 0] <= [i, j] < [n, p]) genarray([n, p], with ([0] <= [k] < [q]) fold(+, j, c[i, j, k] * k));
	showi(iadd);
	Matrix int <2> imul;
	imul = with ([0, 0] <= [i, j] < [n, p]) genarray([n, p], with ([0] <= [k] < [q]) fold(*, 1, c[i, j, k]));
	showi(imul);
	Matrix int <2> imin;
	imin = with ([0, 0] <= [i, j] < [n, p]) genarray([n, p], with ([0] <= [k] < [q]) fold(min, 100, c[i, j, k]));
	showi(imin);
	Matrix int <2> imax;
	imax = with ([0, 0] <= [i, j] < [n, p]) genarray([n, p], with ([0] <= [k] < [q]) fold(max, 0 - 100, c[i, j, k]));
	showi(imax);
	// An int base under a float body, a float base over an int body,
	// and the paper's mean: the fold's value used further.
	Matrix float <2> mixed;
	mixed = with ([0, 0] <= [i, j] < [n, p])
		genarray([n, p], with ([0] <= [k] < [q]) fold(+, 1, cf[i, j, k]) / q
			+ with ([0] <= [k] < [q]) fold(*, 0.5, c[i, j, k]));
	show(mixed);
	// Inner rank 2, under a rank-1 genarray: the strip runs along i.
	Matrix float <1> r2;
	r2 = with ([0] <= [i] < [n])
		genarray([n], with ([0, 1] <= [j, k] < [p, q]) fold(+, 0.25, cf[i, j, k] * 1.5 - j));
	for (int i = 0; i < n; i++) { print(r2[i]); }
	// Inner rank 3 under a fold: fold of fold, and a fold in a fold in
	// a genarray.
	float ff = with ([0] <= [t] < [3])
		fold(+, 0.0, with ([0, 0, 0] <= [i, j, k] < [n, p, q]) fold(max, 0.0 - 9.0, cf[i, j, k] * t));
	print(ff);
	int fi = with ([0, 0] <= [a, b] < [2, 3])
		fold(+, 0, with ([0, 0] <= [i, j] < [n, p]) fold(min, 50, c[i, j, b] + a));
	print(fi);
	Matrix int <1> deep;
	deep = with ([0] <= [i] < [n])
		genarray([n], with ([0] <= [j] < [p])
			fold(+, 0, with ([0] <= [k] < [q]) fold(max, 0 - 50, c[i, j, k] - j)));
	for (int i = 0; i < n; i++) { print(deep[i]); }
	// An empty inner range yields the base; bounds may follow an outer
	// id that is not the innermost one.
	Matrix int <1> none;
	none = with ([0] <= [i] < [n]) genarray([n], with ([2] <= [k] < [z]) fold(+, 7 + i, c[i, 0, k]));
	for (int i = 0; i < n; i++) { print(none[i]); }
	Matrix int <2> tri;
	tri = with ([0, 0] <= [i, j] < [n, p])
		genarray([n, p], with ([0] <= [k] < [i % 4]) fold(+, 0, c[i, j, k % 3]));
	showi(tri);
	// Inner ids shadow outer names inside the body only.
	Matrix int <2> shadow;
	shadow = with ([0, 0] <= [i, j] < [n, p])
		genarray([n, p], with ([0] <= [i] < [q]) fold(+, 0, c[j, j, i]) + i);
	showi(shadow);
	return 0;
}`},
	{name: "with_literal_div_mod", src: `
int main() {
	int n = 9;
	Matrix int <1> v = [0 :: 8];
	Matrix int <1> a;
	a = with ([0] <= [i] < [n]) genarray([n], (i - 4) % 3);
	Matrix int <1> b;
	b = with ([0] <= [i] < [n]) genarray([n], (i - 4) % -3);
	Matrix int <1> c;
	c = with ([0] <= [i] < [n]) genarray([n], (i - 4) / 2);
	Matrix int <1> d;
	d = with ([0] <= [i] < [n]) genarray([n], (i - 4) / -2);
	Matrix int <1> e;
	e = with ([0] <= [i] < [n]) genarray([n], (i * 7 - 30) % 1 + (i * 7 - 30) / 1 + (i - 4) / -1);
	for (int i = 0; i < n; i++) { print(a[i]); print(b[i]); print(c[i]); print(d[i]); print(e[i]); }
	// In index position: the interval analysis bounds % and / by a
	// literal, also over a dividend it cannot bound.
	Matrix int <2> g;
	g = with ([0, 0] <= [i, j] < [4, n]) genarray([4, n], v[(i * j * j) % 9] * 10 + v[(i + j) / 2] + v[8 + (0 - j) % 9]);
	for (int i = 0; i < 4; i++) { for (int j = 0; j < n; j++) { print(g[i, j]); } }
	Matrix float <1> f;
	f = with ([0] <= [i] < [n]) genarray([n], 1.0 * ((i + 2 * i) % 7) + (i / 3) * 0.5);
	for (int i = 0; i < n; i++) { print(f[i]); }
	int s = with ([0] <= [i] < [n]) fold(+, 0, (i * i - 20) % 7 + (i * i - 20) / 7);
	print(s);
	return 0;
}`},
	{name: "with_strip_widths", src: `
int cells(int n) {
	// Rank 1: the strip runs along the loop's only dimension.
	Matrix int <1> v;
	v = with ([0] <= [i] < [n]) genarray([n], (i * 37) % 101 - 50);
	Matrix float <1> w;
	w = with ([0] <= [i] < [n]) genarray([n], v[i] * 0.125 + v[n - 1 - i]);
	float fs = with ([0] <= [i] < [n]) fold(+, 0.0, w[i] * 0.3 - v[i]);
	print(fs);
	int mx = with ([0] <= [i] < [n]) fold(max, 0 - 1000, v[i] - i);
	print(mx);
	print(w[0]);
	print(w[n - 1]);
	print(w[n / 2]);
	// Rank 2: three rows, rows of width n, a box inside the shape.
	Matrix float <2> g;
	g = with ([0, 0] <= [i, j] < [3, n]) genarray([3, n], w[j] * (i + 1) - v[(j * 3 + i) % n]);
	Matrix float <2> h;
	h = with ([1, 0] <= [i, j] < [3, n - 1]) genarray([3, n], g[i - 1, j + 1] + g[i, j] * 0.5);
	float hs = with ([0, 0] <= [i, j] < [3, n]) fold(+, 0.0, h[i, j] * 0.7);
	print(hs);
	print(h[0, 0]);
	print(h[2, n - 1]);
	print(h[1, n / 2]);
	// A nested fold at this width: the strip runs along j.
	Matrix float <1> col;
	col = with ([0] <= [j] < [n]) genarray([n], with ([0] <= [i] < [3]) fold(+, 0.0, g[i, j] * 1.1));
	print(col[0]);
	print(col[n - 1]);
	float cs = with ([0] <= [j] < [n]) fold(+, 0.0, col[j]);
	print(cs);
	return n;
}
int main() {
	// 1, strip - 1, strip, strip + 1, 2 strip + 3, and a two-cell loop.
	print(cells(2) + cells(127) + cells(128) + cells(129) + cells(259));
	return 0;
}`},
	{name: "matrix_map_both_forms", src: `
Matrix float <1> double(Matrix float <1> ts) {
	int n = dimSize(ts, 0);
	return with ([0] <= [i] < [n]) genarray([n], ts[i] * 2.0);
}
Matrix float <1> firstHalf(Matrix float <1> ts) {
	int n = dimSize(ts, 0);
	return ts[0 : n / 2 - 1];
}
int main() {
	Matrix float <2> d;
	d = with ([0, 0] <= [i, j] < [3, 8]) genarray([3, 8], (float)(i * 8 + j));
	Matrix float <2> out;
	out = matrixMap(double, d, [1]);
	print(out[2, 7]);
	Matrix float <2> half;
	half = matrixMapG(firstHalf, d, [1]);
	print(dimSize(half, 1));
	print(half[1, 3]);
	return 0;
}`},
	{name: "spawn_fib", src: `
int fib(int n) {
	if (n < 2) return n;
	int a = 0;
	int b = 0;
	spawn a = fib(n - 1);
	b = fib(n - 2);
	sync;
	return a + b;
}
int main() {
	print(fib(14));
	return 0;
}`},
	{name: "promotion_falloff_void", src: `
float half(int n) { return n / 2; }
int falloff(int n) { if (n > 100) { return n; } }
void shout(int n) { print(n * 2); }
int main() {
	print(half(7));
	print(falloff(3));
	shout(21);
	return 0;
}`},
	{name: "matrix_elementwise_ops", src: `
int main() {
	Matrix int <1> v = [1 :: 6];
	Matrix int <1> w = v + v - [0 :: 5];
	print(w[end]);
	Matrix float <1> f = [0 :: 3] * 0.5;
	print(f[3]);
	Matrix bool <1> m = v > 3;
	print(m[0]);
	print(m[end]);
	print(dimSize(v[m], 0));
	Matrix float <2> a;
	a = with ([0, 0] <= [i, j] < [2, 3]) genarray([2, 3], (float)(i + j));
	Matrix float <2> bm;
	bm = with ([0, 0] <= [i, j] < [3, 2]) genarray([3, 2], (float)(i * j));
	Matrix float <2> c = a * bm;
	print(c[1, 1]);
	return 0;
}`},

	{name: "fused_elementwise_chain", src: `
Matrix float <1> axpy(Matrix float <1> a, Matrix float <1> b, float k) {
	return a * k + a .* b - b / 2.0;
}
int main() {
	Matrix float <1> a = [0 :: 7] * 1.0;
	Matrix float <1> b = [1 :: 8] * 1.0;
	Matrix float <1> r = axpy(a, b, 3.0);
	print(r[0]);
	print(r[end]);
	Matrix int <1> u = [1 :: 6];
	Matrix int <1> w = u .* 2 + u - u .* u;
	print(w[0]);
	print(w[end]);
	Matrix float <1> mixed = a .* b + a * 2 - b;
	print(mixed[3]);
	print(mixed[end]);
	return 0;
}`},
	{name: "spawn_matrix_args", src: `
float total(Matrix float <1> m) {
	int n = dimSize(m, 0);
	return with ([0] <= [i] < [n]) fold(+, 0.0, m[i]);
}
int main() {
	Matrix float <1> a = [0 :: 9] * 1.0;
	Matrix float <1> b = [1 :: 10] * 1.0;
	float sa = 0.0;
	float sb = 0.0;
	spawn sa = total(a);
	spawn sb = total(b);
	sync;
	print(sa + sb);
	return 0;
}`},

	// Error paths: the full error string (span, trap code, text) must
	// match byte for byte.
	{name: "err_div_zero", src: `
int main() {
	int z = 0;
	return 1 / z;
}`},
	{name: "err_mod_zero", src: `
int main() {
	int z = 0;
	return 1 % z;
}`},
	{name: "err_index_oob", src: `
int main() {
	Matrix int <1> v = [0 :: 4];
	return (int)v[9];
}`},
	{name: "err_shape_negative_dim", src: `
int main() {
	int n = 0 - 3;
	Matrix float <1> m;
	m = with ([0] <= [i] < [n]) genarray([n], 1.0);
	return 0;
}`},
	{name: "err_with_mod_literal_zero", src: `
int main() {
	Matrix int <1> m;
	m = with ([0] <= [i] < [6]) genarray([6], (i + 3) % 0);
	print(m[0]);
	return 0;
}`},
	{name: "err_with_div_variable_zero", src: `
int main() {
	int d = 2;
	Matrix int <1> ok;
	ok = with ([0] <= [i] < [6]) genarray([6], (i + 3) / d + (i + 3) % d);
	print(ok[5]);
	d = d - 2;
	Matrix int <2> m;
	m = with ([0, 0] <= [i, j] < [3, 6]) genarray([3, 6], (i + j) / d);
	print(m[0, 0]);
	return 0;
}`},
	{name: "err_with_nested_out_of_bounds_load", src: `
int main() {
	int n = 4;
	Matrix int <2> m;
	m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], i - j);
	Matrix int <1> rows;
	rows = with ([0] <= [i] < [n]) genarray([n], with ([0] <= [k] < [n + 1]) fold(+, 0, m[i, k]));
	print(rows[0]);
	return 0;
}`},
	{name: "with_flat_vector_broadcast_over_rows", src: `
int main() {
	int n = 4;
	Matrix float <1> v;
	v = with ([0] <= [i] < [n]) genarray([n], 1.5 * i);
	Matrix float <2> g;
	g = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], v[j]);
	Matrix float <2> h;
	h = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], v[i]);
	print(g[2, 3]);
	print(h[2, 3]);
	return 0;
}`},
	{name: "err_trap_depth", src: `
int f(int x) { return f(x); }
int main() { return f(1); }`},
	{name: "err_trap_step", opts: interp.Options{MaxSteps: 10_000}, src: `
int main() {
	int i = 0;
	while (i >= 0) { i = i + 1; }
	return 0;
}`},
	{name: "err_trap_oom", opts: interp.Options{MaxCells: 5000}, src: `
int main() {
	for (int i = 0; i < 1000; i++) {
		Matrix float <1> m = [0 :: 99] * 1.0;
	}
	return 0;
}`},
	{name: "err_rcget_null", src: `
int main() {
	refcounted int * c;
	print(rcget(c));
	return 0;
}`},
	{name: "err_fused_unassigned", src: `
int main() {
	Matrix float <1> a = [0 :: 3] * 1.0;
	Matrix float <1> b;
	Matrix float <1> r = a + b - a;
	print(r[0]);
	return 0;
}`},
	{name: "err_fused_shape_mismatch", src: `
int main() {
	Matrix float <1> a = [0 :: 3] * 1.0;
	Matrix float <1> b = [0 :: 5] * 1.0;
	Matrix float <1> r = a .* a + b;
	print(r[0]);
	return 0;
}`},
	{name: "err_fused_oom_mid_chain", opts: interp.Options{MaxCells: 30}, src: `
int main() {
	Matrix float <1> a = [0 :: 7] * 1.0;
	Matrix float <1> r = a + a - a .* a;
	print(r[0]);
	return 0;
}`},

	// Chains run on the strip engine over the flat buffer: the shape is
	// the admission's business alone.
	{name: "fused_rank2_rank3", src: `
int main() {
	Matrix float <2> a = with ([0, 0] <= [i, j] < [5, 7]) genarray([5, 7], (float)(i * 7 + j));
	Matrix float <2> b = with ([0, 0] <= [i, j] < [5, 7]) genarray([5, 7], 0.5 * (float)(j - i));
	Matrix float <2> r = a .* b + a - b * 0.5;
	print(r[0, 0]);
	print(r[2, 3]);
	print(r[4, 6]);
	print(dimSize(r, 0) * 10 + dimSize(r, 1));
	Matrix int <3> u = with ([0, 0, 0] <= [i, j, k] < [2, 3, 4]) genarray([2, 3, 4], i * 100 + j * 10 + k);
	Matrix int <3> w = u .* u - u .* 3 + 7;
	print(w[0, 0, 0]);
	print(w[1, 2, 3]);
	print(w[1, 0, 2]);
	print(with ([0, 0, 0] <= [i, j, k] < [2, 3, 4]) fold(+, 0, w[i, j, k]));
	return 0;
}`},
	{name: "fused_innermost_extent_one", src: `
int main() {
	Matrix float <2> a = with ([0, 0] <= [i, j] < [4096, 1]) genarray([4096, 1], (float)i);
	Matrix float <2> r = a .* a - a * 2.0 + a / 4.0;
	print(r[0, 0]);
	print(r[1, 0]);
	print(r[4095, 0]);
	print(with ([0, 0] <= [i, j] < [4096, 1]) fold(+, 0.0, r[i, j]));
	return 0;
}`},
	{name: "fused_zero_cells", src: `
int main() {
	int n = 0;
	Matrix float <1> a = init(Matrix float <1>, n);
	Matrix float <1> r = a + a - a * 2.0;
	print(dimSize(r, 0));
	Matrix int <2> u = init(Matrix int <2>, 3, n);
	Matrix int <2> w = u .* u + u - 1;
	print(dimSize(w, 0) * 10 + dimSize(w, 1));
	return 0;
}`},
	{name: "fused_int_wrapping_scalar", src: `
int main() {
	Matrix int <1> u = [-3 :: 6];
	Matrix int <1> w = u .* 9223372036854775807 + u - u;
	print(w[0]);
	print(w[4]);
	print(w[end]);
	int big = 9223372036854775807;
	Matrix int <1> v = big - u + big .* u;
	print(v[0]);
	print(v[end]);
	return 0;
}`},
	{name: "fused_result_rebinds_a_leaf", src: `
int main() {
	Matrix float <1> a = [1 :: 9] * 1.0;
	Matrix float <1> keep = a;
	a = a + a - a .* 0.5;
	print(a[0]);
	print(a[end]);
	print(keep[0]);
	print(keep[end]);
	a = a .* a - a;
	print(a[4]);
	print(keep[4]);
	return 0;
}`},
	{name: "fused_above_two_grains", src: `
int main() {
	int n = 20011;
	Matrix float <1> a = with ([0] <= [i] < [n]) genarray([n], 0.25 * (float)(i % 97) - 3.0);
	Matrix float <1> b = with ([0] <= [i] < [n]) genarray([n], 1.0 / (float)(i + 1));
	Matrix float <1> r = a .* b + a / 3.0 - b * 0.1;
	print(r[0]);
	print(r[8191]);
	print(r[8192]);
	print(r[16384]);
	print(r[end]);
	print(with ([0] <= [i] < [n]) fold(+, 0.0, r[i]));
	return 0;
}`},
	{name: "err_fused_equal_cells_different_shape", src: `
int main() {
	Matrix float <2> a = init(Matrix float <2>, 2, 3);
	Matrix float <2> b = init(Matrix float <2>, 3, 2);
	Matrix float <2> r = a .* a + b - a;
	print(r[0, 0]);
	return 0;
}`},
	{name: "err_fused_shape_mismatch_right_subtree", src: `
int main() {
	Matrix float <2> a = init(Matrix float <2>, 2, 3);
	Matrix float <2> b = init(Matrix float <2>, 3, 2);
	Matrix float <2> r = a * 2.0 - (a + b);
	print(r[0, 0]);
	return 0;
}`},
	{name: "err_fused_oom_mid_chain_rank2", opts: interp.Options{MaxCells: 40}, src: `
int main() {
	Matrix int <2> a = init(Matrix int <2>, 3, 4);
	Matrix int <2> r = a + a - a .* a;
	print(r[0, 0]);
	return 0;
}`},
	// Range and promoting leaves of a chain (out and error pinned at
	// 224178f, where every one of these ran stage by stage through
	// RangeBudgeted, floatScratch and BroadcastExec): the fused plan admits
	// the range at its leaf, converts a promoted leaf as it loads it, and
	// allocates neither.
	{name: "chain_range_float", pin: &pinned{"1.5\n3.75\n5.25\n6\n1\n1.4\n1.8\n-0.4000000000000001\n818.7\n818.8\n1637.9\n2001.3\n20018\n", 60099}, src: `
int main() {
	int x1 = 0;
	int x2 = 5;
	float m = 0.75;
	float b = 1.5;
	Matrix float <1> Line = [x1 :: x2] * m + b;
	print(Line[0]);
	print(Line[3]);
	print(Line[end]);
	print(dimSize(Line, 0));
	Matrix float <1> tenths = [3 :: 11] * 0.1 + 0.7;
	print(tenths[0]);
	print(tenths[4]);
	print(tenths[end]);
	int n = 20010;
	int low = -7;
	Matrix float <1> wide = [low :: n] * 0.1 + 0.3;
	print(wide[0]);
	print(wide[8191]);
	print(wide[8192]);
	print(wide[16383]);
	print(wide[end]);
	print(dimSize(wide, 0));
	return 0;
}`},
	{name: "chain_range_int", pin: &pinned{"-5\n10\n28\n12\n-21\n84\n1\n16385\n289000000\n", 51066}, src: `
int g = 4;
int main() {
	int a = -2;
	int b = 9;
	Matrix int <1> v = [a :: b] * 3 + 1;
	print(v[0]);
	print(v[5]);
	print(v[end]);
	print(dimSize(v, 0));
	Matrix int <1> w = [g :: b] .* v[0 : 5] - [1 :: 6];
	print(w[0]);
	print(w[end]);
	int n = 17000;
	Matrix int <1> wide = 2 * [1 :: n] - 1;
	print(wide[0]);
	print(wide[8192]);
	print(with ([0] <= [i] < [n]) fold(+, 0, wide[i]));
	return 0;
}`},
	{name: "chain_range_single_stage", pin: &pinned{"6\n3\n7\n1.5\n3.5\n0.3333333333333333\n0.25\n", 37}, src: `
int main() {
	int n = 6;
	Matrix float <1> a = [0 :: n] * 1.0;
	print(a[end]);
	Matrix int <1> u = [2 :: n] + 1;
	print(u[0]);
	print(u[end]);
	Matrix float <1> h = u * 0.5;
	print(h[0]);
	print(h[end]);
	Matrix float <1> d = 1.0 / [1 :: 4];
	print(d[2]);
	print(d[3]);
	return 0;
}`},
	{name: "chain_range_scalar_left", pin: &pinned{"1.25\n10\n9.5\n9\n6\n10\n10\n", 72}, src: `
int main() {
	int a = 1;
	int b = 8;
	float m = 1.25;
	float c = 10.0;
	Matrix float <1> p = m * [a :: b];
	print(p[0]);
	print(p[end]);
	Matrix float <1> q = c - [a :: b] / 2.0;
	print(q[0]);
	print(q[1]);
	print(q[end]);
	Matrix float <1> r = c - m * [a :: b] + p;
	print(r[0]);
	print(r[end]);
	return 0;
}`},
	{name: "chain_range_empty", pin: &pinned{"0\n0\n0\n1\n2.5\n", 2}, src: `
int main() {
	int lo = 5;
	int hi = 2;
	Matrix float <1> e = [lo :: hi] * 1.5 + 2.0;
	print(dimSize(e, 0));
	Matrix int <1> z = [lo :: hi] * 3 + 1;
	print(dimSize(z, 0));
	hi = 4;
	Matrix int <1> y = [lo :: hi] - 1;
	print(dimSize(y, 0));
	hi = 5;
	Matrix float <1> one = [lo :: hi] * 0.5;
	print(dimSize(one, 0));
	print(one[0]);
	return 0;
}`},
	{name: "chain_range_wrap", pin: &pinned{"-7\n-1\n9223372036854775806\n9223372036854775807\n-9223372036854775808\n-9223372036854775807\n0\n0\n9223372036854775807\n-9223372036854775808\n-9223372036854775807\n-4.611686018427388e+18\n-4.611686018427388e+18\n", 44}, src: `
int main() {
	int hi = 9223372036854775807;
	int lo = hi - 3;
	Matrix int <1> w = [lo :: hi] * 2 + 1;
	print(w[0]);
	print(w[end]);
	Matrix int <1> s = [lo :: hi] + 2;
	print(s[0]);
	print(s[1]);
	print(s[2]);
	print(s[end]);
	Matrix float <1> f = [lo :: hi] * 1.0 - 9223372036854775807;
	print(f[0]);
	print(f[end]);
	int lowest = 0 - hi - 1;
	int low = lowest + 2;
	Matrix int <1> n = [lowest :: low] - 1;
	print(n[0]);
	print(n[1]);
	print(n[end]);
	Matrix float <1> t = 0.5 * [lowest :: low];
	print(t[0]);
	print(t[end]);
	return 0;
}`},
	{name: "err_chain_range_span_overflows", pin: &pinned{"1\n", 0},
		errHas: "6:23: runtime error [trap:shape]: matrix: shape [1152921504606846976] overflows the address space", src: `
int main() {
	int hi = 9223372036854775807;
	int lo = 0 - hi;
	print(1);
	Matrix float <1> f = [lo :: hi] * 1.0;
	print(f[0]);
	return 0;
}`},
	{name: "chain_promote_ident", pin: &pinned{"1.5\n4\n-0.75\n5.5\n0\n7.5\n-2.166666666666667\n0.43333333333333335\n2.6\n34\n", 108}, src: `
int main() {
	Matrix int <1> v = [1 :: 6];
	Matrix float <1> f = [1 :: 6] * 0.25;
	Matrix float <1> a = v * 0.5 + 1.0;
	print(a[0]);
	print(a[end]);
	Matrix float <1> b = f + v - 2.0;
	print(b[0]);
	print(b[end]);
	Matrix float <1> c = v .* f - v / 4.0;
	print(c[0]);
	print(c[end]);
	Matrix int <2> g = with ([0, 0] <= [i, j] < [3, 4]) genarray([3, 4], i * 4 + j - 5);
	Matrix float <2> h = 0.1 * g + g / 3.0;
	print(h[0, 0]);
	print(h[1, 2]);
	print(h[2, 3]);
	print(dimSize(h, 0) * 10 + dimSize(h, 1));
	return 0;
}`},
	{name: "err_chain_range_unassigned", pin: &pinned{"7\n", 8},
		errHas: "5:23: runtime error: use of unassigned matrix", opts: interp.Options{MaxCells: 100}, src: `
int main() {
	Matrix float <1> u;
	print(7);
	Matrix float <1> r = [0 :: 3] * 2.0 + u;
	print(r[0]);
	return 0;
}`},
	{name: "err_chain_range_unassigned_left", pin: &pinned{"", 8},
		errHas: "4:21: runtime error: use of unassigned matrix", opts: interp.Options{MaxCells: 100}, src: `
int main() {
	Matrix int <1> u;
	Matrix int <1> r = u + [0 :: 3] * 2;
	print(r[0]);
	return 0;
}`},
	{name: "err_chain_promote_unassigned", pin: &pinned{"", 0},
		errHas: "4:23: runtime error: use of unassigned matrix", opts: interp.Options{MaxCells: 100}, src: `
int main() {
	Matrix int <1> u;
	Matrix float <1> r = u * 0.5 + 1.0;
	print(r[0]);
	return 0;
}`},
	{name: "err_chain_range_shape", pin: &pinned{"5\n", 14},
		errHas: "5:23: runtime error: matrix: * requires equal shapes, got [4] and [5]", src: `
int main() {
	Matrix float <1> five = [0 :: 4] * 1.0;
	print(dimSize(five, 0));
	Matrix float <1> r = [0 :: 3] .* five + 1.0;
	print(r[0]);
	return 0;
}`},
	// The six-cell line has three doors, in this order: the range (6), the
	// first stage's output (12), the second stage's output (18). Its int
	// range is converted as it is loaded: no copy, so no charge.
	{name: "err_oom_chain_range_range", pin: &pinned{"3\n", 0},
		errHas: "8:26: runtime error [trap:oom]: matrix: allocation of 6 cells exceeds the budget (0 of 5 cells already used)", opts: interp.Options{MaxCells: 5}, src: chainRangeLine},
	{name: "err_oom_chain_range_stage", pin: &pinned{"3\n", 6},
		errHas: "8:26: runtime error [trap:oom]: matrix: allocation of 6 cells exceeds the budget (6 of 11 cells already used)", opts: interp.Options{MaxCells: 11}, src: chainRangeLine},
	{name: "err_oom_chain_range_next_stage", pin: &pinned{"3\n", 12},
		errHas: "8:26: runtime error [trap:oom]: matrix: allocation of 6 cells exceeds the budget (12 of 17 cells already used)", opts: interp.Options{MaxCells: 17}, src: chainRangeLine},
	{name: "chain_range_line_fits", pin: &pinned{"3\n5.25\n", 18}, opts: interp.Options{MaxCells: 18}, src: chainRangeLine},
	// A promoting leaf's stage admits its output and nothing else: one
	// cell short of the chain's two outputs, the root stage fails after
	// 24 cells.
	{name: "err_oom_chain_promote_scratch", pin: &pinned{"1.5\n", 24},
		errHas: "6:23: runtime error [trap:oom]: matrix: allocation of 6 cells exceeds the budget (24 of 29 cells already used)", opts: interp.Options{MaxCells: 29}, src: `
int main() {
	Matrix int <1> v = [1 :: 6];
	Matrix float <1> f = [1 :: 6] * 0.25;
	print(f[end]);
	Matrix float <1> r = f + v - 2.0;
	print(r[0]);
	return 0;
}`},
	// Shapes vet declines, which stay stage by stage: a bound that can be
	// observed, int division and remainder (a zero divisor traps per cell).
	{name: "chain_range_declined_shapes", pin: &pinned{"1\n3.5\n11\n2\n2\n4\n1\n4\n16\n10.5\n", 99}, src: `
int calls = 0;
int f() { calls = calls + 1; print(calls); return 2; }
int main() {
	int n = 7;
	Matrix float <1> a = [f() :: n] * 1.5 + 0.5;
	print(a[0]);
	print(a[end]);
	Matrix int <1> d = [f() :: n] / 2 + 1;
	print(d[0]);
	print(d[end]);
	Matrix int <1> r = [1 :: n] % 4 + 1;
	print(r[3]);
	print(r[end]);
	Matrix int <1> k = ([1 :: n] + 1) * 2;
	Matrix float <1> mixed = ([1 :: n] * 3) * 0.5;
	print(k[end]);
	print(mixed[end]);
	return 0;
}`},
	{name: "err_chain_range_int_div_zero_unfused", pin: &pinned{"", 4},
		errHas: "4:21: runtime error: matrix: integer division by zero", opts: interp.Options{MaxCells: 100}, src: `
int main() {
	int z = 0;
	Matrix int <1> d = [1 :: 4] / z + 1;
	print(d[0]);
	return 0;
}`},
	// A lone operator (one elementwise, broadcast or unary operation, not a
	// fused chain) on every operand class: float, int and bool matrices,
	// int, float and bool scalars on either side, int promoted to float.
	// The sizes walk the strip edges (1023 to 1025 cells) and the pool's
	// split (16385); a fold sum weights every cell by its position.
	{name: "lone_ops_shapes", pin: &pinned{"0\n0\n0\n0\n0\n0\n0\n0\n0\n0\n0\n0\n0\n0\n0\n0\n0\n1\n-2901\n-50\n-4255\n17\n17\n11\n10\n174\n-2696\n-74\n-1267\n25\n10\n3059\n16\n6\n1023\n-60123530610\n-42878\n611432349\n178287\n128887\n55186\n57904\n-85388605\n1352590257\n-42284\n631463318\n267810\n108246\n-1513153225\n193820\n33654\n1024\n-60378687800\n-43658\n614182289\n178537\n129057\n55266\n57954\n-85629135\n1356402787\n-42814\n633229748\n268220\n108346\n-1517471525\n194100\n33714\n1025\n-60659915098\n-44208\n616365228\n178812\n129244\n55354\n58009\n-85894015\n1360600739\n-43397\n635177749\n268671\n108456\n-1522215022\n194408\n33780\n16385\n-254673984628104\n-688078\n159934312920\n2866587\n2067411\n884734\n930499\n-22228229850\n352304313170\n-688118\n163091718842\n4323403\n1736490\n-399726242624\n3112488\n540615\n", 1906884}, src: `
int fs(Matrix float <1> m) {
	int n = dimSize(m, 0);
	return with ([0] <= [i] < [n]) fold(+, 0, (int)(m[i] * 64.0) * (i % 13 + 1));
}
int is(Matrix int <1> m) {
	int n = dimSize(m, 0);
	return with ([0] <= [i] < [n]) fold(+, 0, m[i] * (i % 13 + 1));
}
int bs(Matrix bool <1> m) {
	int n = dimSize(m, 0);
	return with ([0] <= [i] < [n]) fold(+, 0, (int)m[i] * (i % 13 + 1));
}
void shapes(int n) {
	Matrix float <1> f = [0 :: n - 1] * 0.37 - 2.5;
	Matrix float <1> g = [0 :: n - 1] * -0.21 + 1.75;
	Matrix float <1> h = [0 :: n - 1] % 3 * 1.0;
	Matrix int <1> v = [0 :: n - 1] % 7 - 3;
	Matrix int <1> d = [0 :: n - 1] % 5 + 1;
	Matrix bool <1> b = v > 0;
	Matrix bool <1> c = d < 3;
	int k = 3;
	int z = 0 - 2;
	float s = 1.25;
	bool t = true;
	print(dimSize(f, 0));
	print(fs(f + g) + 3 * fs(f - g) + 5 * fs(f .* g) + 7 * fs(f / g));
	print(is(v + d) + 3 * is(v - d) + 5 * is(v .* d) + 7 * is(v / d) + 11 * is(v % d));
	print(fs(v + f) + 3 * fs(f - v) + 5 * fs(v .* g) + 7 * fs(f / d) + 11 * fs(v / g));
	print(bs(f < g) + 3 * bs(f <= g) + 5 * bs(f > g) + 7 * bs(f >= g) + 11 * bs(h == f) + 13 * bs(f != g));
	print(bs(v < d) + 3 * bs(v <= d) + 5 * bs(v > d) + 7 * bs(v >= d) + 11 * bs(v == d) + 13 * bs(v != d));
	print(bs(v < f) + 3 * bs(g >= v) + 5 * bs(v == h) + 7 * bs(h != v));
	print(bs(b && c) + 3 * bs(b || c) + 5 * bs(b == c) + 7 * bs(b != c));
	print(fs(-f) + 3 * is(-v) + 5 * bs(!b));
	print(fs(f + s) + 3 * fs(f - s) + 5 * fs(f * s) + 7 * fs(f / s));
	print(is(v + k) + 3 * is(v - k) + 5 * is(v * k) + 7 * is(v / k) + 11 * is(v % k) + 13 * is(v / z) + 17 * is(v % z));
	print(fs(v * s) + 3 * fs(v - s) + 5 * fs(f + k) + 7 * fs(f / k));
	print(bs(f < s) + 3 * bs(v >= k) + 5 * bs(h == s) + 7 * bs(v == s) + 11 * bs(f != k) + 13 * bs(v <= s) + 17 * bs(f > k));
	print(bs(b && t) + 3 * bs(b || t) + 5 * bs(b == t) + 7 * bs(b != t) + 11 * bs(b && !t) + 13 * bs(b || !t));
	print(fs(s - f) + 3 * fs(s / f) + 5 * is(k - v) + 7 * is(k / d) + 11 * is(k % d) + 13 * fs(s * v) + 17 * fs(k - f));
	print(bs(s < f) + 3 * bs(k > v) + 5 * bs(s <= v) + 7 * bs(k == h) + 11 * bs(s >= g) + 13 * bs(k != v));
	print(bs(t != b) + 3 * bs(t == b) + 5 * bs(!t == b));
}
int main() {
	shapes(0);
	shapes(1);
	shapes(1023);
	shapes(1024);
	shapes(1025);
	shapes(16385);
	return 0;
}`},
	{name: "err_lone_div_zero_matrix", pin: &pinned{"1\n", 24},
		errIs: "err_lone_div_zero_matrix.xc:6:21: runtime error: matrix: integer division by zero", live: 0, src: `
int main() {
	Matrix int <1> v = [1 :: 6];
	Matrix int <1> z = [0 :: 5] % 3;
	print(z[1]);
	Matrix int <1> q = v / z;
	print(q[0]);
	return 0;
}`},
	// The zero divisor sits in the second strip of the matrix.
	{name: "err_lone_mod_zero_scalar_left", pin: &pinned{"499\n", 6000},
		errIs: "err_lone_mod_zero_scalar_left.xc:6:21: runtime error: matrix: integer modulo by zero", live: 0, src: `
int main() {
	int k = 7;
	Matrix int <1> z = [1 :: 2000] % 1501;
	print(z[end]);
	Matrix int <1> r = k % z;
	print(r[0]);
	return 0;
}`},
	// The compare's output is all it admits: one cell short of it, it
	// fails there (18 of 23 cells). The promoted int operand is converted
	// as it is loaded and charges nothing.
	{name: "err_lone_promote_oom", pin: &pinned{"3\n", 18}, opts: interp.Options{MaxCells: 23},
		errIs: "err_lone_promote_oom.xc:6:22: runtime error [trap:oom]: matrix: allocation of 6 cells exceeds the budget (18 of 23 cells already used)", live: 0, src: `
int main() {
	Matrix int <1> v = [1 :: 6];
	Matrix float <1> f = [1 :: 6] * 0.5;
	print(f[end]);
	Matrix bool <1> r = v < f;
	print(r[0]);
	return 0;
}`},
	// An empty matrix divided by a zero scalar has no cell to divide: it is
	// the empty result, like a zero scalar dividend or an empty divisor.
	{name: "lone_empty_div_zero", pin: &pinned{"0\n0\n0\n", 20}, src: `
int main() {
	Matrix int <1> v = [0 :: 9];
	Matrix int <1> e = v[v > 100];
	print(dimSize(e, 0));
	e = e % 0;
	print(dimSize(e, 0));
	Matrix int <1> q = e / 0;
	print(dimSize(q, 0));
	return 0;
}`},

	// Every two-node arithmetic tree the strip engine may run as one
	// instruction (fusedshapes_test.go), pinned at d550d74, where each node
	// was its own pass.
	{name: "fused_shapes_float", pin: &pinned{"-0.7499999925494194\n5.249999992549419\n-0.7499999925494194\n2.7500000074505806\n-2\n-6.249999992549419\n0.6666666666666666\n-2.01326592e+08\n1\n5.249999992549419\n1\n1.0000000149011612\n-1.4901161193847656e-08\n-4.250000007450581\n4.967053731282552e-09\n-1.5\n-1.7500000055879354\n4.249999960884452\n-1.7500000055879354\n0.24999999441206455\n-1\n-5.249999960884452\n0.3333333333333333\n-3\n-2.000000014901161\n-6.250000039115548\n-2.000000014901161\n-1.490116141589226e-08\n-1.0000000149011614\n-5.250000039115548\n0.33333333830038714\n-2.9999999552965164\n0\n0\n2\n-0.24999999441206455\n-0.24999999441206455\n0.24999999441206455\n1\n1\n-1\n-6.249999960884452\n-6.249999960884452\n6.249999960884452\n4.249999960884452\n4.249999960884452\n-4.249999960884452\n2.000000022351742\n-7.450580596923828e-09\n-0.7499999925494194\n5.249999992549419\n-0.7499999925494194\n2.7500000074505806\n-2\n-6.249999992549419\n0.6666666666666666\n-2.01326592e+08\n1\n5.249999992549419\n1\n1.0000000149011612\n-1.4901161193847656e-08\n-4.250000007450581\n4.967053731282552e-09\n-1.5\n-1.7500000055879354\n4.249999960884452\n-1.7500000055879354\n0.24999999441206455\n-1\n-5.249999960884452\n0.3333333333333333\n-3\n-2.000000014901161\n-6.250000039115548\n-2.000000014901161\n-1.490116141589226e-08\n-1.0000000149011614\n-5.250000039115548\n0.33333333830038714\n-2.9999999552965164\n0\n0\n2\n-0.24999999441206455\n-0.24999999441206455\n0.24999999441206455\n1\n1\n-1\n-6.249999960884452\n-6.249999960884452\n6.249999960884452\n4.249999960884452\n4.249999960884452\n-4.249999960884452\n2.000000022351742\n-7.450580596923828e-09\n-0.7499999925494194\nNaN\nNaN\n-0.75\nNaN\nNaN\n5.249999992549419\n7.25\nNaN\n+Inf\nNaN\nNaN\n-0.7499999925494194\nNaN\nNaN\n-0.75\nNaN\nNaN\n2.7500000074505806\nNaN\nNaN\n0.75\n+Inf\n-Inf\n-2\nNaN\nNaN\nNaN\nNaN\n-Inf\n-6.249999992549419\n-0\nNaN\nNaN\nNaN\n-Inf\n0.6666666666666666\nNaN\n0\n+Inf\nNaN\n-Inf\n-2.01326592e+08\nNaN\n-Inf\n0\nNaN\nNaN\n1\nNaN\nNaN\n+Inf\nNaN\nNaN\n5.249999992549419\n7.25\nNaN\n+Inf\nNaN\nNaN\n1\nNaN\nNaN\n+Inf\nNaN\nNaN\n1.0000000149011612\nNaN\nNaN\n-Inf\nNaN\nNaN\n-1.4901161193847656e-08\nNaN\nNaN\nNaN\nNaN\nNaN\n-4.250000007450581\n-0\nNaN\nNaN\nNaN\n+Inf\n4.967053731282552e-09\nNaN\n0\n-Inf\nNaN\nNaN\n-1.5\nNaN\n+Inf\n-0\nNaN\n0\n-1.7500000055879354\nNaN\nNaN\n0\n-Inf\n+Inf\n4.249999960884452\n10.5\nNaN\n+Inf\nNaN\nNaN\n-1.7500000055879354\nNaN\nNaN\n0\n-Inf\n+Inf\n0.24999999441206455\nNaN\nNaN\n0\nNaN\nNaN\n-1\nNaN\nNaN\nNaN\nNaN\n+Inf\n-5.249999960884452\n-0\nNaN\nNaN\nNaN\n-Inf\n0.3333333333333333\nNaN\n-0\nNaN\nNaN\n+Inf\n-3\nNaN\n+Inf\nNaN\nNaN\n-0\n-2.000000014901161\nNaN\nNaN\n0\nNaN\nNaN\n-6.250000039115548\n-2.625\nNaN\n0\nNaN\n+Inf\n-2.000000014901161\nNaN\nNaN\n0\nNaN\nNaN\n-1.490116141589226e-08\nNaN\nNaN\n0\nNaN\nNaN\n-1.0000000149011614\nNaN\nNaN\n-0\nNaN\nNaN\n-5.250000039115548\n-0\nNaN\n0\nNaN\nNaN\n0.33333333830038714\nNaN\nNaN\n-0\nNaN\nNaN\n-2.9999999552965164\nNaN\nNaN\n+Inf\nNaN\nNaN\n0\nNaN\nNaN\nNaN\nNaN\n+Inf\n0\nNaN\nNaN\nNaN\nNaN\n+Inf\n2\nNaN\nNaN\nNaN\nNaN\nNaN\n-0.24999999441206455\nNaN\nNaN\n0\nNaN\nNaN\n-0.24999999441206455\nNaN\nNaN\n0\nNaN\nNaN\n0.24999999441206455\nNaN\nNaN\n0\nNaN\nNaN\n1\nNaN\nNaN\n+Inf\nNaN\nNaN\n1\nNaN\nNaN\n+Inf\nNaN\nNaN\n-1\nNaN\nNaN\n-Inf\nNaN\nNaN\n-6.249999960884452\n-10.5\nNaN\n-Inf\nNaN\n+Inf\n-6.249999960884452\n-10.5\nNaN\n-Inf\nNaN\n+Inf\n6.249999960884452\n10.5\nNaN\n+Inf\nNaN\n-Inf\n4.249999960884452\n10.5\nNaN\n+Inf\nNaN\nNaN\n4.249999960884452\n10.5\nNaN\n+Inf\nNaN\nNaN\n-4.249999960884452\n-10.5\nNaN\n-Inf\nNaN\nNaN\n2.000000022351742\nNaN\n0\n0\n+Inf\nNaN\n-7.450580596923828e-09\nNaN\n0\n-0\nNaN\n-Inf\n1\n1\n1\n1.0000000149011612\n-2\n-2\n-2\n6.7108864e+07\n1\n1\n1\n1.0000000149011612\n-1.4901161193847656e-08\n-1.4901161193847656e-08\n-1.4901161193847656e-08\n0.5\n0\n0\n0\n2\n-1\n-1\n-1\n1\n-2.000000014901161\n-2.000000014901161\n-2.000000014901161\n-1.490116141589226e-08\n-1.0000000149011614\n-1.0000000149011614\n-1.0000000149011614\n0.9999999850988388\n0\n0\n2\n-2\n-2\n2\n1\n1\n-1\n-2\n-2\n2\n0\n0\n0\n2.000000022351742\n-7.450580596923828e-09\n1\n1\n1\n1.0000000149011612\n-2\n-2\n-2\n6.7108864e+07\n1\n1\n1\n1.0000000149011612\n-1.4901161193847656e-08\n-1.4901161193847656e-08\n-1.4901161193847656e-08\n0.5\n0\n0\n0\n2\n-1\n-1\n-1\n1\n-2.000000014901161\n-2.000000014901161\n-2.000000014901161\n-1.490116141589226e-08\n-1.0000000149011614\n-1.0000000149011614\n-1.0000000149011614\n0.9999999850988388\n0\n0\n2\n-2\n-2\n2\n1\n1\n-1\n-2\n-2\n2\n0\n0\n0\n2.000000022351742\n-7.450580596923828e-09\n1\n1\n1\n1.0000000149011612\n-2\n-2\n-2\n6.7108864e+07\n1\n1\n1\n1.0000000149011612\n-1.4901161193847656e-08\n-1.4901161193847656e-08\n-1.4901161193847656e-08\n0.5\n0\n0\n0\n2\n-1\n-1\n-1\n1\n-2.000000014901161\n-2.000000014901161\n-2.000000014901161\n-1.490116141589226e-08\n-1.0000000149011614\n-1.0000000149011614\n-1.0000000149011614\n0.9999999850988388\n0\n0\n2\n-2\n-2\n2\n1\n1\n-1\n-2\n-2\n2\n0\n0\n0\n2.000000022351742\n-7.450580596923828e-09\n196282665687\n131997630679\n196282665687\n246268821504\n-292894277632\n-160674545664\n-97548680289\n-7117699969\n264085438464\n131997630679\n264085438464\n178466062336\n-150048866304\n-17829144918\n-49968495705\n-2913749576\n-901133609\n194471528344\n-901133609\n56220043991\n-554427482112\n-223195955200\n-184416297185\n-2431066163\n-167680938906\n-84643857796\n-167680938906\n-110559761756\n-139005491904\n-56070135785\n-46373454636\n-9666050902\n524688293888\n524688293888\n581809471488\n-56220043991\n-56220043991\n56220043991\n264085438464\n264085438464\n-264085438464\n-251592704000\n-251592704000\n251592704000\n194471528344\n194471528344\n-194471528344\n2015360974848\n-1572809474048\n", 1591590}, src: fusedShapesSrc(true)},
	{name: "fused_shapes_int", pin: &pinned{"4611686018427387913\n21\n4611686018427387913\n4611686018427387897\n4611686018427387924\n80\n922337203685477581\n0\n4611686018427387913\n21\n4611686018427387913\n4611686018427387897\n4611686018427387894\n50\n922337203685477580\n0\n-4611686018427387896\n44\n-4611686018427387896\n-4611686018427387906\n-4611686018427387889\n195\n-922337203685477580\n0\n-1537228672809129296\n1\n-1537228672809129296\n-1537228672809129306\n7686143364045646505\n20\n307445734561825860\n0\n-4611686018427387896\n-4611686018427387896\n-4611686018427387906\n4611686018427387906\n4611686018427387906\n-4611686018427387906\n4611686018427387913\n4611686018427387913\n-4611686018427387913\n-34\n-34\n34\n44\n44\n-44\n-4611686018427387902\n-4611686018427387904\n4611686018427387913\n21\n4611686018427387913\n4611686018427387897\n4611686018427387924\n80\n922337203685477581\n0\n4611686018427387913\n21\n4611686018427387913\n4611686018427387897\n4611686018427387894\n50\n922337203685477580\n0\n-4611686018427387896\n44\n-4611686018427387896\n-4611686018427387906\n-4611686018427387889\n195\n-922337203685477580\n0\n-1537228672809129296\n1\n-1537228672809129296\n-1537228672809129306\n7686143364045646505\n20\n307445734561825860\n0\n-4611686018427387896\n-4611686018427387896\n-4611686018427387906\n4611686018427387906\n4611686018427387906\n-4611686018427387906\n4611686018427387913\n4611686018427387913\n-4611686018427387913\n-34\n-34\n34\n44\n44\n-44\n-4611686018427387902\n-4611686018427387904\n4611686018427387913\n21\n4611686018427387913\n4611686018427387897\n4611686018427387924\n80\n922337203685477581\n0\n4611686018427387913\n21\n4611686018427387913\n4611686018427387897\n4611686018427387894\n50\n922337203685477580\n0\n-4611686018427387896\n44\n-4611686018427387896\n-4611686018427387906\n-4611686018427387889\n195\n-922337203685477580\n0\n-1537228672809129296\n1\n-1537228672809129296\n-1537228672809129306\n7686143364045646505\n20\n307445734561825860\n0\n-4611686018427387896\n-4611686018427387896\n-4611686018427387906\n4611686018427387906\n4611686018427387906\n-4611686018427387906\n4611686018427387913\n4611686018427387913\n-4611686018427387913\n-34\n-34\n34\n44\n44\n-44\n-4611686018427387902\n-4611686018427387904\n383639\n301802\n383639\n191551\n1424757\n988018\n65697\n-1391\n411037\n301802\n411037\n164153\n875705\n438966\n38263\n0\n917669\n946138\n917669\n807901\n5764366\n3568838\n282719\n0\n6148914691236486456\n4613\n6148914691236486456\n6148914691236376688\n6148914691236858972\n200731\n6148914691236528586\n-16826\n1492133\n1492133\n1382365\n-807901\n-807901\n807901\n411037\n411037\n-411037\n-836370\n-836370\n836370\n946138\n946138\n-946138\n6926842\n-6351652\n", 795830}, src: fusedShapesSrc(false)},
	{name: "fused_shapes_chains", pin: &pinned{"1.500000011175871\n2.000000022351742\n1\n-2.000000014901161\n0\n-2\n-1.4901161193847656e-08\n-0.5\n-1.0000000149011614\n-1.0000000149011614\n2\n-2\n0\n0\n-2.0000000074505806\n1.500000011175871\n2.000000022351742\n1\n-2.000000014901161\n0\n-2\n-1.4901161193847656e-08\n-0.5\n-1.0000000149011614\n-1.0000000149011614\n2\n-2\n0\n0\n-2.0000000074505806\n1.500000011175871\n2.000000022351742\n1\n-2.000000014901161\n0\n-2\n-1.4901161193847656e-08\n-0.5\n-1.0000000149011614\n-1.0000000149011614\n2\n-2\n0\n0\n-2.0000000074505806\n816100802560\n2225548034048\n291788029952\n-276003815424\n47326695612\n-110411644928\n-245397777982\n-3221631496\n-153443816973\n-153443816973\n642616524800\n-642616524800\n579531571200\n579531571200\n-642616524800\n3278331\n4611686018425613199\n-4611686018412169512\n-4611686018427748664\n-4611686018423718610\n", 1505392}, src: fusedChainsSrc()},
	// A fold whose body is one load, at strides 1, 2 and 64 and at a
	// negative offset (pinned at d550d74, where the load was copied into a
	// strip before it was combined).
	{name: "fused_shapes_strided_fold", pin: &pinned{"1535.5\n1535.5\n1539\n21518\n1537\n1539\n-1.5\n0\n-2\n2303.25\n3075.5\n-2352.5\n5427\n21514\n3078.5\n3078\n-1.5\n0\n-8\n8105.25\n6159.5\n-7946.5\n11016\n21509\n6165.5\n6156\n3\n0\n-11\n12324.5\n-11026.5\n14094\n21511\n12336.5\n12312\n1.5\n0\n0\n24642.5\n-12081\n15147\n21506\n24666.5\n24624\n4\n0\n-5\n49297\n-12324\n15390\n21498\n49345\n49248\n12\n0\n10\n98594.5\n-12324\n15390\n21509\n98690.5\n98496\n30.5\n0\n7\n", 875766}, src: `
int main() {
	int m = 3;
	int n = 1027;
	for (int p = 1; p < 65; p = p * 2) {
		Matrix float <3> mat = with ([0, 0, 0] <= [i, j, k] < [m, n, p]) genarray([m, n, p], (float)((i * 31 + j * 7 + k * 3) % 19) * 0.5 - 4.0);
		Matrix int <3> imat = with ([0, 0, 0] <= [i, j, k] < [m, n, p]) genarray([m, n, p], (i * 31 + j * 7 + k * 3) % 19 - 9);
		Matrix float <2> sum = with ([0, 0] <= [i, j] < [m, n]) genarray([m, n], with ([0] <= [k] < [p]) fold(+, 0.0, mat[i, j, k]));
		Matrix float <2> lo = with ([0, 0] <= [i, j] < [m, n]) genarray([m, n], with ([0] <= [k] < [p]) fold(min, 100.0, mat[i, j, k]));
		Matrix float <2> hi = with ([0, 1] <= [i, j] < [m, n]) genarray([m, n], with ([0] <= [k] < [p]) fold(max, -100.0, mat[i, j - 1, k]));
		Matrix int <2> isum = with ([0, 0] <= [i, j] < [m, n - 3]) genarray([m, n], with ([0] <= [k] < [p]) fold(+, 7, imat[i, j + 3, k]));
		Matrix float <2> rows = with ([0, 0] <= [i, k] < [m, p]) genarray([m, p], with ([0] <= [j] < [n]) fold(+, 0.5, mat[i, j, k]));
		Matrix float <2> down = with ([0, 0] <= [i, k] < [m, p]) genarray([m, p], with ([0] <= [j] < [n - 1]) fold(+, 0.0, mat[i, j + 1, k]));
		print(with ([0, 0] <= [i, j] < [m, n]) fold(+, 0.0, sum[i, j]));
		print(with ([0, 0] <= [i, j] < [m, n]) fold(+, 0.0, lo[i, j]));
		print(with ([0, 0] <= [i, j] < [m, n]) fold(+, 0.0, hi[i, j]));
		print(with ([0, 0] <= [i, j] < [m, n]) fold(+, 0, isum[i, j]));
		print(with ([0, 0] <= [i, k] < [m, p]) fold(+, 0.0, rows[i, k]));
		print(with ([0, 0] <= [i, k] < [m, p]) fold(+, 0.0, down[i, k]));
		print(sum[2, n - 1]);
		print(hi[1, 0]);
		print(isum[0, n - 4]);
		if (p < 3) {
			Matrix float <2> prod = with ([0, 0] <= [i, j] < [m, n]) genarray([m, n], with ([0] <= [k] < [p]) fold(*, 1.5, mat[i, j, k]));
			print(with ([0, 0] <= [i, j] < [m, n]) fold(+, 0.0, prod[i, j]));
		}
	}
	return 0;
}`},
	// Out of budget inside the bench's fused chain, once two of its four
	// stages are admitted: at the third's output, b * 0.5.
	{name: "err_fused_shapes_oom_in_chain", opts: interp.Options{MaxCells: 7150}, pin: &pinned{"1023\n", 6144},
		errIs: "err_fused_shapes_oom_in_chain.xc:6:36: runtime error [trap:oom]: matrix: allocation of 1024 cells exceeds the budget (6144 of 7150 cells already used)", live: 0, src: `
int main() {
	Matrix float <1> a = [0 :: 1023] * 1.0;
	Matrix float <1> b = [1 :: 1024] * 0.5;
	print(a[end]);
	Matrix float <1> r = a .* b + a - b * 0.5;
	print(r[end]);
	return 0;
}`},

	// The budget's one door: every matrix a program can name is admitted by
	// the matrix package, so each way of making one traps oom at its own
	// span. While slices and matrixMap sub-matrices went uncharged, the
	// first five of these ran to completion.
	{name: "err_oom_all_read", opts: interp.Options{MaxCells: 150}, errHas: "4:23: runtime error [trap:oom]: matrix: allocation of 100 cells exceeds the budget (100 of 150 cells already used)", src: `
int main() {
	Matrix float <2> m = init(Matrix float <2>, 10, 10);
	Matrix float <2> c = m[:, :];
	print(c[9, 9]);
	return 0;
}`},
	{name: "err_oom_range_read", opts: interp.Options{MaxCells: 150}, errHas: "4:21: runtime error [trap:oom]: matrix: allocation of 60 cells exceeds the budget (100 of 150 cells already used)", src: `
int main() {
	Matrix int <1> v = [0 :: 99];
	Matrix int <1> w = v[20 : 79];
	print(w[0]);
	return 0;
}`},
	{name: "err_oom_mask_read", opts: interp.Options{MaxCells: 250}, errHas: "5:8: runtime error [trap:oom]: matrix: allocation of 90 cells exceeds the budget (200 of 250 cells already used)", src: `
int main() {
	Matrix int <1> v = [0 :: 99];
	Matrix int <1> big;
	big = v[v >= 10];
	print(big[0]);
	return 0;
}`},
	{name: "err_oom_recursion_holds_slices", opts: interp.Options{MaxCells: 1000}, errHas: "4:23: runtime error [trap:oom]: matrix: allocation of 400 cells exceeds the budget (800 of 1000 cells already used)", src: `
int deep(Matrix float <2> m, int n) {
	if (n == 0) { return 0; }
	Matrix float <2> c = m[:, :];
	return deep(c, n - 1) + 1;
}
int main() {
	Matrix float <2> m = init(Matrix float <2>, 20, 20);
	print(deep(m, 51));
	return 0;
}`},
	{name: "err_oom_matrix_map_sub_matrix", opts: interp.Options{MaxCells: 150}, errHas: "6:6: runtime error [trap:oom]: matrix: allocation of 8 cells exceeds the budget (144 of 150 cells already used)", src: `
Matrix float <1> same(Matrix float <1> v) { return v; }
int main() {
	Matrix float <2> m = init(Matrix float <2>, 8, 8);
	Matrix float <2> r;
	r = matrixMap(same, m, [1]);
	print(r[7, 7]);
	return 0;
}`},
	{name: "err_oom_range_literal", opts: interp.Options{MaxCells: 150}, errHas: "4:21: runtime error [trap:oom]: matrix: allocation of 60 cells exceeds the budget (100 of 150 cells already used)", src: `
int main() {
	Matrix int <1> v = [0 :: 99];
	Matrix int <1> w = [1 :: 60];
	print(w[0]);
	return 0;
}`},
	{name: "err_oom_files_read", errHas: "4:23: runtime error [trap:oom]: matrix: allocation of 120 cells exceeds the budget (120 of 200 cells already used)",
		opts: interp.Options{MaxCells: 200, Files: map[string]*matrix.Matrix{"ssh.data": sshCube(4, 5, 6, 7)}}, src: `
int main() {
	Matrix float <3> a = readMatrix("ssh.data");
	Matrix float <3> b = readMatrix("ssh.data");
	print(dimSize(b, 2));
	return 0;
}`},
	// What only a reused frame can get wrong (out, error and cells pinned
	// at 5677b0f, before frames were pooled): a register the previous
	// activation left behind, a frame handed out twice at two depths, a
	// frame returned while a spawn still writes into it.
	{name: "frame_second_call_reads_unassigned", pin: &pinned{"5\n7.5\n0\n", 4},
		errHas: "9:8: runtime error: cannot index a non-matrix or unassigned matrix", src: `
int peek(int k) {
	Matrix float <1> v;
	int c;
	if (k == 0) {
		v = init(Matrix float <1>, 4); v[0] = 7.5; c = 5;
	}
	print(c);
	print(v[0]);
	return k;
}
int main() {
	peek(0);
	peek(1);
	return 0;
}`},
	{name: "frame_second_call_unassigned_operand", pin: &pinned{"1\n", 6},
		errHas: "5:23: runtime error: use of unassigned matrix", src: `
float tip(int k, Matrix float <1> seed) {
	Matrix float <1> v;
	if (k == 0) { v = seed; }
	Matrix float <1> w = v + 1.0;
	return w[0];
}
int main() {
	Matrix float <1> seed = init(Matrix float <1>, 3);
	print(tip(0, seed));
	print(tip(1, seed));
	return 0;
}`},
	{name: "frame_recursive_matrix_from_own_return", pin: &pinned{"11\n6\n3\n6\n", 30}, src: `
Matrix float <1> grow(int n) {
	if (n == 0) { return init(Matrix float <1>, 3); }
	Matrix float <1> prev = grow(n - 1);
	Matrix float <1> next = prev + 1.0;
	next[0] = prev[1] + (float)n;
	return next;
}
int main() {
	Matrix float <1> r = grow(6);
	print(r[0]);
	print(r[1]);
	Matrix float <1> again = grow(2);
	print(again[0]);
	print(r[2]);
	return 0;
}`},
	{name: "frame_spawn_same_function_two_depths", pin: &pinned{"34021\n21\n", 0}, src: `
int work(int n) {
	if (n < 2) { return n; }
	int a = 0;
	int b = 0;
	spawn a = work(n - 1);
	spawn b = work(n - 2);
	sync;
	return a + b;
}
int twice(int n) {
	int x = 0;
	int y = 0;
	spawn x = work(n);
	y = work(n - 1);
	sync;
	return x * 1000 + y;
}
int main() {
	int p = 0;
	int q = 0;
	spawn p = twice(9);
	q = work(8);
	sync;
	print(p);
	print(q);
	return 0;
}`},
	{name: "frame_with_body_reenters_own_body_proto", pin: &pinned{"2226\n83\n83\n", 624}, src: `
int nest(int n) {
	if (n == 0) { return 1; }
	return with ([0] <= [i] < [3]) fold(+, 0, nest(n - 1) * (i + 1) + n);
}
Matrix int <1> row(int n) {
	if (n == 0) { return [1 :: 4]; }
	Matrix int <1> below = row(n - 1);
	return with ([0] <= [i] < [4]) genarray([4], below[i] + row(n - 1)[3 - i] + nest(1));
}
int main() {
	print(nest(4));
	Matrix int <1> r = row(3);
	print(r[0]);
	print(r[3]);
	return 0;
}`},
	// Frame-local matrices (out, error, cells and live count pinned at
	// 7037eda, before a frame kept the matrices its sites make): one
	// reused across activations as its size grows and shrinks through
	// 0, 1, 8, 9 and 48 cells, at every producing site (a chain, an init,
	// a flat genarray, a mask selection, a lone operation); recursion; a
	// trap while one is live; one in a matrixMap function; and one
	// negative case per escape route, each of which must keep its
	// matrix out of the frame's keeping.
	{name: "frame_local_sizes", pin: &pinned{"0\n10002\n80644\n90536\n489308\n91034\n80772\n10002\n0\n484378\n3850\n", 1565}, threads: []int{1, 2, 3, 7}, src: `
float f(int n, float k) {
	int hi = n - 1;
	Matrix float <1> v = [0 :: hi] * k + 1.0;
	Matrix float <1> w = init(Matrix float <1>, n);
	Matrix float <1> g = with ([0] <= [i] < [n]) genarray([n], v[i] * 2.0);
	Matrix float <1> s = v[v >= 2.0];
	Matrix float <1> d = g * 0.5;
	Matrix int <2> q = init(Matrix int <2>, n, 2);
	q[:, 1] = [0 :: hi];
	float t = with ([0] <= [i] < [n]) fold(+, 0.0, v[i] + w[i] + g[i] - d[i]);
	return t + (float)(dimSize(s, 0) * 100 + dimSize(q, 0) * 10000);
}
int main() {
	print(f(0, 1.5));
	print(f(1, 1.5));
	print(f(8, 0.5));
	print(f(9, 0.25));
	print(f(48, 2.0));
	print(f(9, 3.0));
	print(f(8, 1.0));
	print(f(1, 4.0));
	print(f(0, 1.0));
	print(f(48, 0.125));
	int i = 0;
	float acc = 0.0;
	while (i < 12) {
		Matrix float <1> g = with ([0] <= [j] < [i]) genarray([i], (float)(j * i));
		Matrix float <1> h = g * 2.0;
		acc = acc + with ([0] <= [j] < [i]) fold(+, 0.0, h[j]);
		i = i + 1;
	}
	print(acc);
	return 0;
}`},
	{name: "frame_local_recursion", pin: &pinned{"475\n142.5\n957\n", 3832}, threads: []int{1, 2, 3, 7}, src: `
float rec(int d, int n) {
	Matrix float <1> v = [0 :: n] * 0.5 + 1.0;
	float r = 0.0;
	if (d > 0) {
		r = rec(d - 1, n + 3);
		r = r + rec(d - 1, n + 1);
	}
	Matrix float <1> g = with ([0] <= [i] < [dimSize(v, 0)]) genarray([dimSize(v, 0)], v[i] + (float)d);
	return r + g[end] + v[0] * (float)dimSize(v, 0);
}
int main() {
	print(rec(4, 2));
	print(rec(2, 9));
	print(rec(5, 0));
	return 0;
}`},
	{name: "err_frame_local_trap_live", pin: &pinned{"6\n10\n14\n18\n22\n", 301}, threads: []int{1, 2, 3, 7},
		errIs: "err_frame_local_trap_live.xc:6:9: runtime error: matrix: index 7 out of range [0,3) in dimension 0", live: 0, src: `
float pick(int n, int at) {
	int hi = n - 1;
	Matrix float <1> v = [0 :: hi] * 2.0 + 1.0;
	Matrix float <1> w = init(Matrix float <1>, n);
	return v[at] + w[0];
}
int main() {
	int i = 1;
	while (i < 6) {
		Matrix float <1> m = [0 :: i] * 2.0 + 1.0;
		print(pick(i + 8, i) + m[end]);
		i = i + 1;
	}
	Matrix float <1> last = [0 :: 2] * 1.5 + 1.0;
	print(pick(3, 7) + last[0]);
	return 0;
}`},
	{name: "frame_local_in_matrixmap", pin: &pinned{"10\n-710.75\n-330.5\n-63067.5\n", 1440}, threads: []int{1, 2, 3, 7}, src: `
Matrix float <1> lift(Matrix float <1> ts) {
	int hi = dimSize(ts, 0) - 1;
	Matrix float <1> line = [0 :: hi] * 0.5 + 1.0;
	Matrix float <1> sc = ts * 2.0;
	float area = with ([0] <= [i] < [dimSize(line, 0)]) fold(+, 0.0, line[i] - sc[i]);
	return with ([0] <= [i] < [dimSize(ts, 0)]) genarray([dimSize(ts, 0)], ts[i] + line[i] + area);
}
int main() {
	Matrix float <3> cube;
	cube = with ([0, 0, 0] <= [i, j, k] < [5, 4, 9]) genarray([5, 4, 9], (float)(i * 36 + j * 9 + k) * 0.25);
	Matrix float <3> r = matrixMap(lift, cube, [2]);
	print(r[0, 0, 0]);
	print(r[4, 3, 8]);
	print(r[2, 1, 5]);
	float s = with ([0, 0, 0] <= [i, j, k] < [5, 4, 9]) fold(+, 0.0, r[i, j, k]);
	print(s);
	return 0;
}`},
	{name: "frame_local_escape_return", pin: &pinned{"21\n9\n", 45}, threads: []int{1, 2, 3, 7}, src: `
Matrix float <1> mk(int n) {
	Matrix float <1> v = [0 :: n] * 2.0 + 1.0;
	return v;
}
int main() {
	Matrix float <1> a = mk(3);
	Matrix float <1> b = mk(5);
	Matrix float <1> c = mk(1);
	print(a[end] + b[end] + c[end]);
	a = mk(2);
	print(a[end] + b[0] + c[1]);
	return 0;
}`},
	{name: "err_frame_local_escape_rcset", pin: &pinned{"4\n4\n3\n", 37}, threads: []int{1, 2, 3, 7},
		errIs: "err_frame_local_escape_rcset.xc:2:1: runtime error [trap:rc]: rc: IncRef on freed allocation (use after free)", live: 2, src: `
int keep(refcounted Matrix float <1> * c, int n) {
	Matrix float <1> v = [0 :: n] * 2.0 + 1.0;
	rcset(c, v);
	return dimSize(v, 0);
}
int main() {
	refcounted Matrix float <1> * c = rcnew(init(Matrix float <1>, 2));
	refcounted Matrix float <1> * d = rcnew(init(Matrix float <1>, 2));
	print(keep(c, 3));
	print(keep(d, 3));
	print(keep(d, 2));
	Matrix float <1> z = rcget(c);
	print(z[0]);
	return 0;
}`},
	{name: "frame_local_escape_global", pin: &pinned{"4\n5\n6\n18\n", 45}, threads: []int{1, 2, 3, 7}, src: `
Matrix float <1> g;
int put(int n) {
	Matrix float <1> v = [0 :: n] * 2.0 + 1.0;
	g = v;
	return dimSize(v, 0);
}
int main() {
	print(put(3));
	Matrix float <1> first = g;
	print(put(4));
	print(put(5));
	print(first[end] + g[end]);
	return 0;
}`},
	{name: "frame_local_escape_tuple", pin: &pinned{"20\n6\n", 36}, threads: []int{1, 2, 3, 7}, src: `
(Matrix float <1>, int) tp(int n) {
	Matrix float <1> v = [0 :: n] * 2.0 + 1.0;
	(Matrix float <1>, int) t = (v, n);
	return t;
}
int main() {
	Matrix float <1> a;
	Matrix float <1> b;
	int k = 0;
	(a, k) = tp(3);
	(b, k) = tp(4);
	print(a[end] + b[end] + (float)k);
	(a, k) = tp(2);
	print(a[end] + b[0]);
	return 0;
}`},
	{name: "frame_local_escape_alias", pin: &pinned{"20\n", 33}, threads: []int{1, 2, 3, 7}, src: `
Matrix float <1> al(int n) {
	Matrix float <1> v = [0 :: n] * 2.0 + 1.0;
	Matrix float <1> w = v;
	return w;
}
int main() {
	Matrix float <1> a = al(3);
	Matrix float <1> b = al(6);
	print(a[end] + b[end]);
	return 0;
}`},
	{name: "frame_local_escape_callee", pin: &pinned{"22\n1\n", 70}, threads: []int{1, 2, 3, 7}, src: `
Matrix float <1> same(Matrix float <1> x) { return x; }
Matrix float <1> via(int n) {
	Matrix float <1> v = [0 :: n] * 2.0 + 1.0;
	Matrix float <1> r = same(v);
	return r;
}
int stash(refcounted Matrix float <1> * c, Matrix float <1> x) { rcset(c, x); return 0; }
int hold(refcounted Matrix float <1> * c, int n) {
	Matrix float <1> v = [0 :: n] * 2.0 + 1.0;
	return stash(c, v);
}
int main() {
	Matrix float <1> a = via(3);
	Matrix float <1> b = via(7);
	print(a[end] + b[end]);
	refcounted Matrix float <1> * c = rcnew(init(Matrix float <1>, 1));
	hold(c, 4);
	hold(c, 5);
	print(1);
	return 0;
}`},
	{name: "frame_local_escape_spawn", pin: &pinned{"38\n198\n21\n", 96}, threads: []int{1, 2, 3, 7}, src: `
float total(Matrix float <1> x) {
	return with ([0] <= [i] < [dimSize(x, 0)]) fold(+, 0.0, x[i]);
}
float fan(int n) {
	Matrix float <1> v = [0 :: n] * 2.0 + 1.0;
	float a = 0.0;
	spawn a = total(v);
	Matrix float <1> w = [0 :: n] * 3.0 + 1.0;
	float b = total(w);
	sync;
	return a + b;
}
int main() {
	print(fan(3));
	print(fan(8));
	print(fan(2));
	return 0;
}`},
	// Returned matrices (out, error, cells and live count pinned at
	// 0b33205, before a caller's frame gave its callee a destination): a
	// destructured returned slice rebound in a loop, a returned genarray
	// consumed by an index store, a matrixMap function returning its init,
	// recursion returning a matrix, and 0-, 1-, 8- and 48-cell returns at
	// every producing site; then one negative case per route by which a
	// returned matrix escapes its caller — a global, an rc cell, a tuple
	// kept whole, a spawn, a retaining callee, a tuple parameter into an
	// rc cell and a second return — each of which must keep the call from
	// being a destination.
	{name: "return_local_tuple_loop", pin: &pinned{"2\n3\n4\n4\n4\n3\n4\n4\n4\n3\n4\n4\n4\n3\n4\n4\n4\n3\n4\n4\n4\n3\n2\n7009\n20\n", 142}, threads: []int{1, 2, 3, 7}, src: `
(Matrix float <1>, int, int) seg(Matrix float <1> ts, int i) {
	int b = i;
	int n = dimSize(ts, 0);
	while (i + 1 < n && ts[i] >= ts[i + 1])
		i = i + 1;
	while (i + 1 < n && ts[i] < ts[i + 1])
		i = i + 1;
	return (ts[b :: i], b, i);
}
int main() {
	Matrix float <1> ts = with ([0] <= [k] < [60]) genarray([60], (float)((k * 7) % 11 + k / 20));
	Matrix float <1> t;
	int b = 0;
	int i = 0;
	float acc = 0.0;
	while (i < 59) {
		(t, b, i) = seg(ts, i);
		print(dimSize(t, 0));
		acc = acc + t[0] * 3.0 + t[end] * (float)b;
	}
	print(acc);
	print(t[0] + t[end]);
	return 0;
}`},
	{name: "return_local_index_store", pin: &pinned{"0\n16.5\n402.5\n12460\n", 320}, threads: []int{1, 2, 3, 7}, src: `
Matrix float <1> area(Matrix float <1> a) {
	int n = dimSize(a, 0);
	float s = with ([0] <= [i] < [n]) fold(+, 0.0, a[i]);
	return with ([0] <= [i] < [n]) genarray([n], s - a[i]);
}
int main() {
	Matrix float <1> out = init(Matrix float <1>, 64);
	int at = 0;
	int w = 1;
	while (at + w <= 64) {
		Matrix float <1> piece = [at :: at + w - 1] * 0.5 + 1.0;
		out[at : at + w - 1] = area(piece);
		at = at + w;
		w = w + 2;
	}
	print(out[0]);
	print(out[5]);
	print(out[63]);
	print(with ([0] <= [i] < [64]) fold(+, 0.0, out[i]));
	return 0;
}`},
	{name: "return_local_in_matrixmap", pin: &pinned{"0\n81.5\n38\n7335\n", 720}, threads: []int{1, 2, 3, 7}, src: `
Matrix float <1> prof(Matrix float <1> ts) {
	int n = dimSize(ts, 0);
	Matrix float <1> out = init(Matrix float <1>, n);
	int i = 0;
	while (i < n) {
		out[i] = ts[i] * 2.0 - (float)i;
		i = i + 1;
	}
	return out;
}
int main() {
	Matrix float <3> cube;
	cube = with ([0, 0, 0] <= [i, j, k] < [5, 4, 9]) genarray([5, 4, 9], (float)(i * 36 + j * 9 + k) * 0.25);
	Matrix float <3> r = matrixMap(prof, cube, [2]);
	print(r[0, 0, 0]);
	print(r[4, 3, 8]);
	print(r[2, 1, 5]);
	print(with ([0, 0, 0] <= [i, j, k] < [5, 4, 9]) fold(+, 0.0, r[i, j, k]));
	return 0;
}`},
	{name: "return_local_recursion", pin: &pinned{"3\n3\n5\n8\n7\n19\n9\n42\n11\n89\n32\n", 1294}, threads: []int{1, 2, 3, 7}, src: `
Matrix float <1> build(int d, int n) {
	if (d == 0) {
		return [0 :: n] * 0.5 + 1.0;
	}
	Matrix float <1> a = build(d - 1, n + 2);
	Matrix float <1> b = build(d - 1, n + 1);
	Matrix float <1> r = with ([0] <= [i] < [dimSize(a, 0)]) genarray([dimSize(a, 0)], a[i] + b[i % dimSize(b, 0)] + (float)d);
	return r;
}
int main() {
	int d = 0;
	while (d < 5) {
		Matrix float <1> v = build(d, 2);
		print(dimSize(v, 0));
		print(v[0] + v[end]);
		d = d + 1;
	}
	print(build(3, 0)[end] + build(2, 7)[1]);
	return 0;
}`},
	{name: "return_local_sizes", pin: &pinned{"0\n1000101\n8040808\n48444848\n9050909\n0\n1000101\n8040808\n48444848\n9050909\n9706\n", 1162}, threads: []int{1, 2, 3, 7}, src: `
Matrix float <1> mk(int n, float k) {
	Matrix float <1> v = init(Matrix float <1>, n);
	int i = 0;
	while (i < n) {
		v[i] = (float)i * k;
		i = i + 1;
	}
	return v;
}
Matrix float <1> gen(int n) {
	return with ([0] <= [i] < [n]) genarray([n], (float)(i * i));
}
Matrix float <1> sel(Matrix float <1> v, float t) {
	return v[v >= t];
}
Matrix float <1> cut(Matrix float <1> v, int hi) {
	return v[0 :: hi];
}
Matrix float <1> lone(Matrix float <1> v) {
	return v * 0.5;
}
Matrix float <1> chain(int n) {
	int hi = n - 1;
	return [0 :: hi] * 2.0 + 1.0;
}
int main() {
	int k = 0;
	float acc = 0.0;
	while (k < 10) {
		int n = 0;
		if (k % 5 == 1) { n = 1; }
		if (k % 5 == 2) { n = 8; }
		if (k % 5 == 3) { n = 48; }
		if (k % 5 == 4) { n = 9; }
		Matrix float <1> a = mk(n, 1.5);
		Matrix float <1> g = gen(n);
		Matrix float <1> s = sel(g, 10.0);
		Matrix float <1> c = chain(n);
		Matrix float <1> h = lone(c);
		print(dimSize(a, 0) + dimSize(g, 0) * 100 + dimSize(s, 0) * 10000 + dimSize(h, 0) * 1000000);
		if (n > 0) {
			Matrix float <1> p = cut(g, n - 1);
			acc = acc + a[end] + g[end] + c[0] + h[end] + p[end];
		}
		if (dimSize(s, 0) > 0) {
			acc = acc + s[0];
		}
		k = k + 1;
	}
	print(acc);
	return 0;
}`},
	{name: "return_local_escape_global", pin: &pinned{"4\n5\n6\n18\n", 45}, threads: []int{1, 2, 3, 7}, src: `
Matrix float <1> g;
Matrix float <1> mk(int n) {
	return [0 :: n] * 2.0 + 1.0;
}
int put(int n) {
	g = mk(n);
	return dimSize(g, 0);
}
int main() {
	print(put(3));
	Matrix float <1> first = g;
	print(put(4));
	print(put(5));
	print(first[end] + g[end]);
	return 0;
}`},
	{name: "return_local_escape_rc", pin: &pinned{"3\n3\n2\n7\n", 41}, threads: []int{1, 2, 3, 7}, src: `
Matrix float <1> mk(int n) {
	return [0 :: n] * 2.0 + 1.0;
}
int keep(refcounted Matrix float <1> * c, int n) {
	rcset(c, mk(n));
	return n;
}
int main() {
	refcounted Matrix float <1> * c = rcnew(init(Matrix float <1>, 2));
	refcounted Matrix float <1> * d = rcnew(mk(1));
	print(keep(c, 3));
	print(keep(d, 3));
	print(keep(d, 2));
	Matrix float <1> z = rcget(c);
	print(z[end]);
	return 0;
}`},
	{name: "return_local_escape_tuple", pin: &pinned{"20\n11\n", 54}, threads: []int{1, 2, 3, 7}, src: `
(Matrix float <1>, int) tp(int n) {
	return ([0 :: n] * 2.0 + 1.0, n);
}
int main() {
	(Matrix float <1>, int) t = tp(3);
	(Matrix float <1>, int) u = tp(4);
	Matrix float <1> a;
	Matrix float <1> b;
	int k = 0;
	(a, k) = t;
	(b, k) = u;
	print(a[end] + b[end] + (float)k);
	int i = 0;
	while (i < 3) {
		t = tp(i + 1);
		i = i + 1;
	}
	(a, k) = t;
	print(a[end] + b[0] + (float)k);
	return 0;
}`},
	{name: "return_local_escape_spawn", pin: &pinned{"125\n545\n77\n", 315}, threads: []int{1, 2, 3, 7}, src: `
float total(Matrix float <1> x) {
	return with ([0] <= [i] < [dimSize(x, 0)]) fold(+, 0.0, x[i]);
}
Matrix float <1> mk(int n) {
	return [0 :: n] * 2.0 + 1.0;
}
float fan(int n) {
	float a = 0.0;
	float b = 0.0;
	int i = 0;
	while (i < 3) {
		Matrix float <1> v = mk(n + i);
		spawn a = total(v);
		b = b + total(mk(n));
		sync;
		b = b + a;
		i = i + 1;
	}
	return b;
}
int main() {
	print(fan(3));
	print(fan(8));
	print(fan(2));
	return 0;
}`},
	{name: "err_return_local_escape_callee", pin: &pinned{"22\n", 91}, threads: []int{1, 2, 3, 7},
		errIs: "err_return_local_escape_callee.xc:2:1: runtime error [trap:rc]: rc: IncRef on freed allocation (use after free)", live: 3, src: `
Matrix float <1> same(Matrix float <1> x) { return x; }
Matrix float <1> mk(int n) {
	return [0 :: n] * 2.0 + 1.0;
}
int stash(refcounted Matrix float <1> * c, Matrix float <1> x) { rcset(c, x); return 0; }
int main() {
	Matrix float <1> a = same(mk(3));
	Matrix float <1> b = same(mk(7));
	print(a[end] + b[end]);
	refcounted Matrix float <1> * c = rcnew(init(Matrix float <1>, 1));
	int i = 0;
	while (i < 3) {
		stash(c, mk(i + 4));
		i = i + 1;
	}
	Matrix float <1> z = rcget(c);
	print(z[end]);
	return 0;
}`},
	{name: "err_return_local_escape_tuple_param", pin: &pinned{"", 42}, threads: []int{1, 2, 3, 7},
		errIs: "err_return_local_escape_tuple_param.xc:2:1: runtime error [trap:rc]: rc: IncRef on freed allocation (use after free)", live: 1, src: `
(Matrix float <1>, int) tp(int n) {
	return ([0 :: n] * 2.0 + 1.0, n);
}
int stash(refcounted (Matrix float <1>, int) * c, (Matrix float <1>, int) t) {
	rcset(c, t);
	return 0;
}
int main() {
	refcounted (Matrix float <1>, int) * c = rcnew(tp(1));
	int i = 0;
	while (i < 3) {
		stash(c, tp(i + 2));
		i = i + 1;
	}
	Matrix float <1> z;
	int k = 0;
	(z, k) = rcget(c);
	print(z[end]);
	print(k);
	return 0;
}`},
	{name: "return_local_escape_return", pin: &pinned{"40\n10\n", 81}, threads: []int{1, 2, 3, 7}, src: `
Matrix float <1> mk(int n) {
	return [0 :: n] * 2.0 + 1.0;
}
Matrix float <1> pass(int n) {
	Matrix float <1> r = mk(n);
	return r;
}
Matrix float <1> again(int n) {
	return mk(n);
}
int main() {
	Matrix float <1> a = pass(3);
	Matrix float <1> b = pass(5);
	Matrix float <1> c = again(4);
	Matrix float <1> d = again(6);
	print(a[end] + b[end] + c[end] + d[end]);
	a = pass(2);
	c = again(1);
	print(a[end] + b[0] + c[end] + d[0]);
	return 0;
}`},
	// 'end' where it is read and where it is not (out, error and cells
	// pinned at 9c66458, where every index dimension still computed its
	// 'end' eagerly): scalar, range and nested positions, two reads in one
	// dimension, one behind a short circuit, and an unassigned base with
	// and without an 'end' in the index.
	{name: "end_scalar_range_nested", pin: &pinned{"19\n32\n36\n14\n14\n2\n11\n18\n30\ntrue\n", 32}, src: `
int pick(int k) { print(k); return k; }
int main() {
	Matrix int <1> v = [10 :: 19];
	Matrix int <1> b = [0 :: 4];
	print(v[end]);
	print(v[end - 1] + v[end / 2]);
	Matrix int <1> tail = v[end - 2 : end];
	print(tail[0] + tail[end]);
	print(v[b[end]]);
	print(v[b[end] + b[end - 1] - end / 3]);
	print(v[(end - 9) * pick(2) + end % 4]);
	Matrix int <2> m = init(Matrix int <2>, 3, 4);
	m[end, end] = 7;
	m[0 : end - 1, end - 1] = [5 :: 6];
	print(m[2, 3] + m[1, end - 1] + m[end - 2, 2]);
	v[end] = v[end] + v[b[end - 3]];
	print(v[9]);
	bool hit = v[0] > 100 || v[(int)(end > 3) + end - 1] == 30;
	print(hit);
	return 0;
}`},
	{name: "err_index_unassigned_no_end", pin: &pinned{"2\n", 0},
		errHas: "6:8: runtime error: cannot index a non-matrix or unassigned matrix", src: `
int main() {
	Matrix float <1> v;
	int i = 2;
	print(i);
	print(v[i + 1]);
	return 0;
}`},
	{name: "err_index_unassigned_end", pin: &pinned{"7\n", 0},
		errHas: "5:8: runtime error: cannot index a non-matrix or unassigned matrix", src: `
int main() {
	Matrix float <1> v;
	print(7);
	print(v[end]);
	return 0;
}`},
	{name: "err_store_unassigned_no_end", pin: &pinned{"4\n", 0},
		errHas: "6:2: runtime error: cannot index-assign into a non-matrix or unassigned matrix", src: `
int side(int k) { print(k); return k; }
int main() {
	Matrix int <1> v;
	int i = 0;
	v[i] = side(4);
	return 0;
}`},
	{name: "err_index_unassigned_impure_index", pin: &pinned{"", 0},
		errHas: "5:8: runtime error: cannot index a non-matrix or unassigned matrix", src: `
int side(int k) { print(k); return k; }
int main() {
	Matrix int <1> v;
	print(v[side(1)]);
	return 0;
}`},
	{name: "err_ginit_index_unassigned_before_later_global", pin: &pinned{"", 0},
		errHas: "3:9: runtime error: cannot index a non-matrix or unassigned matrix", src: `
Matrix int <1> v;
int x = v[later + 1];
int later = 0;
int main() { print(x); return 0; }`},
	{name: "err_idx1_out_of_range_in_loop", pin: &pinned{"0\n1\n3\n6\n", 4},
		errHas: "5:33: runtime error: matrix: index 4 out of range [0,4) in dimension 0", src: `
int main() {
	Matrix float <1> a = init(Matrix float <1>, 4);
	float s = 0.0;
	for (int i = 0; i <= 4; i++) { a[i] = (float)i; s = s + a[i]; print(s); }
	return 0;
}`},
	// The loop and statement shapes the compiler now lowers differently
	// (pinned at 9c66458): destination forwarding where the target is
	// also an operand, immediate forms of * / % -, rotated for and while
	// loops, && / || / ! conditions, break and continue landing on a
	// back edge, an empty body, a call in a body, a zero-trip loop.
	{name: "loop_shapes", pin: &pinned{"125\n-11\n17\n21\n16\n51\n2\n-268\n268\n2\n-4\n-4\nfalse\ntrue\n1\n24\n21\n97531\n97538\n", 0}, src: `
int twice(int n) { return n * 2; }
int g = 3;
int main() {
	int s = 0;
	for (int i = 0; i < 10; i++) { s = s + i * 3 - 1; }
	print(s);
	int i = 0;
	while (i < 20 && s > 0) { s = s - i; i = i + 1; }
	print(s); print(i);
	for (int k = 0; k < 12; k++) {
		if (k % 2 == 0) { continue; }
		if (k > 8) { break; }
		s = s + twice(k);
	}
	print(s);
	int n = 0;
	for (int k = 0; k < 5; k++) { }
	for (int k = 5; k < 5; k++) { n = n + 100; }
	for (int a = 0; a < 3; a++) {
		for (int b = a; b <= 3; b++) { n = n + a * b; }
	}
	print(n);
	int j = 10;
	while (j > 0) {
		j = j - 1;
		if (j == 7) { continue; }
		if (j < 3 || n > 1000) { break; }
		n = n + j;
	}
	print(n); print(j);
	int x = 7;
	x = x * x - x;
	x = 100 - x;
	x = x / 3 + x % 5 - 3 * x + (0 - 2) * x;
	print(x);
	x = x / -1; print(x);
	x = 17 % -5; print(x);
	x = -17 / 4; print(x);
	float f = 1.5;
	f = f * f + x;
	f = x;
	print(f);
	bool t = x > 0;
	t = !t && (x < -5 || t);
	print(t);
	t = t || !t;
	print(t);
	int y = x;
	y = y;
	x = y + 1;
	print(x - y);
	g = g * 4;
	g = g + g;
	print(g);
	for (int q = 0; !(q >= 3); q = q + 1) { g = g - q; }
	print(g);
	int d = 0;
	for (int q = 9; q > 0; q = q - 2) { d = d * 10 + q; }
	print(d);
	for (;;) { d = d + 1; if (d % 7 == 0) { break; } }
	print(d);
	return 0;
}`},
	{name: "err_div_mod_literal_zero", pin: &pinned{"1\n", 0},
		errHas: "5:8: runtime error: matrix: integer division by zero", src: `
int main() {
	int x = 9;
	print(x % 4);
	print(x / 0);
	return 0;
}`},
	{name: "err_mod_literal_zero_into_operand", pin: &pinned{"", 0},
		errHas: "4:6: runtime error: matrix: integer modulo by zero", src: `
int main() {
	int x = 9;
	x = x % 0;
	print(x);
	return 0;
}`},
	{name: "err_div_zero_keeps_destination", pin: &pinned{"5\n6\n9\n18\n", 0},
		errHas: "5:53: runtime error: matrix: integer division by zero", src: `
int g = 5;
int main() {
	int z = 0;
	for (int i = 3; i >= 0; i = i - 1) { print(g); g = g / i + g; }
	return z;
}`},
	// Rank 5 and 6: above matrix.InlineRank, so shape and strides are
	// allocated, resolve's scratch is on the heap and the VM's spec and
	// dimension scratch overflows its stack array.
	{name: "rank_above_inline_init_index_store", pin: &pinned{"71\n43\n3\n3\n64\n2\n64\n164\n62\n68\n151\n2.5\n2\n", 175}, src: `
int main() {
	Matrix int <5> m = init(Matrix int <5>, 2, 3, 2, 2, 3);
	for (int a = 0; a < 2; a++) {
		for (int b = 0; b < 3; b++) {
			for (int c = 0; c < 2; c++) {
				for (int d = 0; d < 2; d++) {
					for (int e = 0; e < 3; e++) {
						m[a, b, c, d, e] = (((a * 3 + b) * 2 + c) * 2 + d) * 3 + e;
					}
				}
			}
		}
	}
	print(m[1, 2, 1, 1, 2]);
	print(m[end, 0, end, 0, end - 1]);
	Matrix int <2> face = m[1, :, 0, 1, :];
	print(dimSize(face, 0));
	print(dimSize(face, 1));
	print(face[2, 1]);
	Matrix int <5> box = m[:, 1 : 2, :, :, 0 : 1];
	print(dimSize(box, 1));
	print(box[1, 1, 0, 1, 1]);
	m[0, :, 1, 0, :] = face + 100;
	print(m[0, 2, 1, 0, 1]);
	m[1, 0 : 1, :, :, 2] = box[0, :, :, :, 1] * 2;
	print(m[1, 1, 1, 0, 2]);
	print(m[1, 2, 1, 0, 2]);
	Matrix int <1> line = m[0, 1, 1, 0, :];
	print(line[line > 107][0]);
	Matrix float <6> z = init(Matrix float <6>, 2, 1, 2, 1, 2, 2);
	z[1, 0, :, 0, 1, :] = init(Matrix float <2>, 2, 2) + 2.5;
	print(z[1, 0, 1, 0, 1, 0] + z[0, 0, 1, 0, 1, 0]);
	print(dimSize(z[:, 0, :, 0, 1, 1], 1));
	return 0;
}`},
	// Tuple returns and the matrix header (out, error, cells and live count
	// pinned at 3107891, where a tuple return was a heap []any and a bound
	// matrix two rc objects): a literal returned into a destructuring
	// assignment rides in registers, every other pairing builds or unpacks
	// the []any at the seam.
	{name: "tuple_ret_literal_scalars", pin: &pinned{"49\n3.5\nfalse\n4\n2.25\nfalse\n29443\n29443\n", 0}, src: `
(int, float, bool) stats(int a, float w) {
	if (a < 0) { return (0 - a, w, false); }
	return (a * a, w * (float)a, a % 2 == 0);
}
(int, int) minmax(int a, int b) {
	if (a < b) { return (a, b); }
	return (b, a);
}
int main() {
	int n; float x; bool even;
	(n, x, even) = stats(7, 0.5);
	print(n); print(x); print(even);
	(n, x, even) = stats(0 - 4, 2.25);
	print(n); print(x); print(even);
	int lo; int hi;
	int s = 0;
	for (int i = 0; i < 40; i++) {
		(lo, hi) = minmax(i * 7 % 11, i * 5 % 13);
		s = s + hi * 100 + lo;
		(n, x, even) = stats(lo - hi, (float)s);
		if (even) { s = s + n; }
	}
	print(s); print(x);
	stats(3, 1.0);
	return 0;
}`},
	{name: "tuple_ret_matrix_elem", pin: &pinned{"87\n22\n23\n1\n10\n5\n6\n7\n", 225}, src: `
(Matrix float <1>, int, int) getTrough(Matrix float <1> ts, int i) {
	int beginning = i;
	int n = dimSize(ts, 0);
	while (i + 1 < n && ts[i] >= ts[i + 1]) { i = i + 1; }
	while (i + 1 < n && ts[i] < ts[i + 1]) { i = i + 1; }
	return (ts[beginning :: i], beginning, i);
}
(Matrix float <1>, Matrix float <1>, int) both(Matrix float <1> p, int k) {
	Matrix float <1> local = p + (float)k;
	return (p, local, k + 1);
}
int main() {
	Matrix float <1> ts = init(Matrix float <1>, 24);
	for (int k = 0; k < 24; k++) { ts[k] = (float)((k * 7) % 5) - (float)(k % 3) * 0.5; }
	Matrix float <1> trough;
	int beginning = 0;
	int i = 0;
	float acc = 0.0;
	while (i < 23) {
		(trough, beginning, i) = getTrough(ts, i);
		acc = acc + trough[0] + trough[end] + (float)dimSize(trough, 0);
	}
	print(acc); print(beginning); print(i);
	Matrix float <1> same; Matrix float <1> shifted; int k = 0;
	for (int r = 0; r < 3; r++) {
		(same, shifted, k) = both(ts, k);
		(trough, shifted, k) = both(shifted, k);
	}
	print(same[3]); print(shifted[3]); print(trough[3]); print(k);
	(ts, same, k) = both(ts, 9);
	print(ts[5] + same[5]);
	return 0;
}`},
	{name: "tuple_ret_promote", pin: &pinned{"3\n1\n1.5\n0.5\n1.5\n2\n5\n3\n3.5\n", 0}, src: `
(float, int) halves(int a) { return (a / 2, a % 2); }
(float, (float, int)) nested(int a) { return (a, (a + 1, a + 2)); }
int main() {
	float h; float rem;
	(h, rem) = halves(7);
	print(h); print(rem);
	print(h / 2.0); print(rem / 2.0);
	(float, int) in; float f; int k;
	(h, in) = nested(3);
	(f, k) = in;
	print(h / 2.0); print(f / 2.0); print(k);
	(rem, in) = nested(k);
	(h, rem) = in;
	print(h / 2.0); print(rem / 2.0);
	return 0;
}`},
	{name: "tuple_ret_nonliteral", pin: &pinned{"1\n0.5\n3\n12\n6\n14\n3\n1.5\n5\n14\n7\n16\n2\n1.5\n3\n1\n101002\n2001\n103002\n4\n0.25\n", 31}, src: `
(int, float, Matrix int <1>) lit(int a) { return (a, a * 0.5, [a :: a + 2]); }
(int, float, Matrix int <1>) held(int a) {
	(int, float, Matrix int <1>) t = lit(a + 10);
	return t;
}
(int, float, Matrix int <1>) falls(int a) {
	if (a > 0) { return (a, 1.5, [0 :: a]); }
}
(int, float, Matrix int <1>) either(int a) {
	(int, float, Matrix int <1>) t = (a, 0.25, [a :: a]);
	if (a % 2 == 0) { return t; }
	return (a + 100, 0.75, [a :: a + 1]);
}
int main() {
	int n; float x; Matrix int <1> v;
	(n, x, v) = lit(1);
	print(n); print(x); print(v[end]);
	(n, x, v) = held(2);
	print(n); print(x); print(v[end]);
	(int, float, Matrix int <1>) t = lit(3);
	(n, x, v) = t;
	print(n); print(x); print(v[end]);
	t = held(4);
	(n, x, v) = t;
	print(n); print(x); print(v[end]);
	(n, x, v) = falls(2);
	print(n); print(x); print(dimSize(v, 0));
	for (int k = 0; k < 4; k++) {
		(n, x, v) = either(k);
		print(n * 1000 + dimSize(v, 0));
		t = either(k + 1);
	}
	(n, x, v) = t;
	print(n); print(x);
	return 0;
}`},
	{name: "err_tuple_recv_falloff_unassigned", pin: &pinned{"2\n", 7},
		errIs: "err_tuple_recv_falloff_unassigned.xc:9:6: runtime error: use of unassigned matrix", live: 0, src: `
(int, Matrix int <1>) falls(int a) {
	if (a > 0) { return (a, [0 :: a]); }
}
int main() {
	int n; Matrix int <1> v = [0 :: 3];
	(n, v) = falls(2);
	print(n);
	(n, v) = falls(0);
	print(n);
	return 0;
}`},
	{name: "tuple_recv_value", pin: &pinned{"14\n21\n7\n28\n", 60}, src: `
(int, Matrix float <1>) lit(int a) { return (a * 3, [0 :: a] * 0.5); }
float last((int, Matrix float <1>) t) {
	int n; Matrix float <1> v;
	(n, v) = t;
	return v[end] + (float)n;
}
int main() {
	(int, Matrix float <1>) t = lit(4);
	print(last(t));
	print(last(lit(6)));
	t = lit(2);
	(int, Matrix float <1>) u = t;
	t = lit(8);
	print(last(u)); print(last(t));
	lit(5);
	return 0;
}`},
	{name: "tuple_ret_recursive", pin: &pinned{"832040\n1346269\n78\n80\n12\n7\n3\n", 51}, src: `
(int, int) fibPair(int n) {
	if (n == 0) { return (0, 1); }
	int a; int b;
	(a, b) = fibPair(n - 1);
	return (b, a + b);
}
(Matrix int <1>, int) climb(int n) {
	if (n == 0) { return ([0 :: 2], 0); }
	Matrix int <1> below; int depth;
	(below, depth) = climb(n - 1);
	return (below + n, depth + 1);
}
int main() {
	int a; int b;
	(a, b) = fibPair(30);
	print(a); print(b);
	Matrix int <1> top; int d;
	(top, d) = climb(12);
	print(top[0]); print(top[2]); print(d);
	(top, d) = climb(3);
	print(top[1]); print(d);
	return 0;
}`},
	{name: "tuple_ret_into_globals", pin: &pinned{"101\n1.5\n3.5\n203\n3.5\n5\n7\n49\n9\n3\n0.5\n2\n", 22}, src: `
int count = 0;
float level = 0.5;
Matrix float <1> kept = [0 :: 3] * 1.0;
Matrix int <1> slots = [0 :: 5];
(int, float, Matrix float <1>) next(int k) {
	count = count + 100;
	return (count + k, level + (float)k, kept + level);
}
(int, int) two(int k) { return (k, k * k); }
int main() {
	(count, level, kept) = next(1);
	print(count); print(level); print(kept[3]);
	(count, level, kept) = next(2);
	print(count); print(level); print(kept[3]);
	int i = 1;
	(slots[i], slots[i + 1]) = two(7);
	(i, slots[i]) = two(3);
	print(slots[1]); print(slots[2]); print(slots[3]); print(i);
	float f;
	(f, level) = two(4);
	print(f / 8.0); print(level / 8.0);
	return 0;
}`},
	{name: "tuple_ret_spawn", pin: &pinned{"8\n4\n12\n6\n1\n2\n18\n3\n", 16}, src: `
int slow(int n) { return n * 3; }
(int, Matrix int <1>) make(int n) { return (n * 2, [0 :: n]); }
(int, int) snap() {
	int x = 1;
	spawn x = slow(5);
	return (x, 2);
}
(int, int) joined() {
	int x = 1;
	spawn x = slow(6);
	sync;
	return (x, 3);
}
int main() {
	(int, Matrix int <1>) t = make(1);
	(int, Matrix int <1>) u = make(1);
	spawn t = make(4);
	spawn u = make(6);
	sync;
	int n; Matrix int <1> v;
	(n, v) = t;
	print(n); print(v[end]);
	(n, v) = u;
	print(n); print(v[end]);
	int a; int b;
	(a, b) = snap();
	print(a); print(b);
	(a, b) = joined();
	print(a); print(b);
	return 0;
}`},
	{name: "tuple_ret_swap", pin: &pinned{"8\n3\n8\n3\n8\n5\n3\n9\n2\n42\n42\n", 9}, src: `
(int, int) swap(int a, int b) { return (b, a); }
(Matrix int <1>, Matrix int <1>) swapM(Matrix int <1> a, Matrix int <1> b) { return (b, a); }
(Matrix int <1>, Matrix int <1>) twice(Matrix int <1> a) { return (a, a); }
int main() {
	int a = 3; int b = 8;
	(a, b) = swap(a, b);
	print(a); print(b);
	(a, b) = swap(b, a);
	print(a); print(b);
	(a, a) = swap(a, b);
	print(a);
	Matrix int <1> p = [0 :: 2]; Matrix int <1> q = [5 :: 9];
	(p, q) = swapM(p, q);
	print(dimSize(p, 0)); print(dimSize(q, 0));
	(p, q) = swapM(q, p);
	print(p[end]); print(q[end]);
	(p, q) = twice(p);
	q[0] = 42;
	print(p[0]);
	(p, p) = swapM(p, [7 :: 7]);
	print(p[0]);
	return 0;
}`},
	{name: "err_tuple_ret_elem_traps", pin: &pinned{"1\n2\n3\n5\n1\n2\n", 15},
		errIs: "err_tuple_ret_elem_traps.xc:5:20: runtime error: matrix: integer division by zero", live: 0, src: `
int noisy(int k) { print(k); return k; }
(int, int, int) three(Matrix int <1> held, int z) {
	Matrix int <1> mine = held + 1;
	return (noisy(1), noisy(2) / z, noisy(3));
}
int main() {
	Matrix int <1> held = [0 :: 4];
	int a; int b; int c;
	(a, b, c) = three(held, 2);
	print(a + b + c);
	(a, b, c) = three(held, 0);
	print(a);
	return 0;
}`},
	{name: "err_tuple_ret_oom_mid", pin: &pinned{"14\n", 28}, opts: interp.Options{MaxCells: 40},
		errIs: "err_tuple_ret_oom_mid.xc:3:20: runtime error [trap:oom]: matrix: allocation of 31 cells exceeds the budget (28 of 40 cells already used)", live: 0, src: `
(Matrix int <1>, Matrix int <1>, int) grow(Matrix int <1> seed, int n) {
	return (seed + 1, [0 :: n], n);
}
int main() {
	Matrix int <1> seed = [0 :: 7];
	Matrix int <1> a; Matrix int <1> b; int n;
	(a, b, n) = grow(seed, 3);
	print(a[end] + b[end] + n);
	(a, b, n) = grow(a, 30);
	print(n);
	return 0;
}`},
	{name: "err_tuple_ret_coerce_mid", pin: &pinned{"3\n", 8},
		errIs: "err_tuple_ret_coerce_mid.xc:11:6: runtime error: use of unassigned matrix", live: 0, src: `
(int, Matrix float <1>, int) mixed(int k) {
	if (k == 0) { return (1, [0 :: 3] * 1.0, 2); }
	Matrix float <1> none;
	return (k, none, k + 1);
}
int main() {
	int a; Matrix float <1> m; int b;
	(a, m, b) = mixed(0);
	print(a + b);
	(a, m, b) = mixed(5);
	print(a);
	return 0;
}`},
	{name: "err_rc_matrix_use_after_release_bind", pin: &pinned{"1\n", 8},
		errIs: "err_rc_matrix_use_after_release_bind.xc:2:1: runtime error [trap:rc]: rc: IncRef on freed allocation (use after free)", live: 1, src: `
refcounted Matrix float <1> * mk() { Matrix float <1> m = [0 :: 3] * 1.0; return rcnew(m); }
int main() {
	refcounted Matrix float <1> * c = mk();
	print(1);
	Matrix float <1> z = rcget(c);
	print(2);
	return 0;
}`},
	{name: "err_rc_matrix_use_after_release_tuple_ret", pin: &pinned{"1\n", 8},
		errIs: "err_rc_matrix_use_after_release_tuple_ret.xc:2:1: runtime error [trap:rc]: rc: IncRef on freed allocation (use after free)", live: 1, src: `
refcounted Matrix float <1> * mk() { Matrix float <1> m = [0 :: 3] * 1.0; return rcnew(m); }
(Matrix float <1>, int) unwrap(refcounted Matrix float <1> * c) { return (rcget(c), 7); }
int main() {
	refcounted Matrix float <1> * c = mk();
	Matrix float <1> z; int k;
	print(1);
	(z, k) = unwrap(c);
	print(2);
	return 0;
}`},
	{name: "err_rc_matrix_sync_rebinds_returned", pin: &pinned{"1\n", 20},
		errIs: "err_rc_matrix_sync_rebinds_returned.xc:2:1: runtime error [trap:rc]: rc: IncRef on freed allocation (use after free)", live: 1, src: `
Matrix float <1> fresh(int n) { return [0 :: n] * 2.0; }
(Matrix float <1>, int) rebinds() {
	Matrix float <1> m = [0 :: 3] * 1.0;
	spawn m = fresh(5);
	return (m, 1);
}
int main() {
	Matrix float <1> z; int k;
	print(1);
	(z, k) = rebinds();
	print(z[1]);
	return 0;
}`},
	{name: "matmap_callee_param_paths", pin: &pinned{"29\n59\n2.5\n28\n", 372}, src: `
Matrix float <1> base = [0 :: 5] * 0.5;
Matrix float <1> same(Matrix float <1> v) { return v; }
Matrix float <1> rebound(Matrix float <1> v) {
	v = v * 2.0;
	v = v + 1.0;
	return v;
}
Matrix float <1> global(Matrix float <1> v) { return base; }
Matrix float <1> viaTuple(Matrix float <1> v) {
	Matrix float <1> a; Matrix float <1> b;
	(a, b) = pair(v);
	return b;
}
(Matrix float <1>, Matrix float <1>) pair(Matrix float <1> v) { return (v, v - 1.0); }
int main() {
	Matrix float <2> m;
	m = with ([0, 0] <= [i, j] < [5, 6]) genarray([5, 6], 1.0 * (i * 6 + j));
	Matrix float <2> r = matrixMap(same, m, [1]);
	print(r[4, 5]);
	r = matrixMap(rebound, m, [1]);
	print(r[4, 5]);
	r = matrixMap(global, m, [1]);
	print(r[4, 5]);
	r = matrixMapG(viaTuple, m, [1]);
	print(r[4, 5]);
	return 0;
}`},
	// With-loops whose bodies call a pure function (out, error, cells and
	// live count pinned at a6a99ac, where every one ran its closure). The
	// unbudgeted ones (MaxSteps < 0) are where the VM may take an inlined
	// plan; under a step budget every arm runs the closure.
	{name: "with_call_weight", opts: interp.Options{MaxSteps: -1}, pin: &pinned{"2568\n2\n4\n4\n10\n29998\n", 8100}, src: `
float weight(int i, int j) {
	if ((i + j) % 3 == 0) { return 2.0; }
	return 1.0 * ((i * j) % 5);
}
int main() {
	int n = 24;
	Matrix float <2> w;
	w = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], weight(i, j));
	float total = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, weight(i, j) * w[j, i]);
	print(total);
	print(w[5, 7]);
	print(w[n - 1, n - 1]);
	float m = with ([1, 2] <= [i, j] < [n - 1, n]) fold(max, 0.0, weight(i - 1, j + i) - w[i, j - 2]);
	print(m);
	Matrix float <1> row;
	row = with ([3] <= [j] < [n - 2]) genarray([n], weight(7, j) + weight(j, 7));
	print(row[4] + row[n - 3] + row[0]);
	Matrix float <2> big;
	big = with ([0, 0] <= [i, j] < [3, 2500]) genarray([3, 2500], weight(i, j));
	print(with ([0, 0] <= [i, j] < [3, 2500]) fold(+, 0.0, big[i, j] * weight(j, i)));
	return 0;
}`},
	{name: "with_call_promote", opts: interp.Options{MaxSteps: -1}, pin: &pinned{"39.5\n130.5\n42.5\n120800\n22.5\n42.5\n4374\n0\n", 110}, src: `
float scale(float x, int k) { return x * k; }
float half(int v) {
	if (v % 2 == 0) { return v / 2; }
	return v * 0.5;
}
int clampi(int v, int lo, int hi) {
	if (v < lo) { return lo; } else if (v > hi) { return hi; }
	return v;
}
int main() {
	int n = 10;
	Matrix float <2> a;
	a = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], scale(i, j) + half(i * n + j));
	print(a[3, 7]);
	print(a[9, 9]);
	print(a[4, 5]);
	Matrix int <1> c;
	c = with ([0] <= [i] < [n]) genarray([n], clampi(i * 3 - 7, 0, 12));
	print(c[0] + c[5] * 100 + c[9] * 10000);
	float s = with ([0] <= [i] < [n]) fold(+, 0, half(i));
	print(s);
	float p = with ([0] <= [i] < [n]) fold(+, 0.5, clampi(i, 2, 6));
	print(p);
	int t = with ([0] <= [i] < [n]) fold(*, 1, clampi(i, 1, 3));
	print(t);
	float q = with ([0] <= [i] < [n]) fold(min, 100, scale(n, i) - half(i));
	print(q);
	return 0;
}`},
	{name: "with_call_nested2", opts: interp.Options{MaxSteps: -1}, pin: &pinned{"83\n409.5\n194\n", 70}, src: `
int sq(int x) { return x * x; }
int dist2(int a, int b) { return sq(a - b) + sq(b); }
float ramp(int a, int b) {
	if (dist2(a, b) < 20) { return 1.0 * dist2(b, a); }
	return 0.5;
}
int main() {
	Matrix int <2> d;
	d = with ([0, 0] <= [i, j] < [8, 8]) genarray([8, 8], dist2(i, j));
	print(d[2, 5] + d[7, 0]);
	float r = with ([0, 0] <= [i, j] < [8, 8]) fold(+, 0.0, ramp(i, j));
	print(r);
	Matrix float <1> v;
	v = with ([0] <= [i] < [6]) genarray([6], ramp(i, sq(i) % 7) + with ([0] <= [k] < [4]) fold(+, 0, dist2(k, i)));
	print(v[0] + v[5]);
	return 0;
}`},
	{name: "with_select_mixed", opts: interp.Options{MaxSteps: -1}, pin: &pinned{"-3.75\n10\n1\n6.5\n2.25\n-10\n-23.25\n-33\n24651\n202\n", 94}, src: `
float band(int i, float x) {
	if (i < 2 || x >= 7.5) { return 0 - x; }
	else if (i > 5 && !(x < 3.0)) { return x * 2.0; }
	else { if (i == 3) { return 1; } }
	if (i < x) { return x - i; }
	return x + i;
}
int sign(float x) {
	if (x > 0.0) { return 1; }
	if (x < 0.0) { return 0 - 1; }
	return 0;
}
float isnan(float x) {
	if (x != x) { return 1.0; }
	return 0.0;
}
int main() {
	int n = 9;
	Matrix float <2> g;
	g = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], band(i, 1.25 * j));
	print(g[0, 3]);
	print(g[6, 4]);
	print(g[3, 1]);
	print(g[4, 2]);
	print(g[4, 5]);
	print(g[8, 8]);
	print(with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, g[i, j]));
	int s = with ([0] <= [i] < [n]) fold(+, 0, sign(2.5 - i) * (i + 1));
	print(s);
	Matrix int <1> m;
	m = with ([0] <= [i] < [n]) genarray([n], (int)(i % 3 == 0) + 2 * (int)(i > 4 && i != 7) + 4 * (int)!(i < 2 || i >= 8));
	print(m[0] + 10 * m[3] + 100 * m[5] + 1000 * m[7] + 10000 * m[8]);
	float zero = 0.0;
	float nan = zero / zero;
	Matrix float <1> z;
	z = with ([0] <= [i] < [4]) genarray([4], isnan(nan * i) + 10.0 * isnan(zero * i) + 100.0 * (float)(0.0 - zero == zero));
	print(z[0] + z[3]);
	return 0;
}`},
	{name: "with_select_guarded_load", opts: interp.Options{MaxSteps: -1}, pin: &pinned{"-1\n18\n18\n", 40}, src: `
Matrix int <1> a = [10 :: 19];
int prev(int i) {
	if (i > 0) { return a[i - 1]; }
	return 0 - 1;
}
int pick(int c, int v) {
	if (c > 0) { return v; }
	return 0 - 1;
}
int main() {
	Matrix int <1> b = [10 :: 19];
	Matrix int <1> p;
	p = with ([0] <= [i] < [10]) genarray([10], prev(i));
	print(p[0]);
	print(p[9]);
	Matrix int <1> q;
	q = with ([0] <= [i] < [10]) genarray([10], pick(i, b[i]));
	print(q[0] + q[9]);
	return 0;
}`},
	{name: "with_call_declined_global", opts: interp.Options{MaxSteps: -1}, pin: &pinned{"8\n", 6}, src: `
int k = 3;
int addk(int i) { return i + k; }
int main() {
	Matrix int <1> m;
	m = with ([0] <= [i] < [6]) genarray([6], addk(i));
	print(m[5]);
	return 0;
}`},
	{name: "with_call_declined_print", opts: interp.Options{MaxSteps: -1}, pin: &pinned{"2\n10\n", 6}, src: `
int noisy(int i) {
	if (i == 2) { print(i); }
	return i * 2;
}
int main() {
	Matrix int <1> m;
	m = with ([0] <= [i] < [6]) genarray([6], noisy(i));
	print(m[5]);
	return 0;
}`},
	{name: "with_call_declined_recursive", opts: interp.Options{MaxSteps: -1}, pin: &pinned{"120\n", 6}, src: `
int fact(int n) {
	if (n <= 1) { return 1; }
	return n * fact(n - 1);
}
int main() {
	Matrix int <1> m;
	m = with ([0] <= [i] < [6]) genarray([6], fact(i));
	print(m[5]);
	return 0;
}`},
	{name: "with_call_declined_loop", opts: interp.Options{MaxSteps: -1}, pin: &pinned{"5\n", 6}, src: `
int wrap(int n) {
	while (n > 10) { n = n - 10; }
	return n;
}
int main() {
	Matrix int <1> m;
	m = with ([0] <= [i] < [6]) genarray([6], wrap(i * 7));
	print(m[5]);
	return 0;
}`},
	{name: "with_call_declined_local", opts: interp.Options{MaxSteps: -1}, pin: &pinned{"10\n", 6}, src: `
int twice(int n) {
	int m = n * 2;
	return m;
}
int main() {
	Matrix int <1> m;
	m = with ([0] <= [i] < [6]) genarray([6], twice(i));
	print(m[5]);
	return 0;
}`},
	{name: "err_with_call_step", opts: interp.Options{MaxSteps: 100}, pin: &pinned{"1\n", 64},
		errIs: "err_with_call_step.xc:4:2: runtime error [trap:step]: execution exceeded 100 steps", live: 0, src: `
float weight(int i, int j) {
	if ((i + j) % 3 == 0) { return 2.0; }
	return 1.0 * ((i * j) % 5);
}
int main() {
	print(1);
	Matrix float <2> w;
	w = with ([0, 0] <= [i, j] < [1, 64]) genarray([1, 64], weight(i, j));
	print(w[0, 1]);
	return 0;
}`},
	{name: "err_with_call_depth", opts: interp.Options{MaxSteps: -1}, pin: &pinned{"3\n", 8},
		errIs: "err_with_call_depth.xc:9:45: runtime error [trap:depth]: call stack exceeded 512 frames (infinite recursion in \"w\"?)", live: 0, src: `
float w(int i) {
	if (i > 2) { return 1.0; }
	return 2.0;
}
float down(int n) {
	if (n == 0) {
		Matrix float <1> m;
		m = with ([0] <= [i] < [4]) genarray([4], w(i));
		return m[0] + m[3];
	}
	return down(n - 1);
}
int main() {
	print(down(509));
	print(down(510));
	return 0;
}`},
	// A nested fold opens a body frame a cell on the closure path: the call
	// under it traps one level sooner than a call in the body.
	{name: "err_with_call_depth_nested_fold", opts: interp.Options{MaxSteps: -1}, pin: &pinned{"10\n", 8},
		errIs: "err_with_call_depth_nested_fold.xc:9:82: runtime error [trap:depth]: call stack exceeded 512 frames (infinite recursion in \"w\"?)", live: 0, src: `
float w(int i) {
	if (i > 2) { return 1.0; }
	return 2.0;
}
float down(int n) {
	if (n == 0) {
		Matrix float <1> m;
		m = with ([0] <= [i] < [4]) genarray([4], with ([0] <= [k] < [3]) fold(+, 0.5, w(k + i)));
		return m[0] + m[3];
	}
	return down(n - 1);
}
int main() {
	print(down(508));
	print(down(509));
	return 0;
}`},
	// Matrices of up to eight cells, whose cells share the header's object,
	// beside the 0-, 9- and 16-cell ones that do not (out, error, cells and
	// live count pinned at 3f39347, where every matrix was a header and a
	// separate cell buffer). Rank 0 is no type the checker admits; ranks 1
	// to 5 cover both sides of InlineRank.
	{name: "small_cells_shapes", pin: &pinned{"0\n4\n7\n8\n9\n11\n7.5\n120\n13\n0\n20\n56\n4\n7\n50\n13\n36\n24\n0\ntrue\ntrue\ntrue\ntrue\nfalse\ntrue\ntrue\n9\n", 227}, src: `
int main() {
	Matrix float <1> f0 = init(Matrix float <1>, 0);
	Matrix float <1> f1;
	f1 = with ([0] <= [i] < [1]) genarray([1], 0.5 + i);
	Matrix float <2> f2;
	f2 = with ([0, 0] <= [i, j] < [1, 2]) genarray([1, 2], 1.5 * (i + j + 1));
	Matrix float <3> f3;
	f3 = with ([0, 0, 0] <= [i, j, k] < [3, 1, 1]) genarray([3, 1, 1], 0.25 * i - k);
	Matrix float <4> f8;
	f8 = with ([0, 0, 0, 0] <= [a, b, c, d] < [2, 2, 1, 2]) genarray([2, 2, 1, 2], (float)(a * 4 + b * 2 + d));
	Matrix float <5> f9 = init(Matrix float <5>, 3, 1, 3, 1, 1);
	f9[2, 0, 1, 0, 0] = 7.5;
	f9[0, 0, :, 0, 0] = f3[:, 0, 0];
	Matrix float <2> f16;
	f16 = with ([0, 0] <= [i, j] < [4, 4]) genarray([4, 4], (float)(i * 4 + j));
	print(dimSize(f0, 0));
	print(f1[0] + f2[0, 1] + f3[2, 0, 0]);
	print(f8[1, 1, 0, 1]);
	print(f9[2, 0, 1, 0, 0] + f9[0, 0, 2, 0, 0]);
	Matrix float <4> g8 = f8 * 2.0 - 1.0;
	print(g8[1, 0, 0, 1]);
	Matrix float <2> half = f16[1 : 2, :];
	print(half[1, 3]);
	Matrix float <1> col = f9[:, 0, 1, 0, 0];
	print(col[2]);
	print(with ([0, 0] <= [i, j] < [4, 4]) fold(+, 0.0, f16[i, j]));
	print(with ([0, 0, 0, 0] <= [a, b, c, d] < [2, 2, 1, 2]) fold(max, -1.0, g8[a, b, c, d]));

	Matrix int <1> i0 = [3 :: 2];
	Matrix int <1> i1 = [3 :: 3];
	Matrix int <2> i2 = init(Matrix int <2>, 2, 1);
	i2[1, 0] = 11;
	Matrix int <3> i3 = init(Matrix int <3>, 1, 3, 1);
	i3[0, :, 0] = [4 :: 6];
	Matrix int <1> i8 = [0 :: 7];
	Matrix int <1> i9 = [0 :: 8];
	Matrix int <4> i16;
	i16 = with ([0, 0, 0, 0] <= [a, b, c, d] < [2, 2, 2, 2]) genarray([2, 2, 2, 2], a * 8 + b * 4 + c * 2 + d);
	Matrix int <5> i5 = init(Matrix int <5>, 1, 2, 1, 2, 2);
	i5[0, 1, 0, :, :] = init(Matrix int <2>, 2, 2) + 6;
	print(dimSize(i0, 0));
	print(i1[0] + i2[1, 0] + i3[0, 2, 0]);
	print(i8[end] * i9[end]);
	Matrix int <1> odd = i9[i9 % 2 == 1];
	print(dimSize(odd, 0));
	print(odd[end]);
	Matrix int <1> sq = i8 .* i8 + 1;
	print(sq[7]);
	Matrix int <2> blk = i16[1, :, :, 1];
	print(blk[1, 0]);
	print(with ([0] <= [k] < [9]) fold(+, 0, i9[k]));
	print(with ([0, 0, 0, 0, 0] <= [a, b, c, d, e] < [1, 2, 1, 2, 2]) fold(+, 0, i5[a, b, c, d, e]));

	Matrix bool <1> b0 = i0 > 0;
	Matrix bool <1> b1 = i1 == 3;
	Matrix bool <2> b2 = i2 > 5;
	Matrix bool <3> b3 = init(Matrix bool <3>, 1, 3, 1);
	b3[0, 1, 0] = true;
	Matrix bool <1> b8 = i8 % 3 == 0;
	Matrix bool <1> b9 = i9 >= 4;
	Matrix bool <2> b16 = f16 > 7.5;
	Matrix bool <5> b5 = init(Matrix bool <5>, 2, 1, 2, 1, 2);
	b5[1, 0, 1, 0, 1] = true;
	b5[0, 0, 1, 0, 0] = b9[5];
	print(dimSize(b0, 0));
	print(b1[0]);
	print(b2[1, 0] && !b2[0, 0]);
	print(b3[0, 1, 0]);
	print(b8[6]);
	print(b9[3]);
	print(b16[2, 0]);
	print(b5[1, 0, 1, 0, 1]);
	Matrix int <1> picked = i8[b8];
	print(dimSize(picked, 0) + picked[end]);
	return 0;
}`},
	{name: "small_cells_aliasing", pin: &pinned{"5\n8\n1\n", 12},
		errIs: "small_cells_aliasing.xc:2:1: runtime error [trap:rc]: rc: IncRef on freed allocation (use after free)", live: 1, src: `
Matrix int <1> pass(Matrix int <1> v) { Matrix int <1> w = v; return w; }
refcounted Matrix int <1> * hold(Matrix int <1> v) {
	refcounted Matrix int <1> * c = rcnew(v + 1);
	Matrix int <1> w = v;
	rcset(c, w);
	Matrix int <1> seen = rcget(c);
	print(seen[end]);
	return c;
}
refcounted Matrix int <1> * start() {
	Matrix int <1> a = [1 :: 4];
	Matrix int <1> b = a;
	b = pass(b);
	print(b[end] + a[0]);
	return hold(pass(a * 2));
}
int main() {
	refcounted Matrix int <1> * c = start();
	print(1);
	Matrix int <1> z = rcget(c);
	print(z[0]);
	return 0;
}`},
	{name: "small_cells_views", pin: &pinned{"1.5\n5\n10\n9.5\n3.5\n20\n119\n87\n91\n4\n14\n14.75\n", 891}, src: `
Matrix float <1> twice(Matrix float <1> v) { return v * 2.0 + 1.0; }
int main() {
	Matrix float <1> m = [0 :: 7] * 0.5;
	Matrix float <1> mid = m[1 :: 2];
	print(mid[0] + mid[1]);
	m[3 :: 5] = init(Matrix float <1>, 3) + 9.5;
	m[0 :: 1] = mid * 10.0;
	print(m[0]); print(m[1]); print(m[4]); print(m[7]);
	Matrix int <2> q = init(Matrix int <2>, 2, 3);
	q[1, :] = [4 :: 6];
	q[:, 0] = init(Matrix int <1>, 2) + 7;
	print(q[0, 0] + q[1, 0] + q[1, 2]);
	Matrix float <3> cube;
	cube = with ([0, 0, 0] <= [i, j, k] < [4, 5, 3]) genarray([4, 5, 3], (float)(i * 15 + j * 3 + k));
	Matrix float <3> r = matrixMap(twice, cube, [2]);
	print(r[3, 4, 2]);
	r = matrixMap(twice, cube, [1]);
	print(r[2, 4, 1]);
	r = matrixMap(twice, cube, [0]);
	print(r[3, 0, 0]);
	Matrix float <1> a = [1 :: 6] * 1.0;
	Matrix float <1> b = [2 :: 7] * 0.5;
	Matrix int <1> c = [0 :: 5];
	Matrix float <1> s = (a + b) * 2.0 - c;
	print(s[0]); print(s[end]);
	Matrix float <1> t = m[1 :: 6] .* a - b + 0.25;
	print(t[5]);
	return 0;
}`},
	{name: "err_small_cells_oom", pin: &pinned{"3\n4\n", 8}, opts: interp.Options{MaxCells: 11},
		errIs: "err_small_cells_oom.xc:7:21: runtime error [trap:oom]: matrix: allocation of 4 cells exceeds the budget (8 of 11 cells already used)", live: 0, src: `
int main() {
	Matrix int <1> a = [0 :: 3];
	print(a[end]);
	Matrix int <1> b = a + 1;
	print(b[end]);
	Matrix int <1> c = b * 2;
	print(c[end]);
	return 0;
}`},
	// Folds nested in a genarray whose body is one load read along its
	// last dimension (foldrows_test.go; out and cells pinned at 6b7a682,
	// where every inner index was one pass over the strip), and the Fig 1
	// cube read into a program: the copy admitted, over the pool and
	// inside a matrixMap body, where there is none.
	{name: "nested_fold_rows_float", pin: &pinned{"0\n7\n1.25\n1.25\n0\n1\n1\n0\n0\n0\n1.6100000000000003\n1.6100000000000003\n1.13\n1.7300000000000004\n0.8050000000000002\n-0.125\n-1.125\n-1.125\n0\n0\n7.53\n0.018999000000000064\n-0.18999999999999984\n5.610000000000001\n1.8825\n-0.125\n0.158203125\n-1.125\n0.375\n0.375\n10.540000000000001\n0.03128157000000003\n-0.18999999999999984\n5.610000000000001\n2.108\n1\n0.177978515625\n-1.125\n1.125\n1.5\n9.250000000000002\n-0.00535511790000001\n-1.9900000000000002\n5.610000000000001\n1.541666666666667\n0.125\n-0.155731201171875\n-1.125\n1.125\n0.625\n105.24000000000007\n-8.863861550858145e-37\n-2.59\n5.810000000000001\n1.619076923076924\n8.25\n2.0449401673539243e-17\n-1.125\n1.375\n8.75\n104.65000000000005\n1.8820074504456894e-37\n-2.59\n5.810000000000001\n1.5856060606060614\n8.375\n2.5561752091924053e-18\n-1.125\n1.375\n8.875\n0\n16\n7\n7\n0\n3\n3\n0\n0\n0\n5.880000000000001\n5.880000000000001\n5.4\n7.48\n2.9400000000000004\n2.125\n-0.875\n-1.125\n0.25\n0\n13.040000000000001\n-0.20612799999999998\n-2.1199999999999997\n11.720000000000002\n3.2600000000000002\n1.625\n-0.087890625\n-3.375\n2.125\n-1.875\n22.12\n-0.17116564000000006\n-2.1199999999999997\n12.280000000000003\n4.424\n2\n0.270263671875\n-3.375\n2.875\n-1.5\n22.300000000000004\n-0.00969116220000002\n-3.92\n12.680000000000003\n3.7166666666666672\n1.875\n-0.121124267578125\n-3.375\n2.875\n-1.625\n237.4200000000001\n6.349716665148707e-37\n-5.92\n13.280000000000005\n3.652615384615386\n25.25\n1.5244099429365616e-17\n-3.375\n4.125\n21.75\n239.2000000000001\n4.301731315304433e-37\n-5.92\n13.280000000000005\n3.6242424242424263\n28.125\n-4.601115376546329e-18\n-3.375\n4.125\n24.625\n0\n27\n7.25\n7.25\n0\n6\n6\n0\n0\n0\n3.610000000000001\n3.610000000000001\n3.130000000000001\n7.73\n1.8050000000000006\n9.25\n3.25\n-1.125\n4.375\n0\n18.830000000000002\n-0.483811\n-5.289999999999999\n19.01\n4.7075000000000005\n7.25\n-0.41015625\n-5.25\n6.25\n-1.5\n27.840000000000003\n-0.1451149300000001\n-5.289999999999999\n19.570000000000004\n5.568000000000001\n10.25\n-0.01171875\n-5.25\n7\n1.5\n29.550000000000004\n0.00951853109999998\n-7.989999999999999\n19.970000000000002\n4.925000000000001\n6.75\n0.19610595703125\n-6.75\n7\n-2\n399.24000000000024\n8.364416409073583e-37\n-9.989999999999998\n22.410000000000004\n6.14215384615385\n51.5\n-7.06433875994992e-17\n-6.75\n8.25\n42.75\n403.6500000000002\n7.2591715945762285e-37\n-9.989999999999998\n22.410000000000004\n6.115909090909094\n54\n6.134820502061773e-18\n-6.75\n8.25\n45.25\n0\n55\n17.25\n17.25\n0\n15\n15\n0\n0\n0\n11.550000000000004\n11.550000000000004\n5.0500000000000025\n23.75\n5.775000000000002\n23.375\n8.375\n-1.625\n10\n0\n36.55000000000001\n-0.566775\n-10.25\n36.650000000000006\n9.137500000000003\n24.375\n-0.224609375\n-10.125\n17.375\n3.375\n52.6\n-0.2965444500000002\n-11.75\n38.010000000000005\n10.520000000000003\n28\n0.641357421875\n-12.125\n18.125\n7\n57.150000000000006\n0.03905638549999997\n-17.450000000000003\n40.21\n9.525000000000002\n31.875\n0.758392333984375\n-13.625\n19.375\n10.875\n812.2000000000003\n4.164276541785706e-36\n-20.349999999999998\n45.65000000000001\n12.495384615384621\n133.75\n-1.5925746151816928e-16\n-16.875\n20.625\n112.75\n822.2500000000005\n1.4787201396358984e-36\n-20.349999999999998\n45.65000000000001\n12.458333333333337\n138.875\n2.5732163772536893e-17\n-16.875\n20.625\n117.875\n0\n9991\n2465.25\n2465.25\n0\n4753\n4753\n0\n0\n0\n2279.53\n2279.53\n139.8900000000002\n4604.8899999999985\n1139.765\n5420.375\n667.375\n-1310.375\n1977.75\n0\n6873.79\n-176.97260300000008\n-2216.3900000000003\n6872.59\n1718.4475\n6633.625\n-334.056640625\n-3587.375\n4847.125\n619.375\n9224.920000000004\n-47.66346529000001\n-2568.1099999999997\n7232.190000000002\n1844.984\n7105.25\n298.882568359375\n-4262.375\n5441.875\n1091\n11449.550000000001\n2.4423228302999926\n-2931.47\n7550.3099999999995\n1908.2583333333343\n7797.625\n49.882354736328125\n-4473.875\n5666.875\n1783.375\n147042.62000000008\n7.167629866180603e-34\n-3696.67\n8292.530000000002\n2262.1941538461556\n42825.25\n-1.193566165140412e-14\n-5347.125\n6535.375\n36811\n149365.45\n2.686162348200407e-34\n-3696.67\n8292.530000000002\n2263.11287878788\n43394.875\n5.475224018283694e-16\n-5347.125\n6535.375\n37380.625\n", 58860}, src: nestedFoldRowsSrc(true)},
	{name: "nested_fold_rows_int", pin: &pinned{"0\n7\n-1\n-1\n0\n1\n1\n0\n0\n0\n14\n14\n-4\n17\n4\n-4\n-5\n-5\n0\n0\n-63\n-252\n-56\n17\n-12\n-5\n10\n-5\n1\n1\n-143\n1008\n-86\n17\n-25\n-1\n40\n-5\n4\n5\n-192\n-34272\n-86\n17\n-32\n-5\n-160\n-5\n4\n1\n-3873\n4323455642275676160\n-98\n17\n-56\n-2\n0\n-5\n5\n4\n-3932\n288230376151711744\n-98\n17\n-56\n-2\n0\n-5\n5\n4\n0\n16\n6\n6\n0\n3\n3\n0\n0\n0\n54\n54\n1\n59\n25\n-2\n-5\n-5\n0\n0\n-78\n-552\n-106\n59\n-20\n-7\n10\n-15\n7\n-9\n-231\n3180\n-171\n59\n-40\n-7\n40\n-15\n10\n-9\n-398\n-62040\n-206\n59\n-63\n-9\n-160\n-15\n10\n-11\n-8884\n-6052837899185946624\n-224\n59\n-128\n-4\n0\n-15\n15\n-6\n-9011\n3170534137668829184\n-224\n59\n-128\n6\n0\n-15\n15\n4\n0\n27\n1\n1\n0\n6\n6\n0\n0\n0\n44\n44\n-12\n57\n20\n16\n10\n-5\n15\n0\n-97\n-344\n-146\n97\n-26\n2\n10\n-24\n22\n-9\n-337\n924\n-258\n97\n-60\n11\n40\n-24\n25\n0\n-613\n-44712\n-333\n97\n-91\n-6\n-160\n-30\n25\n-17\n-14870\n-8791026472627208192\n-378\n97\n-216\n-4\n0\n-30\n30\n-15\n-15139\n7493989779944505344\n-378\n97\n-216\n3\n0\n-30\n30\n-8\n0\n55\n7\n7\n0\n15\n15\n0\n0\n0\n98\n98\n-21\n126\n43\n41\n26\n-9\n35\n0\n-36\n-526\n-227\n200\n-6\n30\n50\n-48\n62\n6\n-378\n510\n-379\n200\n-63\n37\n320\n-56\n65\n13\n-852\n-38880\n-555\n200\n-132\n45\n640\n-62\n70\n21\n-30017\n2774217370460225536\n-770\n200\n-440\n10\n0\n-75\n75\n-14\n-30513\n-2449958197289549824\n-770\n200\n-440\n23\n0\n-75\n75\n-1\n0\n9991\n-65\n-65\n0\n4753\n4753\n0\n0\n0\n10309\n10309\n-9406\n19650\n4684\n5046\n293\n-6313\n6606\n0\n30255\n-40736\n-22326\n41937\n5444\n5146\n-586\n-16726\n17012\n101\n40156\n196570\n-25730\n45553\n6398\n4656\n93298\n-19426\n19391\n-389\n49052\n204432\n-29516\n49110\n5305\n5049\n12552\n-20272\n20291\n4\n-1841042\n-6413125869375586304\n-138713\n59631\n-23902\n4946\n0\n-23765\n23765\n-99\n-1931166\n-8863084066665136128\n-139196\n59631\n-24968\n4848\n0\n-23765\n23765\n-197\n", 58860}, src: nestedFoldRowsSrc(false)},
	{name: "nested_fold_rows_special", pin: &pinned{"NaN\n0\n0\n1.5\nNaN\n-Inf\n+Inf\n1.5\n+Inf\n-Inf\n-Inf\n0\n-2.5\n-Inf\nNaN\n-Inf\n0\n+Inf\n+Inf\n1.5\n+Inf\n+Inf\n-Inf\n0\n-2.5\n-Inf\nNaN\n-Inf\n+Inf\n+Inf\nNaN\n1.5\n+Inf\n+Inf\nNaN\nNaN\nNaN\nNaN\nNaN\n+Inf\n-Inf\n-Inf\nNaN\n-Inf\n-Inf\n-Inf\n0\n-Inf\n-Inf\n-Inf\n0\n+Inf\n+Inf\n+Inf\n1.5\n1.5\n+Inf\n+Inf\n0\n+Inf\n-Inf\n-Inf\nNaN\n-Inf\n-Inf\n-Inf\n0\n-Inf\n-Inf\n-Inf\n+Inf\n+Inf\nNaN\n+Inf\n1.5\n1.5\n+Inf\n+Inf\n+Inf\n+Inf\nNaN\nNaN\nNaN\nNaN\nNaN\nNaN\nNaN\n+Inf\nNaN\nNaN\nNaN\n-Inf\n-Inf\n-Inf\n+Inf\n+Inf\n+Inf\n+Inf\nNaN\n-Inf\n-Inf\n-Inf\n+Inf\n+Inf\n+Inf\n+Inf\nNaN\nNaN\nNaN\nNaN\n0\n-Inf\n-Inf\n-Inf\nNaN\nNaN\n-Inf\n-Inf\n0\n-Inf\n+Inf\n+Inf\n+Inf\n+Inf\n+Inf\n+Inf\n+Inf\n+Inf\n+Inf\n+Inf\n0\n-Inf\n-Inf\n-Inf\nNaN\nNaN\n-Inf\n-Inf\n0\n-Inf\n+Inf\n+Inf\nNaN\n+Inf\n+Inf\n+Inf\n+Inf\n+Inf\n+Inf\n+Inf\nNaN\nNaN\nNaN\nNaN\nNaN\nNaN\nNaN\nNaN\nNaN\nNaN\n", 1181}, src: nestedFoldRowsSpecialSrc},
	{name: "nested_fold_rows_near_miss", pin: &pinned{"0\n-9\n0\n0\n-1.125\n-1.125\n3.2200000000000006\n-0.74\n-1.125\n0.375\n15.06\n-0.74\n0\n1.125\n21.080000000000002\n-0.74\n-0.875\n1.125\n18.500000000000004\n-3.9800000000000004\n7.25\n1.375\n210.48000000000013\n-5.18\n7.375\n1.375\n209.3000000000001\n-5.18\n0\n-27\n0\n0\n-0.875\n-0.875\n11.760000000000002\n-1.0199999999999998\n-1.375\n2.125\n26.080000000000002\n-4.6\n-1\n2.875\n44.24\n-4.6\n-1.125\n2.875\n44.60000000000001\n-7.84\n22.25\n4.125\n474.8400000000002\n-11.84\n25.125\n4.125\n478.4000000000002\n-11.84\n0\n-54\n0\n0\n3.25\n3.25\n7.220000000000002\n-6.9399999999999995\n1.25\n6.25\n37.660000000000004\n-10.94\n4.25\n7\n55.68000000000001\n-10.94\n0.75\n7\n59.10000000000001\n-15.979999999999999\n45.5\n8.25\n798.4800000000005\n-19.979999999999997\n48\n8.25\n807.3000000000004\n-19.979999999999997\n0\n-135\n0\n0\n8.375\n8.375\n23.10000000000001\n-8.2\n9.375\n17.375\n73.10000000000002\n-21.159999999999997\n13\n18.125\n105.2\n-23.86\n16.875\n19.375\n114.30000000000001\n-34.900000000000006\n118.75\n20.625\n1624.4000000000005\n-40.699999999999996\n123.875\n20.625\n1644.500000000001\n-40.699999999999996\n0\n-42777\n0\n0\n667.375\n667.375\n4559.06\n-1366.9799999999998\n1880.625\n4847.125\n13747.58\n-3961.740000000002\n2352.25\n5441.875\n18449.840000000007\n-4805.280000000001\n3044.625\n5666.875\n22899.100000000002\n-5719.74\n38072.25\n6535.375\n294085.24000000017\n-7393.34\n38641.875\n6535.375\n298730.9\n-7393.34\n", 50544}, src: nestedFoldNearMissSrc()},
	{name: "err_readmatrix_oom", pin: &pinned{"1\n", 8}, errIs: "err_readmatrix_oom.xc:6:25: runtime error [trap:oom]: matrix: allocation of 36864 cells exceeds the budget (8 of 1000 cells already used)", live: 0,
		opts: interp.Options{MaxCells: 1000, Files: map[string]*matrix.Matrix{"cube.data": sshCube(24, 24, 64, 3)}}, src: `
int main() {
	Matrix float <1> m = [0 :: 3] * 1.0;
	refcounted Matrix float <1> * c = rcnew(m);
	print(1);
	Matrix float <3> big = readMatrix("cube.data");
	print(2);
	return 0;
}`},
	{name: "readmatrix_in_map", pin: &pinned{"9.67\n833361.4279687494\n0.84\n19.84\n0.84\n", 184944},
		opts: interp.Options{Files: map[string]*matrix.Matrix{"cube.data": sshCube(24, 24, 64, 3)}}, src: `
Matrix float <1> addCube(Matrix float <1> v) {
	Matrix float <3> c = readMatrix("cube.data");
	c[1, 2, 3] = c[1, 2, 3] + v[0];
	return v + c[1, 2, 3];
}
int main() {
	Matrix float <3> big = readMatrix("cube.data");
	print(big[23, 23, 63]);
	Matrix float <2> means;
	means = with ([0, 0] <= [i, j] < [24, 24]) genarray([24, 24], with ([0] <= [k] < [64]) fold(+, 0.0, big[i, j, k]) / 64);
	float s = 0.0;
	for (int i = 0; i < 24; i++) {
		for (int j = 0; j < 24; j++) { s = s + means[i, j] * (i * 24 + j + 1); }
	}
	print(s);
	Matrix float <2> m;
	m = with ([0, 0] <= [i, j] < [3, 4]) genarray([3, 4], 1.0 * (i * 4 + j));
	Matrix float <2> r = matrixMap(addCube, m, [1]);
	print(r[0, 0]);
	print(r[2, 3]);
	big[1, 2, 3] = 99.0;
	Matrix float <3> again = readMatrix("cube.data");
	print(again[1, 2, 3]);
	return 0;
}`},
	// A fold with a float base and an int body is a float under min and
	// max as under + and * (foldtype_test.go; out and cells pinned at
	// e1e8b9c from the VM, where the tree walker let a min/max winner
	// keep its int type and divided it as an int).
	{name: "fold_minmax_int_body", pin: &pinned{"0.5\n1.5\n9.007199254740992e+15\n9.007199254740996e+15\n2.251799813685248e+15\n2.251799813685248e+15\n9007199254740993\n9007199254740993\n1.5\nNaN\n1.25\n3\n3.25\n18\n0.25\n249.75\n249750.125\n0.5\n1\n1.5\n0.25\n1.5\n3\n", 6}, src: foldMinMaxIntBodySrc},
	{name: "fold_minmax_int_body_closure", pin: &pinned{"0.5\n1.5\n9.007199254740992e+15\n9.007199254740996e+15\n2.251799813685248e+15\n2.251799813685248e+15\n9007199254740993\n9007199254740993\n1.5\nNaN\n1.25\n3\n3.25\n18\n0.25\n249.75\n249750.125\n0.5\n1\n1.5\n0.25\n1.5\n3\n", 7}, src: foldMinMaxIntBodyClosureSrc},
	// With-loops over globals (globalleaf_test.go), pinned at 6995290,
	// where the VM ran every one of them on the closure path.
	{name: "with_global_matrix_leaf", threads: []int{1, 2, 3, 7}, pin: &pinned{"-0.5\n-3\n-3312\n-10212\n11.5\n-23.5\n3628800\n-11.5\n0\n-3312\n32.5\n1008\n107\n238.5\n83.75\n", 1962}, src: globalMatrixLeafSrc},
	{name: "with_global_scalar_leaves", threads: []int{1, 2, 3, 7}, pin: &pinned{"0.75\n9.75\n1989\n6\n-72\n45\n24.5\n9499\n1332.5\n23\n2\n", 148}, src: globalScalarLeavesSrc},
	{name: "err_with_global_unassigned", threads: []int{1, 2, 3, 7}, pin: &pinned{"4\n1.5\n2\n", 20},
		errIs: "err_with_global_unassigned.xc:11:56: runtime error: cannot index a non-matrix or unassigned matrix", src: globalLeafUnassignedSrc},
	{name: "err_with_ginit_later_global", threads: []int{1, 2, 3, 7}, pin: &pinned{"", 16},
		errIs: `err_with_ginit_later_global.xc:8:67: runtime error: undeclared variable "late"`, live: 3, src: ginitLaterGlobalSrc},
	{name: "err_genarray_shape_arity", threads: []int{1, 2, 3, 7}, pin: &pinned{"1\n", 0},
		errIs:     "err_genarray_shape_arity.xc:5:6: runtime error: matrix: genarray shape rank 1 does not match generator rank 2",
		unchecked: "err_genarray_shape_arity.xc:5:39: error: genarray shape has 1 dimension(s) but the generator defines 2 index(es)", src: shapeArityMismatchSrc},
	{name: "fig9_transform_mean", threads: []int{1, 2, 3, 7}, pin: &pinned{"4.97\n", 1170},
		opts: interp.Options{Files: map[string]*matrix.Matrix{"ssh.data": sshCube(9, 10, 12, 5)}}, src: fig9TransformMeanSrc},
	// A function a global initializer calls reads or writes a global not
	// bound yet (the tree walker's error pinned at 5f935f6, where the VM
	// read 0, ran on, or failed with another text).
	{name: "err_global_read_before_bound", threads: []int{1, 2, 3, 7}, pin: &pinned{"5\n", 0},
		errIs: `err_global_read_before_bound.xc:4:31: runtime error: undeclared variable "late"`, src: `
int early = peek();
int late = 7;
int peek() { print(5); return late + 1; }
int main() {
	print(early);
	return 0;
}`},
	{name: "err_global_write_before_bound", threads: []int{1, 2, 3, 7}, pin: &pinned{"2\n", 0},
		errIs: `err_global_write_before_bound.xc:4:29: runtime error: undeclared variable "late"`, src: `
int early = poke(2);
int late = 7;
int poke(int v) { print(v); late = v * 3; return v; }
int main() {
	print(early + late);
	return 0;
}`},
	{name: "err_global_read_while_initialized", threads: []int{1, 2, 3, 7}, pin: &pinned{"1\n", 0},
		errIs: `err_global_read_while_initialized.xc:3:32: runtime error: undeclared variable "self"`, src: `
int self = again();
int again() { print(1); return self + 1; }
int main() {
	print(self);
	return 0;
}`},
	{name: "err_global_chain_before_bound", threads: []int{1, 2, 3, 7}, pin: &pinned{"", 0},
		errIs: `err_global_chain_before_bound.xc:4:36: runtime error: undeclared variable "late"`, src: `
Matrix float <1> early = triple();
Matrix float <1> late = init(Matrix float <1>, 4);
Matrix float <1> triple() { return late + late + late; }
int main() {
	print(early[0]);
	return 0;
}`},
	// vet declines a plan leaf such a function names (global not bound
	// yet): the chain admits two stages, the with-loop its output, before
	// the read fails, and an empty with-loop reads nothing.
	{name: "err_global_spawn_before_bound", threads: []int{1, 2, 3, 7}, pin: &pinned{"1\n", 0},
		errIs: `err_global_spawn_before_bound.xc:5:25: runtime error: spawn target "late" is not declared`, src: `
int early = start();
int late = 7;
int three() { return 3; }
int start() { print(1); spawn late = three(); sync; return 1; }
int main() {
	print(early);
	return 0;
}`},
	{name: "err_global_chain_admits_before_bound", threads: []int{1, 2, 3, 7}, pin: &pinned{"", 8},
		errIs: `err_global_chain_admits_before_bound.xc:6:17: runtime error: undeclared variable "late"`, src: `
Matrix float <1> early = mk();
Matrix float <1> late = init(Matrix float <1>, 4);
Matrix float <1> mk() {
	Matrix float <1> a = init(Matrix float <1>, 4);
	return a + a + late;
}
int main() {
	print(early[0]);
	return 0;
}`},
	{name: "err_global_with_before_bound", threads: []int{1, 2, 3, 7}, pin: &pinned{"", 4},
		errIs: `err_global_with_before_bound.xc:4:75: runtime error: undeclared variable "late"`, src: `
Matrix float <1> early = mk(4);
Matrix float <1> late = init(Matrix float <1>, 4);
Matrix float <1> mk(int n) { return with ([0] <= [i] < [n]) genarray([n], late[i] * 2.0); }
int main() {
	print(early[0]);
	return 0;
}`},
	// An rc cell of a matrix, and of a tuple holding one, read and set
	// through named locals.
	{name: "rc_cell_matrix", src: `
Matrix float <1> scaled(refcounted Matrix float <1> * c, float k) { return rcget(c) * k; }
int main() {
	Matrix float <1> m = [0 :: 3] * 1.5;
	refcounted Matrix float <1> * c = rcnew(m);
	Matrix float <1> s = scaled(c, 2.0);
	print(s[3]);
	Matrix float <1> n = m + 1.0;
	rcset(c, n);
	Matrix float <1> z = rcget(c);
	print(z[0]);
	print(rcget(c));
	refcounted (int, Matrix float <1>) * p = rcnew((7, n));
	int q; Matrix float <1> w;
	(q, w) = rcget(p);
	print(q + w[3]);
	return 0;
}`},
	// An rc cell holds its own reference to the matrix it stores: a
	// statement temporary stored by rcnew or rcset, or a function's
	// result, outlives the statement that made it.
	{name: "rc_cell_temporaries", src: `
Matrix float <1> ramp(int n) { return [0 :: n] * 0.5; }
refcounted Matrix float <1> * wrap(int n) { return rcnew(ramp(n)); }
int main() {
	refcounted Matrix float <1> * c = rcnew([0 :: 3] * 1.5);
	print(rcget(c));
	Matrix float <1> m = rcget(c);
	rcset(c, m + 1.0);
	print(rcget(c));
	rcset(c, ramp(4));
	m = rcget(c);
	print(m[4]);
	refcounted Matrix float <1> * d = wrap(2);
	print(rcget(d));
	refcounted (int, Matrix float <1>) * p = rcnew((1, ramp(1)));
	int q; Matrix float <1> w;
	(q, w) = rcget(p);
	print(q + w[1]);
	return 0;
}`},
	// A tuple stored into a tuple of other element types converts
	// element by element: a declaration, an assignment and a spawn target.
	{name: "tuple_promote_decl_spawn", src: `
(int, int) pair(int n) { return (n, n + 1); }
int main() {
	(float, int) t = pair(3);
	float f; int k;
	(f, k) = t;
	print(f / 2.0);
	t = pair(4);
	(f, k) = t;
	print(f / 2.0);
	(float, int) s;
	spawn s = pair(5);
	sync;
	(f, k) = s;
	print(f / 2.0); print(k);
	return 0;
}`},
	{name: "global_with_empty_before_bound", threads: []int{1, 2, 3, 7}, pin: &pinned{"0\n0\n", 8}, src: `
Matrix float <1> early = mk(0);
Matrix float <1> late = init(Matrix float <1>, 4);
Matrix float <1> mk(int n) { return with ([0] <= [i] < [n]) genarray([n], late[i] * 2.0); }
int main() {
	print(dimSize(early, 0));
	print(mk(4)[3]);
	return 0;
}`},
}

func TestVMDifferentialCorpus(t *testing.T) {
	for _, tc := range vmCorpus {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			prog := parseCorpusEntry(t, tc.name, tc.src, tc.unchecked)
			threadCounts := tc.threads
			if threadCounts == nil {
				threadCounts = []int{1, 4}
			}
			for _, threads := range threadCounts {
				opts := tc.opts
				opts.Threads = threads
				tree := runOne(t, prog, "tree", opts)
				if !strings.Contains(tree.err, tc.errHas) {
					t.Errorf("%s/t=%d: the tree walker's error is %q, want one with %q", tc.name, threads, tree.err, tc.errHas)
				}
				if tc.pin != nil && (tree.out != tc.pin.out || tree.cells != tc.pin.cells) {
					t.Errorf("%s/t=%d: the tree walker printed %q and charged %d cells, pinned %q and %d", tc.name, threads, tree.out, tree.cells, tc.pin.out, tc.pin.cells)
				}
				if tc.errIs != "" && (tree.err != tc.errIs || tree.live != tc.live) {
					t.Errorf("%s/t=%d: the tree walker failed with %q and left %d rc cells live, pinned %q and %d", tc.name, threads, tree.err, tree.live, tc.errIs, tc.live)
				}
				vmr := runOne(t, prog, "vm", opts)
				compare(t, fmt.Sprintf("%s/t=%d", tc.name, threads), tree, vmr)
				// Disabling the proofs changes no observable: the VM with
				// no facts runs every chain stage by stage and every
				// with-loop through its closure.
				bare := runOne(t, prog, "vm-nofacts", opts)
				compare(t, fmt.Sprintf("%s/t=%d/no facts", tc.name, threads), tree, bare)
			}
		})
	}
}

// TestVMDifferentialTestdata drives every on-disk program through the
// driver under both engines, with deterministic in-memory inputs.
func TestVMDifferentialTestdata(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.xc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	exts, err := driver.ParseExtensions("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			d := driver.New()
			run := func(engine string) (string, *driver.RunResult, error) {
				var out bytes.Buffer
				res, rerr := d.Run(context.Background(), driver.RunRequest{
					Name: path, Source: string(src), Exts: exts, Threads: 2,
					MaxSteps: 50_000_000, MaxCells: 1 << 24,
					Files:  map[string]*matrix.Matrix{"ssh.data": sshCube(4, 5, 6, 7)},
					Stdout: &out, Engine: engine,
				})
				return out.String(), res, rerr
			}
			outT, resT, errT := run("tree")
			outV, resV, errV := run("vm")
			if resV.Engine != "vm" {
				t.Errorf("engine fell back to %q (bytecode compiler declined)", resV.Engine)
			}
			if outT != outV {
				t.Errorf("stdout diverged\n--- tree ---\n%s--- vm ---\n%s", outT, outV)
			}
			es := func(e error) string {
				if e == nil {
					return ""
				}
				return e.Error()
			}
			if es(errT) != es(errV) {
				t.Errorf("error diverged\ntree: %v\nvm:   %v", errT, errV)
			}
			if resT.ExitCode != resV.ExitCode {
				t.Errorf("exit code tree=%d vm=%d", resT.ExitCode, resV.ExitCode)
			}
		})
	}
}

// TestVMStepParity sweeps the step budget over one program that holds
// every statement and loop shape the VM compiler lowers specially: for
// every budget from one step up to the first that lets the program
// finish, the tree walker, the VM and the VM without facts must agree on
// the whole error string — trap code, text and source span — i.e. they
// tick the budget at identical program points, each tick attributed to
// its own statement.
func TestVMStepParity(t *testing.T) {
	for name, src := range map[string]string{"steps.xc": stepShapesSrc, "tuplesteps.xc": stepTupleSrc, "withcall.xc": stepWithCallSrc} {
		prog := parseAndCheck(t, name, src)
		finished := 0
		for steps := int64(1); finished < 3; steps++ {
			if steps > 2000 {
				t.Fatalf("%s did not finish within 2000 steps", name)
			}
			opts := interp.Options{MaxSteps: steps}
			tree := runOne(t, prog, "tree", opts)
			compare(t, fmt.Sprintf("%s/maxsteps=%d", name, steps), tree, runOne(t, prog, "vm", opts))
			compare(t, fmt.Sprintf("%s/maxsteps=%d/no facts", name, steps), tree, runOne(t, prog, "vm-nofacts", opts))
			if tree.err == "" {
				finished++
			} else if !strings.Contains(tree.err, "[trap:step]") {
				t.Fatalf("%s/maxsteps=%d: the tree walker failed with %q, not a step trap", name, steps, tree.err)
			}
		}
	}
}

// stepWithCallSrc: with-loops whose bodies call pure functions, which
// the VM's plans emit in place: under a step budget every arm runs the
// closure, so each callee statement ticks where the tree walker's does.
const stepWithCallSrc = `
float weight(int i, int j) {
	if ((i + j) % 3 == 0) { return 2.0; }
	return 1.0 * ((i * j) % 5);
}
int sq(int x) { return x * x; }
int main() {
	Matrix float <2> w;
	w = with ([0, 0] <= [i, j] < [1, 12]) genarray([1, 12], weight(i, j));
	int s = with ([0] <= [j] < [6]) fold(+, 0, sq(j) + (int)w[0, j]);
	print(s);
	return 0;
}`

// stepTupleSrc: tuple returns on every pairing of a literal or a held
// tuple with a destructuring or a whole-value receiver, a matrix element,
// a literal returned from inside a loop and a block, and a recursive one
// — a step trap inside a callee leaves the frames of a half-done tuple
// return behind on every arm alike (the live count is compared).
const stepTupleSrc = `
(Matrix int <1>, int, float) cut(Matrix int <1> v, int i) {
	int from = i;
	while (i < 5) {
		if (v[i] > 3) { return (v[from :: i], i + 1, 0.5); }
		i = i + 1;
	}
	{ return (v[from :: i], i, 1); }
}
(int, int) held(int k) {
	(int, int) t = (k, k + 1);
	if (k > 1) { int a; int b; (a, b) = held(k - 1); return (a + k, b); }
	return t;
}
int main() {
	Matrix int <1> v = [0 :: 5];
	Matrix int <1> piece; int i = 0; float w;
	while (i < 5) {
		(piece, i, w) = cut(v, i);
	}
	int a; int b;
	(a, b) = held(3);
	(int, int) t = held(2);
	(a, b) = t;
	print(a + b + dimSize(piece, 0));
	return 0;
}`

// stepShapesSrc: a block entry with its first statement, a for post
// with a fused back edge, a rotated while with &&, break and continue
// landing on a fused back edge and on a while's bottom test, a nested
// loop, a call in a loop body, an empty for body, a zero-trip loop, an
// if with an empty then-block before the next statement, nested blocks.
const stepShapesSrc = `
int twice(int n) { return n * 2; }
int main() {
	int s = 0;
	for (int i = 0; i < 3; i++) {
		s = s + twice(i);
		if (s > 100) { s = 0; }
	}
	int j = 0;
	while (j < 6 && s >= 0) {
		j = j + 1;
		if (j == 2) { continue; }
		if (j == 5) { break; }
		for (int k = 0; k < 2; k++) { s = s + k; }
	}
	for (int k = 0; k < 4; k++) {
		if (k == 1) { continue; }
		if (k == 3) { break; }
	}
	for (int k = 0; k < 3; k++) { }
	for (int k = 3; k < 3; k++) { s = s + 1000; }
	if (s > 0) { }
	{ { s = s + 1; } }
	int w = 0;
	while (w < 3) { w = w + 1; }
	while (w > 0 || s < 0) { { w = w - 1; } }
	Matrix int <1> v = [0 :: 3];
	for (int k = 0; k < 4; k++) { s = s + v[k]; v[k] = s; }
	print(s);
	return 0;
}`

// FuzzVMDiff cross-checks the engines on arbitrary source text: any
// program the front end accepts must behave identically under both.
// Programs whose tree-walker behavior is itself nondeterministic
// (e.g. print interleavings across spawns) are skipped by running the
// oracle twice.
func FuzzVMDiff(f *testing.F) {
	for _, tc := range vmCorpus {
		f.Add(tc.src)
	}
	f.Add(stepShapesSrc)
	f.Add(fusedShapesSeed)
	f.Add("int main() { float m = with ([0] <= [i] < [3]) fold(max, 0.5, i * 2) / 4; print(m); return 0; }")
	f.Fuzz(func(t *testing.T, src string) {
		var d source.Diagnostics
		p := parser.ParseFile("fuzz.xc", src, parser.AllExtensions(), &d)
		if p == nil {
			return
		}
		info := sem.Check(p, &d)
		if d.HasErrors() {
			return
		}
		vmp, cerr := vm.Compile(p, info)
		if cerr != nil {
			// No checked program reaches a bail (vm/compile.go): the
			// driver reports one as an internal error.
			t.Fatalf("the bytecode compiler bailed on a checked program: %v\n%s", cerr, src)
		}
		// The third arm: no chain fused, no with-loop compiled flat. What
		// the compiler accepts does not depend on the facts.
		bare, cerr := vm.CompileWithFacts(p, info, nil)
		if cerr != nil {
			t.Fatalf("compiles with facts, not without: %v\n%s", cerr, src)
		}
		opts := interp.Options{Threads: 1, MaxSteps: 200_000, MaxCells: 1 << 16}
		run := func(vmp *vm.Program, steps int64) engineResult {
			var out bytes.Buffer
			heap := rc.NewHeap()
			o := opts
			o.MaxSteps = steps
			o.Stdout = &out
			o.Heap = heap
			i := interp.New(p, info, o)
			defer i.Close()
			var code int
			var err error
			if vmp != nil {
				code, err = vm.NewMachine(vmp, i).Run()
			} else {
				code, err = i.Run()
			}
			res := engineResult{out: out.String(), code: code, cells: i.Budget().Used()}
			if err != nil {
				res.err = err.Error()
			}
			return res
		}
		t1 := run(nil, opts.MaxSteps)
		if t1 != run(nil, opts.MaxSteps) {
			return // nondeterministic program; no usable oracle
		}
		for arm, vmp := range map[string]*vm.Program{"vm": vmp, "vm without facts": bare} {
			if v := run(vmp, opts.MaxSteps); t1 != v {
				t.Errorf("%s diverged on:\n%s\ntree: %+v\nvm:   %+v", arm, src, t1, v)
			}
		}
		// A program the budget did not stop runs again with none: the one
		// run in which the VM may take a plan with calls emitted in place.
		if !strings.Contains(t1.err, "[trap:step]") {
			if v := run(vmp, 0); t1 != v {
				t.Errorf("vm without a step budget diverged on:\n%s\ntree: %+v\nvm:   %+v", src, t1, v)
			}
		}
	})
}

// A panic in a construct that runs on one worker is the construct's own
// trap, on both engines and whichever engine of the with-loop runs it:
// Threads = 1 gets the isolation Threads > 1 always had. Before every
// construct ran on par's driver the panic unwound to Interp.Run's
// recover, which could only blame the whole program (1:1). The injected
// panic fires in worker 0, which is every construct's only worker here.
func TestSerialConstructPanicIsTheConstructsTrap(t *testing.T) {
	par.TestHookInjectPanic = func(worker int) { panic(fmt.Sprintf("injected into worker %d", worker)) }
	defer func() { par.TestHookInjectPanic = nil }()
	for _, tc := range []struct{ name, src, span string }{
		{"genarray", "int main() {\n\tint n = 8;\n\tMatrix float <1> m;\n\tm = with ([0] <= [i] < [n]) genarray([n], (float)i);\n\treturn 0;\n}", "4:6"},
		{"fold", "int main() {\n\tint n = 8;\n\tint s = 1 +\n\t\twith ([0] <= [i] < [n]) fold(+, 0, i);\n\treturn s;\n}", "4:3"},
		{"matrixMap", "Matrix float <1> same(Matrix float <1> v) { return v; }\nint main() {\n\tMatrix float <2> m = init(Matrix float <2>, 3, 4);\n\tMatrix float <2> r =\n\t\tmatrixMap(same, m, [1]);\n\treturn 0;\n}", "5:3"},
	} {
		prog := parseAndCheck(t, tc.name+".xc", tc.src)
		var errs []string
		for _, engine := range []string{"tree", "vm", "vm-nofacts"} {
			var out bytes.Buffer
			i := interp.New(prog.prog, prog.info, interp.Options{Threads: 1, Stdout: &out})
			var err error
			if engine == "tree" {
				_, err = i.Run()
			} else {
				facts := vet.ComputeFacts(prog.prog, prog.info)
				if engine == "vm-nofacts" {
					facts = nil
				}
				p, cerr := vm.CompileWithFacts(prog.prog, prog.info, facts)
				if cerr != nil {
					t.Fatal(cerr)
				}
				_, err = vm.NewMachine(p, i).Run()
			}
			var rte *interp.RuntimeError
			var pe *par.PanicError
			if !errors.As(err, &rte) || rte.Trap != interp.TrapPanic || !errors.As(err, &pe) || pe.Worker != 0 {
				t.Fatalf("%s on %s: err = %v, want the panic trap of worker 0", tc.name, engine, err)
			}
			if got := rte.Node.Span().Start; fmt.Sprintf("%d:%d", got.Line, got.Col) != tc.span {
				t.Errorf("%s on %s: trapped at %s, want the construct at %s", tc.name, engine, rte.SpanString(), tc.span)
			}
			if !strings.Contains(string(rte.Stack), "TestSerialConstructPanicIsTheConstructsTrap") {
				t.Errorf("%s on %s: the trap's stack is not the panic site's:\n%s", tc.name, engine, rte.Stack)
			}
			errs = append(errs, err.Error())
		}
		if errs[0] != errs[1] || errs[0] != errs[2] {
			t.Errorf("%s: the engines disagree on the trap:\n%s", tc.name, strings.Join(errs, "\n"))
		}
	}
}

// A with-loop that is a transpose forks exactly when its closure would:
// over the output's rows, so a panic injected into worker 1 is the same
// trap on every engine, or none on all of them. m is made by init, which
// forks nothing, so the transpose is the only construct that can.
func TestTransposeForksOnTheOutputRows(t *testing.T) {
	par.TestHookInjectPanic = func(worker int) {
		if worker == 1 {
			panic(fmt.Sprintf("injected into worker %d", worker))
		}
	}
	defer func() { par.TestHookInjectPanic = nil }()
	for _, shape := range [][2]int{{1, 40}, {40, 1}, {2, 300}, {300, 2}, {64, 64}} {
		r, c := shape[0], shape[1]
		name := fmt.Sprintf("transpose_%dx%d", r, c)
		prog := parseAndCheck(t, name+".xc", fmt.Sprintf(`int main() {
	Matrix float <2> m = init(Matrix float <2>, %d, %d);
	Matrix float <2> t;
	t = with ([0, 0] <= [i, j] < [%d, %d]) genarray([%d, %d], m[j, i]);
	print(dimSize(t, 0) * dimSize(t, 1));
	return 0;
}`, r, c, c, r, c, r))
		// The output has c rows: two or more fork, one does not.
		want := fmt.Sprintf("%d\n", r*c)
		if c >= 2 {
			want = name + ".xc:4:6: runtime error [trap:panic]"
		}
		var got []string
		for _, engine := range []string{"tree", "vm", "vm-nofacts"} {
			res := runOne(t, prog, engine, interp.Options{Threads: 2})
			got = append(got, res.out+res.err)
			if !strings.HasPrefix(res.out+res.err, want) {
				t.Errorf("%s on %s: %q, want %q", name, engine, res.out+res.err, want)
			}
		}
		if got[0] != got[1] || got[0] != got[2] {
			t.Errorf("%s: the engines disagree:\n%s", name, strings.Join(got, "\n"))
		}
	}
}

// matrixMap stores each mapped result into the output while the callee's
// frame still holds it, so neither engine copies it first, and the
// sub-matrix it hands the callee is admitted like any other matrix the
// program can name: the run allocates nothing its budget does not see.
// The callee's results are fresh temporaries, recycled when its frame is
// released and handed out again as the next application's; the cells
// already stored stay right.
func TestMatrixMapResultIsNotCopiedOutsideTheBudget(t *testing.T) {
	const rows, cols = 6, 512
	prog := parseAndCheck(t, "mapstore.xc", fmt.Sprintf(`
Matrix float <1> twice(Matrix float <1> v) { return v * 2.0; }
int main() {
	int n = %d;
	int w = %d;
	Matrix float <2> m;
	m = with ([0, 0] <= [i, j] < [n, w]) genarray([n, w], 1.0 * (i * w + j));
	Matrix float <2> r = matrixMap(twice, m, [1]);
	Matrix float <2> g = matrixMapG(twice, m, [1]);
	print(with ([0, 0] <= [i, j] < [n, w]) fold(+, 0.0, r[i, j] - 2.0 * m[i, j]));
	print(with ([0, 0] <= [i, j] < [n, w]) fold(+, 0.0, g[i, j] - 2.0 * m[i, j]));
	print(r[n - 1, w - 1] + g[0, 1]);
	return 0;
}`, rows, cols))
	for _, engine := range []string{"tree", "vm"} {
		var allocated atomic.Int64
		matrix.TestHookAllocFail = func(cells int) error { allocated.Add(int64(cells)); return nil }
		res := runOne(t, prog, engine, interp.Options{Threads: 1})
		matrix.TestHookAllocFail = nil
		if want := fmt.Sprintf("0\n0\n%d\n", 2*(rows*cols-1)+2); res.err != "" || res.out != want {
			t.Fatalf("%s: out %q err %q, want %q", engine, res.out, res.err, want)
		}
		// m, r, g, and two maps' sub-matrices and results.
		if want := int64(7 * rows * cols); res.cells != want || allocated.Load() != want {
			t.Errorf("%s: %d cells charged, %d allocated, want %d for both: an allocation the budget does not see", engine, res.cells, allocated.Load(), want)
		}
	}
}

// readMatrix from disk goes through the budget like every other matrix a
// program can name, on all three arms: a file is charged the cells it
// holds, a header claiming more than the run may use is the budget's
// refusal at the call (no storage made, no EOF from reading into it), and
// a shape that overflows is the shape trap at the call — not a panic
// unwinding to the whole program's 1:1.
func TestReadMatrixFromDiskIsAdmitted(t *testing.T) {
	dir := t.TempDir()
	if err := matio.WriteFile(filepath.Join(dir, "ok.data"), sshCube(4, 5, 6, 7)); err != nil {
		t.Fatal(err)
	}
	for name, shape := range map[string][]int64{"huge.data": {1 << 27}, "overflow.data": {1 << 31, 1 << 31, 1 << 31}} {
		var buf bytes.Buffer
		buf.WriteString("CMXM")
		binary.Write(&buf, binary.LittleEndian, append([]int64{int64(matrix.Float), int64(len(shape))}, shape...))
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		file, wantErr string
		cells         int64
	}{
		{"ok.data", "", 120},
		{"huge.data", "disk.xc:3:23: runtime error [trap:oom]: matrix: allocation of 134217728 cells exceeds the budget (0 of 1000 cells already used)", 0},
		{"overflow.data", "disk.xc:3:23: runtime error [trap:shape]: matrix: shape [2147483648 2147483648 2147483648] overflows the address space", 0},
	} {
		rank := 1
		if tc.file != "huge.data" {
			rank = 3
		}
		prog := parseAndCheck(t, "disk.xc", fmt.Sprintf("int main() {\n\tint pad = 0;\n\tMatrix float <%d> m = readMatrix(%q);\n\treturn pad;\n}", rank, tc.file))
		opts := interp.Options{Threads: 1, Dir: dir, MaxCells: 1000}
		tree := runOne(t, prog, "tree", opts)
		if tree.err != tc.wantErr || tree.cells != tc.cells {
			t.Errorf("%s: err %q with %d cells charged, want %q and %d", tc.file, tree.err, tree.cells, tc.wantErr, tc.cells)
		}
		compare(t, tc.file+"/vm", tree, runOne(t, prog, "vm", opts))
		compare(t, tc.file+"/vm no facts", tree, runOne(t, prog, "vm-nofacts", opts))
	}
}
