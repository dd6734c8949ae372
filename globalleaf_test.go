// Programs of the dual-engine corpus (vmdiff_test.go) whose with-loop
// bodies read globals: a global leaf is read once at loop entry — after
// the bounds, the shape and the fold's base, any of which may call a
// function that rebinds it — as a fused chain's global leaves are. A
// leaf that is unassigned when the loop runs, and a leaf in a global
// initializer that names a global not bound yet, fail where the tree
// walker fails. Fig 9's with-loop, whose transform clauses only the C
// back end applies, is here too.
package repro_test

import _ "embed"

// fig9TransformMeanSrc is testdata/transform_mean.xc: Fig 9, the
// temporal mean under explicit transformations.
//
//go:embed testdata/transform_mean.xc
var fig9TransformMeanSrc string

// globalMatrixLeafSrc: genarrays and folds over global matrices — the
// transpose pattern, a whole-matrix fold, a nested fold — and bounds
// and a base whose calls rebind the leaves the body then reads.
const globalMatrixLeafSrc = `
Matrix float <2> g;
Matrix int <1> gv = [0 :: 9];
float gs = 0.5;
int n = 24;
int regrow(int k) {
	g = with ([0, 0] <= [i, j] < [k, k]) genarray([k, k], (float)(i * k + j) * gs);
	gs = gs * 2.0;
	return k;
}
float rescale() {
	gs = gs + 0.25;
	return gs;
}
float total(int k) {
	return with ([0, 0] <= [i, j] < [k, k]) fold(+, 0.0, g[i, j]);
}
int main() {
	g = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], (float)(i - 2 * j) * gs);
	Matrix float <2> t;
	t = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], g[j, i]);
	print(t[3, 5]);
	t = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], g[j, i] + gs);
	print(t[5, 3]);
	print(with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, g[i, j]));
	print(with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, g[i, j] * t[i, j]));
	print(with ([0] <= [i] < [n]) fold(max, 0.0 - 1000.0, g[i, n - 1 - i]));
	print(with ([0] <= [i] < [n]) fold(min, 1000.0, g[i, n - 1 - i] - gs));
	print(with ([0] <= [i] < [10]) fold(*, 1, gv[i] + 1));
	Matrix float <1> rows;
	rows = with ([0] <= [i] < [n]) genarray([n], with ([0] <= [j] < [n]) fold(+, 0.0, g[i, j]) / n);
	print(rows[0]);
	print(rows[n - 1]);
	print(total(n));
	Matrix float <2> u;
	u = with ([0, 0] <= [i, j] < [regrow(8), 8]) genarray([8, 8], g[i, j] + gs);
	print(u[7, 7]);
	print(total(8));
	print(with ([0] <= [i] < [regrow(6)]) fold(+, gs, g[i, i]));
	print(with ([0] <= [i] < [6]) fold(+, rescale(), g[i, i] * gs));
	u = with ([0, 0] <= [i, j] < [6, 6]) genarray([6, 6], g[i, j] * gs + (float)gv[i]);
	print(u[5, 5]);
	return 0;
}`

// globalScalarLeavesSrc: global int and float scalars in bodies, in
// load indices and in a nested fold's bound, read after a bound or a
// base that rebinds them.
const globalScalarLeavesSrc = `
int off = 3;
float scale = 0.25;
int n = 37;
Matrix int <1> vals = [0 :: 36];
int bump() {
	off = off + 10;
	scale = scale * 2.0;
	return 0;
}
float bumpf() {
	scale = scale + 1.0;
	return 0.5;
}
int main() {
	Matrix float <1> v;
	v = with ([0] <= [i] < [n]) genarray([n], (float)(i + off) * scale);
	print(v[0]);
	print(v[n - 1]);
	print(with ([0] <= [i] < [n - off]) fold(+, 0, vals[i + off] * off));
	print(with ([0] <= [i] < [n]) fold(max, 0.0, (float)vals[i] * scale - off));
	print(with ([0] <= [i] < [n]) fold(min, 100, vals[i] - off * i));
	Matrix int <1> w;
	w = with ([0] <= [i] < [n]) genarray([n], with ([0] <= [k] < [off]) fold(+, i, k * off));
	print(w[n - 1]);
	int z = bump();
	v = with ([0] <= [i] < [n]) genarray([n], (float)(i + off) * scale);
	print(v[n - 1]);
	print(with ([bump()] <= [i] < [n - off]) fold(+, 0, vals[i + off] * off));
	print(with ([0] <= [i] < [n]) fold(+, bumpf(), (float)vals[i] * scale));
	print(off);
	print(scale);
	return z;
}`

// globalLeafUnassignedSrc: a global matrix nothing was assigned to is
// read by no cell of an empty box, and fails at its load in a full one,
// after the output's admission.
const globalLeafUnassignedSrc = `
Matrix float <2> g;
int main() {
	int n = 4;
	Matrix float <2> e;
	e = with ([0, 0] <= [i, j] < [0, n]) genarray([0, n], g[i, j]);
	print(dimSize(e, 1));
	print(with ([0] <= [i] < [0]) fold(+, 1.5, g[i, i]));
	Matrix float <2> m = init(Matrix float <2>, 2, 2);
	print(2);
	m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], g[i, j] + 1.0);
	print(m[0, 0]);
	return 0;
}`

// ginitLaterGlobalSrc: with-loops in global initializers. An earlier
// global is a leaf like any other; a later one, or the global being
// initialized, is not bound yet, so reading it fails "undeclared" — and
// over an empty box nothing reads it.
const ginitLaterGlobalSrc = `
int n = 4;
Matrix float <1> early = [0 :: 3] * 0.5;
Matrix float <1> a = with ([0] <= [i] < [n]) genarray([n], early[i] * 2.0);
float s = with ([0] <= [i] < [n]) fold(+, 0.0, a[i] * early[i]);
Matrix float <1> none = with ([0] <= [i] < [0]) genarray([0], late[i]);
float self = with ([0] <= [i] < [0]) fold(+, 1.5, (float)i * self);
Matrix float <1> b = with ([0] <= [i] < [n]) genarray([n], a[i] + late[i]);
Matrix float <1> late = [0 :: 3] * 1.0;
int main() {
	print(s);
	return 0;
}`

// shapeArityMismatchSrc has a genarray whose shape names fewer
// dimensions than its generator has ids: the checker rejects it, and the
// engines, run regardless, fail at the loop's admission.
const shapeArityMismatchSrc = `
int main() {
	Matrix int <1> m;
	print(1);
	m = with ([0, 0] <= [i, j] < [2, 2]) genarray([4], i + j);
	print(m[0]);
	return 0;
}`
