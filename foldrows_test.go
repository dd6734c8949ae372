// Programs of the dual-engine corpus (vmdiff_test.go) that hold a fold
// nested in a genarray whose body is one load: m[i, j, k] and m[j, k],
// the fold's id indexing the load's last dimension, under + * min max,
// int and float, at trip counts 0, 1, 3, 4, 5, 64 and 65 and strip
// lengths 1, 2, 3, 5 and 97 (every remainder mod 4); min and max over
// NaN, ±0 and ±Inf cells; a fold base that is itself a load; and two
// bodies just outside that shape, a column sum and a scaled load.
package repro_test

import (
	"fmt"
	"strings"
)

// foldRowLens are the strip lengths, foldRowTrips the inner trip counts.
var (
	foldRowLens  = []int{1, 2, 3, 5, 97}
	foldRowTrips = []int{0, 1, 3, 4, 5, 64, 65}
)

// foldRowsMain calls fn(l, t) for every pair of lens and trips.
func foldRowsMain(fn string, lens, trips []int) string {
	var b strings.Builder
	b.WriteString("int main() {\n")
	for _, l := range lens {
		for _, t := range trips {
			fmt.Fprintf(&b, "\t%s(%d, %d);\n", fn, l, t)
		}
	}
	b.WriteString("\treturn 0;\n}\n")
	return b.String()
}

// nestedFoldRowsSrc folds rows of a cube and of a matrix, int or float,
// under all four kinds, and prints a weighted checksum of each result.
func nestedFoldRowsSrc(float bool) string {
	ty, zero, one, cube, mat, base := "float", "0.0", "1.0",
		"0.1 * ((i * 7 + j * 3 + k * 5) % 13) - 0.37",
		"0.25 * ((j * 5 + k * 3) % 11) - 1.125",
		"0.5 * ((i + j) % 3) - 0.25"
	if !float {
		ty, zero, one, cube, mat, base = "int", "0", "1",
			"(i * 7 + j * 3 - k * 5) % 11 - 4",
			"(j * 5 + k * 3) % 11 - 5",
			"(i + j) % 3 - 1"
	}
	r := strings.NewReplacer("T", ty, "ZERO", zero, "ONE", one, "CUBE", cube, "MAT", mat, "BASE", base)
	return r.Replace(`
T chk(Matrix T <2> r) {
	T s = ZERO;
	for (int a = 0; a < dimSize(r, 0); a++) {
		for (int b = 0; b < dimSize(r, 1); b++) { s = s + r[a, b] * (a * 5 + b + 1); }
	}
	return s;
}
T chk1(Matrix T <1> r) {
	T s = ZERO;
	for (int b = 0; b < dimSize(r, 0); b++) { s = s + r[b] * (b + 1); }
	return s;
}
void rows(int l, int t) {
	Matrix T <3> c;
	c = with ([0, 0, 0] <= [i, j, k] < [2, l, t]) genarray([2, l, t], CUBE);
	Matrix T <2> b;
	b = with ([0, 0] <= [i, j] < [2, l]) genarray([2, l], BASE);
	Matrix T <2> r;
	r = with ([0, 0] <= [i, j] < [2, l]) genarray([2, l], with ([0] <= [k] < [t]) fold(+, ZERO, c[i, j, k]));
	print(chk(r));
	r = with ([0, 0] <= [i, j] < [2, l]) genarray([2, l], with ([0] <= [k] < [t]) fold(*, ONE, c[i, j, k]));
	print(chk(r));
	r = with ([0, 0] <= [i, j] < [2, l]) genarray([2, l], with ([0] <= [k] < [t]) fold(min, b[i, j], c[i, j, k]));
	print(chk(r));
	r = with ([0, 0] <= [i, j] < [2, l]) genarray([2, l], with ([0] <= [k] < [t]) fold(max, b[i, j], c[i, j, k]));
	print(chk(r));
	r = with ([0, 0] <= [i, j] < [2, l]) genarray([2, l], with ([0] <= [k] < [t]) fold(+, ZERO, c[i, j, k]) / (t + 1));
	print(chk(r));
	Matrix T <2> m;
	m = with ([0, 0] <= [j, k] < [l, t]) genarray([l, t], MAT);
	Matrix T <1> v;
	v = with ([0] <= [j] < [l]) genarray([l], with ([0] <= [k] < [t]) fold(+, ONE, m[j, k]));
	print(chk1(v));
	v = with ([0] <= [j] < [l]) genarray([l], with ([0] <= [k] < [t]) fold(*, ONE, m[j, k]));
	print(chk1(v));
	v = with ([0] <= [j] < [l]) genarray([l], with ([0] <= [k] < [t]) fold(min, ZERO, m[j, k]));
	print(chk1(v));
	v = with ([0] <= [j] < [l]) genarray([l], with ([0] <= [k] < [t]) fold(max, ZERO, m[j, k]));
	print(chk1(v));
	v = with ([0] <= [j] < [l]) genarray([l], with ([2] <= [k] < [t]) fold(+, ZERO, m[j, k]));
	print(chk1(v));
}
`) + foldRowsMain("rows", foldRowLens, foldRowTrips)
}

// nestedFoldRowsSpecialSrc folds rows of NaN, ±0, ±Inf and two finite
// values under min and max, from a constant base and from a loaded one,
// and prints every cell.
const nestedFoldRowsSpecialSrc = `
Matrix float <1> sp;
void show(Matrix float <2> r) {
	for (int a = 0; a < dimSize(r, 0); a++) {
		for (int b = 0; b < dimSize(r, 1); b++) { print(r[a, b]); }
	}
}
void special(int l, int t) {
	Matrix float <3> c;
	c = with ([0, 0, 0] <= [i, j, k] < [2, l, t]) genarray([2, l, t], sp[(i * 5 + j * 3 + k * 2) % 7]);
	Matrix float <2> b;
	b = with ([0, 0] <= [i, j] < [2, l]) genarray([2, l], sp[(i + j * 2 + 3) % 7]);
	Matrix float <2> r;
	r = with ([0, 0] <= [i, j] < [2, l]) genarray([2, l], with ([0] <= [k] < [t]) fold(min, 0.0, c[i, j, k]));
	show(r);
	r = with ([0, 0] <= [i, j] < [2, l]) genarray([2, l], with ([0] <= [k] < [t]) fold(max, 0.0, c[i, j, k]));
	show(r);
	r = with ([0, 0] <= [i, j] < [2, l]) genarray([2, l], with ([0] <= [k] < [t]) fold(min, b[i, j], c[i, j, k]));
	show(r);
	r = with ([0, 0] <= [i, j] < [2, l]) genarray([2, l], with ([0] <= [k] < [t]) fold(max, b[i, j], c[i, j, k]));
	show(r);
	r = with ([0, 0] <= [i, j] < [2, l]) genarray([2, l], with ([1] <= [k] < [t]) fold(+, b[i, j], c[i, j, k]));
	show(r);
}
int main() {
	float z = 0.0;
	sp = init(Matrix float <1>, 7);
	sp[0] = z / z;
	sp[1] = -z;
	sp[2] = z;
	sp[3] = 1.0 / z;
	sp[4] = -1.0 / z;
	sp[5] = 1.5;
	sp[6] = -2.5;
	special(1, 1);
	special(3, 4);
	special(5, 5);
	special(2, 64);
	special(5, 65);
	return 0;
}
`

// nestedFoldNearMissSrc holds two folds whose body is a load that the
// row rule does not take: a column sum, whose id indexes the first
// dimension, and a load scaled before it is folded.
func nestedFoldNearMissSrc() string {
	return `
float chk(Matrix float <2> r) {
	float s = 0.0;
	for (int a = 0; a < dimSize(r, 0); a++) {
		for (int b = 0; b < dimSize(r, 1); b++) { s = s + r[a, b] * (a * 5 + b + 1); }
	}
	return s;
}
void miss(int l, int t) {
	Matrix float <2> m;
	m = with ([0, 0] <= [k, j] < [t, l]) genarray([t, l], 0.25 * ((j * 5 + k * 3) % 11) - 1.125);
	Matrix float <1> v;
	v = with ([0] <= [j] < [l]) genarray([l], with ([0] <= [k] < [t]) fold(+, 0.0, m[k, j]));
	float s = 0.0;
	for (int b = 0; b < l; b++) { s = s + v[b] * (b + 1); }
	print(s);
	v = with ([0] <= [j] < [l]) genarray([l], with ([0] <= [k] < [t]) fold(max, 0.0 - 9.0, m[k, j]));
	s = 0.0;
	for (int b = 0; b < l; b++) { s = s + v[b] * (b + 1); }
	print(s);
	Matrix float <3> c;
	c = with ([0, 0, 0] <= [i, j, k] < [2, l, t]) genarray([2, l, t], 0.1 * ((i * 7 + j * 3 + k * 5) % 13) - 0.37);
	Matrix float <2> r;
	r = with ([0, 0] <= [i, j] < [2, l]) genarray([2, l], with ([0] <= [k] < [t]) fold(+, 0.0, c[i, j, k] * 2.0));
	print(chk(r));
	r = with ([0, 0] <= [i, j] < [2, l]) genarray([2, l], with ([0] <= [k] < [t]) fold(min, 0.0, c[i, j, k] * 2.0));
	print(chk(r));
}
` + foldRowsMain("miss", foldRowLens, foldRowTrips)
}
