// Programs of the dual-engine corpus (vmdiff_test.go) whose fold has a
// float base and an int body: the fold's value is a float, its static
// type, under min and max as under + and *. Each divides the result by
// an int, which is float division only if the value kept that type.
// Covered: int bodies beyond 2^53 (where int and float order can
// differ), a NaN base, an empty range, a fold nested in a genarray, and
// ranges long enough for pooled partials at four threads.
package repro_test

import "strings"

// foldMinMaxIntBodyLines are main's body, over a body value BODY(i)
// (i for the flat entry, plus a call's value for the closure entry).
const foldMinMaxIntBodyLines = `
	print(with ([0] <= [i] < [4]) fold(min, 5.0, BODY(i + 1)) / 2);
	float h = with ([0] <= [i] < [4]) fold(max, 0.5, BODY(i)) / 2;
	print(h);
	print(with ([0] <= [i] < [4]) fold(min, 100000000000000000.0, BODY(big + i)));
	print(with ([0] <= [i] < [4]) fold(max, 0.0, BODY(big + i)));
	print(with ([0] <= [i] < [4]) fold(min, 100000000000000000.0, BODY(big + i)) / 4);
	print(with ([0] <= [i] < [4]) fold(max, 0.0 - 1.0, BODY(big - i)) / 4);
	print(with ([0] <= [i] < [4]) fold(min, big, BODY(big + i)));
	print(with ([0] <= [i] < [4]) fold(max, big, BODY(big - i)));
	float z = 0.0;
	print(with ([0] <= [i] < [4]) fold(min, z / z, BODY(i + 3)) / 2);
	print(with ([0] <= [i] < [4]) fold(max, z / z, BODY(i + 3)) / 2);
	print(with ([2] <= [i] < [2]) fold(min, 2.5, BODY(i)) / 2);
	print(with ([2] <= [i] < [2]) fold(max, 7, BODY(i)) / 2);
	print(with ([0] <= [i] < [4]) fold(+, 0.5, BODY(i)) / 2);
	print(with ([0] <= [i] < [4]) fold(*, 1.5, BODY(i + 1)) / 2);
	print(with ([0] <= [i] < [1000]) fold(min, 999.5, BODY(1000 - i)) / 4);
	print(with ([0] <= [i] < [1000]) fold(max, 0.5, BODY(i * 7 % 1000)) / 4);
	print(with ([0] <= [i] < [1000]) fold(+, 0.25, BODY(i)) / 2);
	Matrix float <1> r = with ([0] <= [j] < [3]) genarray([3], with ([0] <= [i] < [4]) fold(min, 5.0, BODY(i + j + 1)) / 2);
	print(r[0]);
	print(r[1]);
	print(r[2]);
	r = with ([0] <= [j] < [3]) genarray([3], with ([0] <= [i] < [4]) fold(max, 0.5, BODY(i * j)) / 2);
	print(r[0]);
	print(r[1]);
	print(r[2]);
	return 0;
}
`

// foldMinMaxIntBodySrc folds locals only, so vet proves every fold flat.
var foldMinMaxIntBodySrc = `
int main() {
	int big = 9007199254740993;` + strings.NewReplacer("BODY", "").Replace(foldMinMaxIntBodyLines)

// foldMinMaxIntBodyClosureSrc adds to every body value the cell of a
// global matrix a call reads — a callee with a matrix parameter is no
// plan's — which keeps each fold on the closure path.
var foldMinMaxIntBodyClosureSrc = `
Matrix int <1> gid;
int first(Matrix int <1> v) { return v[0]; }
int main() {
	int big = 9007199254740993;
	gid = [0 :: 0];` + strings.NewReplacer("BODY(", "(first(gid) + ").Replace(foldMinMaxIntBodyLines)
