// Programs of the dual-engine corpus (vmdiff_test.go) that hold every
// two-node arithmetic tree the strip engine may run as one instruction:
// (x op1 y) op2 z and z op2 (x op1 y) over + - * /, int and float, each
// operand a strip, a uniform, a stride-1 load or a load at another
// stride, with values that show a dropped rounding (FMA), NaN, ±0 and
// ±Inf, and sizes on both sides of every strip width.
package repro_test

import (
	"fmt"
	"strings"
)

// fusedSizes straddle the strip widths (128 to 1024 cells): w-1, w,
// w+1 and 2w+3, and one size a genarray cuts over a pool; a chain is
// cut only from two ParallelGrains on, which fusedChainsSrc adds.
var fusedSizes = []int{0, 1, 2, 6, 127, 128, 129, 255, 256, 257, 259, 511, 512, 513, 515, 1023, 1024, 1025, 1027, 2051, 4099}

// fusedOperand is one operand kind of a generated shape, as the body
// text that reads family f ("a", "b" or "c") at cell i.
var fusedOperand = []func(f, scalar string) string{
	func(f, _ string) string { return f + "[i]" },          // stride-1 load
	func(_, s string) string { return s },                  // uniform
	func(f, _ string) string { return "q" + f + "[i, 1]" }, // load at stride 2
	func(f, _ string) string { return "(-" + f + "[i])" },  // strip
}

// fusedShapeExprs lists one genarray body per (op1, op2, nesting), the
// operand kinds rotating over the positions, then the selection table's
// trees an operand kind at a time, and one matrix used three times.
func fusedShapeExprs() []string {
	ops := []string{"+", "-", "*", "/"}
	var out []string
	e := 0
	for _, op1 := range ops {
		for _, op2 := range ops {
			for _, right := range []bool{false, true} {
				kx, ky, kz := e%4, (e/4+1)%4, (e/2+2)%4
				if kx == 1 && ky == 1 {
					ky = 0
				}
				x := fusedOperand[kx]("a", "s")
				y := fusedOperand[ky]("b", "t")
				z := fusedOperand[kz]("c", "u")
				if right {
					out = append(out, fmt.Sprintf("%s %s (%s %s %s)", z, op2, x, op1, y))
				} else {
					out = append(out, fmt.Sprintf("(%s %s %s) %s %s", x, op1, y, op2, z))
				}
				e++
			}
		}
	}
	// The selection table's trees (matrix.wShapes) with every operand
	// not read as a uniform of one kind, each kind in turn.
	for _, t := range []struct{ op1, op2, uni string }{
		{"*", "+", ""}, {"*", "-", "y"}, {"+", "+", ""}, {"*", "-", "x"}, {"*", "+", "x"},
	} {
		for _, k := range []int{0, 2, 3} {
			x, y := fusedOperand[k]("a", "s"), fusedOperand[k]("b", "t")
			z := fusedOperand[k]("c", "u")
			switch t.uni {
			case "":
				out = append(out, fmt.Sprintf("(%s %s %s) %s %s", x, t.op1, y, t.op2, z))
				continue
			case "x":
				x = "s"
			case "y":
				y = "t"
			}
			out = append(out, fmt.Sprintf("%s %s (%s %s %s)", z, t.op2, x, t.op1, y))
		}
	}
	return append(out, "a[i] * a[i] + a[i]", "a[i] - a[i] * a[i]")
}

// fusedShapesSrc prints, per shape, a digest over each size's cells
// away from the special ones, then the last cell (x*y+z's rounding
// case) at three sizes, and the special cells at one.
func fusedShapesSrc(float bool) string {
	var b strings.Builder
	typ, zero := "int", "0"
	if float {
		typ, zero = "float", "0.0"
	}
	b.WriteString("int main() {\n")
	fmt.Fprintf(&b, "\tMatrix int <1> sz = init(Matrix int <1>, %d);\n", len(fusedSizes))
	for k, n := range fusedSizes {
		fmt.Fprintf(&b, "\tsz[%d] = %d;\n", k, n)
	}
	exprs := fusedShapeExprs()
	fmt.Fprintf(&b, "\tMatrix int <1> dig = init(Matrix int <1>, %d);\n", len(exprs))
	if float {
		b.WriteString(`	float zero = 0.0;
	float nan = zero / zero;
	float inf = 1.0 / zero;
	float px = 1.0 + 1.0 / 134217728.0;
	float py = 1.0 - 1.0 / 134217728.0;
	for (int pass = 0; pass < 2; pass++) {
		float s = 5.25;
		float t = -0.75;
		float u = 3.0;
		if (pass == 1) {
			s = px;
			t = py;
			u = -1.0;
		}
`)
	} else {
		b.WriteString(`	for (int pass = 0; pass < 1; pass++) {
		int s = 13;
		int t = 3;
		int u = 5;
`)
	}
	fmt.Fprintf(&b, "\t\tfor (int k = 0; k < %d; k++) {\n", len(fusedSizes))
	b.WriteString("\t\t\tint n = sz[k];\n")
	if float {
		b.WriteString(`			Matrix float <1> a = with ([0] <= [i] < [n]) genarray([n], (float)((i * 7 + 3) % 23) * 0.25 + 5.0);
			Matrix float <1> b = with ([0] <= [i] < [n]) genarray([n], (float)((i * 5 + 1) % 9 + 1) * 0.5);
			Matrix float <1> c = with ([0] <= [i] < [n]) genarray([n], (float)((i * 3 + 2) % 7 + 1) * -0.25);
			if (n >= 6) {
				a[0] = nan; a[1] = zero; a[2] = -zero; a[3] = inf; a[4] = -inf;
				b[0] = 2.0; b[1] = -zero; b[2] = inf; b[3] = nan; b[4] = -inf;
				c[0] = -zero; c[1] = nan; c[2] = zero; c[3] = -inf; c[4] = inf;
			}
			if (n >= 1) {
				a[n - 1] = px; b[n - 1] = py; c[n - 1] = -1.0;
			}
`)
	} else {
		b.WriteString(`			Matrix int <1> a = with ([0] <= [i] < [n]) genarray([n], (i * 7 + 3) % 23 + 10);
			Matrix int <1> b = with ([0] <= [i] < [n]) genarray([n], (i * 5 + 1) % 9 + 1);
			Matrix int <1> c = with ([0] <= [i] < [n]) genarray([n], (i * 3 + 2) % 7 + 1);
			if (n >= 1) {
				a[n - 1] = 4611686018427387905; b[n - 1] = 3; c[n - 1] = 5;
			}
`)
	}
	for _, f := range []string{"a", "b", "c"} {
		fmt.Fprintf(&b, "\t\t\tMatrix %s <2> q%s = with ([0, 0] <= [i, j] < [n, 2]) genarray([n, 2], %s[i]);\n", typ, f, f)
	}
	for e, x := range exprs {
		fmt.Fprintf(&b, "\t\t\tMatrix %s <1> r%d = with ([0] <= [i] < [n]) genarray([n], %s);\n", typ, e, x)
		if float {
			fmt.Fprintf(&b, "\t\t\tdig[%d] = dig[%d] + with ([5] <= [i] < [n - 1]) fold(+, 0, (int)(r%d[i] * 1048576.0));\n", e, e, e)
			fmt.Fprintf(&b, "\t\t\tif (n == 1 || n == 257 || n == 1027) { print(r%d[n - 1]); }\n", e)
			fmt.Fprintf(&b, "\t\t\tif (n == 1027 && pass == 0) { print(r%d[0]); print(r%d[1]); print(r%d[2]); print(r%d[3]); print(r%d[4]); }\n", e, e, e, e, e)
		} else {
			fmt.Fprintf(&b, "\t\t\tdig[%d] = dig[%d] + with ([0] <= [i] < [n]) fold(+, %s, r%d[i]);\n", e, e, zero, e)
			fmt.Fprintf(&b, "\t\t\tif (n == 1 || n == 257 || n == 1027) { print(r%d[n - 1]); }\n", e)
		}
	}
	b.WriteString("\t\t}\n\t}\n")
	fmt.Fprintf(&b, "\tfor (int e = 0; e < %d; e++) { print(dig[e]); }\n", len(exprs))
	b.WriteString("\treturn 0;\n}\n")
	return b.String()
}

// fusedChainsSrc runs whole-matrix chains of the same shapes, fused by
// vet into one strip program each, over the same sizes.
func fusedChainsSrc() string {
	var b strings.Builder
	floatChains := []string{
		"a .* b + a - b * 0.5", "a .* a + a", "a + b + c", "c - a * s", "c + s * b",
		"c - s * b", "(a - b) / c", "c / (a + b)", "a / b .* c", "c .* (a / b)", "a .* b - c", "c - a .* b",
		"a .* b + c", "c + a .* b", "c - s * a .* b",
	}
	intChains := []string{"ia .* ib + ic", "ic - ia * 3", "ia + ia .* ia", "ic - (ia - ib)", "ia * 7 - ib * 5"}
	sizes := append(fusedSizes[:len(fusedSizes):len(fusedSizes)], 16387)
	b.WriteString("int main() {\n\tfloat s = 1.0 + 1.0 / 134217728.0;\n")
	fmt.Fprintf(&b, "\tMatrix int <1> sz = init(Matrix int <1>, %d);\n", len(sizes))
	for k, n := range sizes {
		fmt.Fprintf(&b, "\tsz[%d] = %d;\n", k, n)
	}
	fmt.Fprintf(&b, "\tMatrix int <1> dig = init(Matrix int <1>, %d);\n", len(floatChains)+len(intChains))
	fmt.Fprintf(&b, "\tfor (int k = 0; k < %d; k++) {\n", len(sizes))
	b.WriteString(`		int n = sz[k];
		Matrix float <1> a = with ([0] <= [i] < [n]) genarray([n], (float)((i * 7 + 3) % 23) * 0.25 + 5.0);
		Matrix float <1> b = with ([0] <= [i] < [n]) genarray([n], (float)((i * 5 + 1) % 9 + 1) * 0.5);
		Matrix float <1> c = with ([0] <= [i] < [n]) genarray([n], (float)((i * 3 + 2) % 7 + 1) * -0.25);
		Matrix int <1> ia = with ([0] <= [i] < [n]) genarray([n], (i * 7 + 3) % 23 + 10);
		Matrix int <1> ib = with ([0] <= [i] < [n]) genarray([n], (i * 5 + 1) % 9 + 1);
		Matrix int <1> ic = with ([0] <= [i] < [n]) genarray([n], (i * 3 + 2) % 7 + 1);
		if (n >= 1) {
			a[n - 1] = s; b[n - 1] = 1.0 - 1.0 / 134217728.0; c[n - 1] = -1.0;
			ia[n - 1] = 4611686018427387905;
		}
`)
	for e, x := range floatChains {
		fmt.Fprintf(&b, "\t\tMatrix float <1> r%d = %s;\n", e, x)
		fmt.Fprintf(&b, "\t\tdig[%d] = dig[%d] + with ([0] <= [i] < [n - 1]) fold(+, 0, (int)(r%d[i] * 1048576.0));\n", e, e, e)
		fmt.Fprintf(&b, "\t\tif (n == 1 || n == 257 || n == 16387) { print(r%d[n - 1]); }\n", e)
	}
	for k, x := range intChains {
		e := len(floatChains) + k
		fmt.Fprintf(&b, "\t\tMatrix int <1> r%d = %s;\n", e, x)
		fmt.Fprintf(&b, "\t\tdig[%d] = dig[%d] + with ([0] <= [i] < [n]) fold(+, 0, r%d[i]);\n", e, e, e)
	}
	b.WriteString("\t}\n")
	fmt.Fprintf(&b, "\tfor (int e = 0; e < %d; e++) { print(dig[e]); }\n", len(floatChains)+len(intChains))
	b.WriteString("\treturn 0;\n}\n")
	return b.String()
}

// fusedShapesSeed is a small program holding each tree of the strip
// engine's selection table and a fold of a load at a stride: a seed for
// FuzzVMDiff.
const fusedShapesSeed = `
int main() {
	int n = 5;
	float s = 0.5;
	Matrix float <1> a = [0 :: 9] * 0.5;
	Matrix float <1> b = [1 :: 10] * 1.5;
	Matrix float <1> c = [2 :: 11] * -0.25;
	Matrix float <1> r = a .* b + a - b * 0.5;
	Matrix float <1> q = a + b + c - s * b;
	print(r[3]);
	print(q[9]);
	Matrix float <2> u = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], (float)(i * n + j));
	Matrix float <2> v = with ([1, 1] <= [i, j] < [n - 1, n - 1]) genarray([n, n],
		u[i, j] + s * (u[i - 1, j] + u[i + 1, j] + u[i, j - 1] + u[i, j + 1] - 4.0 * u[i, j]));
	print(v[2, 2]);
	Matrix float <2> m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], with ([0] <= [k] < [n]) fold(+, 0.0, u[k, j] * 1.0 + u[j, k]));
	Matrix float <1> t = with ([0] <= [j] < [n]) genarray([n], with ([0] <= [k] < [n]) fold(max, -1.0, u[j, k]));
	print(m[1, 3]);
	print(t[4]);
	return 0;
}`
