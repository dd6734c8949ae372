// A 16x16 linear-algebra product on integer-valued floats: one
// MatMulExec call below the parallel grain.
int main() {
	int n = 16;
	Matrix float <2> a;
	a = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 1.0 * ((i + 2 * j) % 7));
	Matrix float <2> b;
	b = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 1.0 * ((3 * i + j) % 5));
	Matrix float <2> c = a * b;
	print(c[0, 0]);
	print(c[5, 11]);
	print(c[15, 15]);
	float total = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, c[i, j]);
	print(total);
	return 0;
}
