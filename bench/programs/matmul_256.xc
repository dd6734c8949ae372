// 256x256 float linear-algebra product (MatMulExec, blocked i-k-j,
// distributed over the pool). Entries are small integers, so every
// printed value is exact whatever the summation order.
int main() {
	int n = 256;
	Matrix float <2> a;
	a = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 1.0 * ((i + 2 * j) % 7));
	Matrix float <2> b;
	b = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 1.0 * ((3 * i + j) % 5));
	Matrix float <2> c = a * b;
	print(c[0, 0]);
	print(c[17, 211]);
	print(c[255, 255]);
	float total = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, c[i, j]);
	print(total);
	return 0;
}
