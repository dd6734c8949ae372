// Four five-point stencil steps on a 256x256 plate, each a genarray
// with-loop whose pure index body compiles to the flat engine.
// alpha = 0.25 and integer initial values keep every cell a multiple
// of 2^-8, so the printed sums are exact in any order.
int main() {
	int n = 256;
	float alpha = 0.25;
	Matrix float <2> u;
	u = with ([96, 96] <= [i, j] < [160, 160]) genarray([n, n], 64.0);
	int step = 0;
	while (step < 4) {
		Matrix float <2> next;
		next = with ([1, 1] <= [i, j] < [n - 1, n - 1])
			genarray([n, n],
				u[i, j] + alpha * (u[i - 1, j] + u[i + 1, j]
					+ u[i, j - 1] + u[i, j + 1] - 4.0 * u[i, j]));
		u = next;
		step = step + 1;
	}
	float total = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, u[i, j]);
	print(total);
	print(u[128, 128]);
	print(u[96, 96]);
	print(u[94, 100]);
	return 0;
}
