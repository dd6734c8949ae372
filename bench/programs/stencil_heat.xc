// Heat diffusion on a square plate: repeated five-point stencil
// steps written as genarray with-loops over the interior. The body is
// a pure index expression, so both stencil loops compile to the flat
// with-loop engine under the VM.
int main() {
	int n = 16;
	float alpha = 0.1;
	Matrix float <2> u;
	// Hot spot in the middle of a cold plate.
	u = with ([7, 7] <= [i, j] < [9, 9]) genarray([n, n], 100.0);
	int step = 0;
	while (step < 8) {
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
	print(u[8, 8]);
	print(u[0, 0]);
	float hottest = with ([0, 0] <= [i, j] < [n, n]) fold(max, 0.0, u[i, j]);
	print(hottest);
	return 0;
}
