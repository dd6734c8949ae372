// A fold nested inside a genarray over a rank-3 cube (the temporal
// mean's shape) built in the program, run serially.
int main() {
	int m = 40;
	int n = 40;
	int p = 32;
	Matrix float <3> cube;
	cube = with ([0, 0, 0] <= [i, j, k] < [m, n, p]) genarray([m, n, p], 1.0 * ((i + 2 * j + 3 * k) % 11));
	Matrix float <2> sums;
	sums = with ([0, 0] <= [i, j] < [m, n])
		genarray([m, n],
			with ([0] <= [k] < [p])
				fold(+, 0.0, cube[i, j, k]));
	float total = with ([0, 0] <= [i, j] < [m, n]) fold(+, 0.0, sums[i, j]);
	print(total);
	print(sums[7, 9]);
	return 0;
}
