// Paper Fig 1: temporal mean of sea surface heights. The input cube
// arrives through the run request's in-memory file map.
int main() {
	Matrix float <3> mat = readMatrix("ssh.data");
	int m = dimSize(mat, 0);
	int n = dimSize(mat, 1);
	int p = dimSize(mat, 2);
	Matrix float <2> means;
	means = with ([0, 0] <= [i, j] < [m, n])
		genarray([m, n],
			with ([0] <= [k] < [p])
				fold(+, 0.0, mat[i, j, k]) / p);
	writeMatrix("means.data", means);
	print(dimSize(means, 0));
	print(dimSize(means, 1));
	return 0;
}
