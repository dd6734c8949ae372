// Many small flat genarrays: 16x16 each, so the per-loop admission
// sequence (validate, size check, budget charge, allocation) dominates
// the cell work.
int main() {
	int n = 16;
	float s = 0.0;
	for (int r = 0; r < 1500; r++) {
		Matrix float <2> g;
		g = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 1.0 * (i + j + r));
		s = s + g[3, 4];
	}
	print(s);
	return 0;
}
