// Transpose as a with-loop: the m[j, i] genarray body pattern-matches
// the cache-blocked transpose kernel on the VM's flat engine. A double
// transpose must round-trip exactly; a rectangular transpose checks
// the shape swap.
int main() {
	int rows = 12;
	int cols = 7;
	Matrix int <2> m;
	m = with ([0, 0] <= [i, j] < [rows, cols]) genarray([rows, cols], i * 100 + j);
	Matrix int <2> t;
	t = with ([0, 0] <= [i, j] < [cols, rows]) genarray([cols, rows], m[j, i]);
	Matrix int <2> back;
	back = with ([0, 0] <= [i, j] < [rows, cols]) genarray([rows, cols], t[j, i]);
	print(t[3, 11]);
	print(back[11, 3]);
	int diff = with ([0, 0] <= [i, j] < [rows, cols]) fold(+, 0, back[i, j] - m[i, j]);
	print(diff);
	print(dimSize(t, 0));
	print(dimSize(t, 1));
	return 0;
}
