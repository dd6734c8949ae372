// Tuple returns and reference-counted cells in a scalar loop: the rc
// extension's retain/release traffic and multi-value binding.
(int, int, bool) divmod(int a, int b) {
	return (a / b, a % b, a % b == 0);
}
int main() {
	int q; int r; bool exact;
	refcounted int * cell = rcnew(0);
	int hits = 0;
	for (int i = 1; i < 9000; i++) {
		(q, r, exact) = divmod(i * 7, 5);
		rcset(cell, rcget(cell) + q - r);
		if (exact) { hits = hits + 1; }
	}
	print(rcget(cell));
	print(hits);
	return 0;
}
