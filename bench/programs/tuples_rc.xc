// Tuples (§III-B) and reference-counting pointers.
(int, int, bool) divmod(int a, int b) {
	return (a / b, a % b, a % b == 0);
}
int main() {
	int q; int r; bool exact;
	(q, r, exact) = divmod(47, 5);
	print(q);                            // 9
	print(r);                            // 2
	print(exact);                        // false
	refcounted int * cell = rcnew(q * 10);
	rcset(cell, rcget(cell) + r);
	print(rcget(cell));                  // 92
	return 0;
}
