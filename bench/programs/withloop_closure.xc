// A genarray whose body calls a user function, so vet cannot prove it
// flat and the VM runs the boxed per-element closure path.
float weight(int i, int j) {
	if ((i + j) % 3 == 0) { return 2.0; }
	return 1.0 * ((i * j) % 5);
}
int main() {
	int n = 96;
	Matrix float <2> w;
	w = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], weight(i, j));
	float total = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, w[i, j]);
	print(total);
	print(w[5, 7]);
	print(w[95, 95]);
	return 0;
}
