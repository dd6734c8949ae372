// 768x768 transpose written as a with-loop: the m[j, i] body
// pattern-matches the cache-blocked transpose kernel on the flat
// engine. A double transpose must round-trip exactly.
int main() {
	int n = 768;
	Matrix int <2> m;
	m = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], i * 1000 + j);
	Matrix int <2> t;
	t = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], m[j, i]);
	Matrix int <2> back;
	back = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], t[j, i]);
	print(t[3, 700]);
	print(back[700, 3]);
	int diff = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0, back[i, j] - m[i, j]);
	print(diff);
	return 0;
}
