// §III-A.3: every indexing form.
int main() {
	Matrix int <1> v = [0 :: 9];
	print(v[end]);                       // 9
	print(v[end - 4]);                   // 5
	Matrix int <1> mid = v[2 : 5];
	print(dimSize(mid, 0));              // 4
	Matrix int <1> odds = v[v % 2 == 1];
	print(dimSize(odds, 0));             // 5
	Matrix int <2> m = init(Matrix int <2>, 3, 4);
	m[1, :] = [10 :: 13];
	print(m[1, 2]);                      // 12
	m[:, 0] = v[0 : 2];
	print(m[2, 0]);                      // 2
	return 0;
}
