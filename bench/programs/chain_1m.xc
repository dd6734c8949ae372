// A fused three-stage elementwise chain over 2^20 floats, repeated:
// the shape the paper's with-loop fusion (III-A.4) targets. Values are
// multiples of 0.5 below 2^41, so the printed results are exact.
int main() {
	Matrix float <1> a = [0 :: 1048575] * 1.0;
	Matrix float <1> b = [1 :: 1048576] * 1.0;
	float s = 0.0;
	for (int i = 0; i < 3; i++) {
		Matrix float <1> r = a .* b + a - b * 0.5;
		s = s + r[end] + r[i];
	}
	print(s);
	return 0;
}
