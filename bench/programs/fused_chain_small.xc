// A three-stage elementwise chain over 1024 floats: vet proves the
// chain fusable and the VM runs it as one fused loop. All values are
// multiples of 0.5, so the printed results are exact.
int main() {
	Matrix float <1> a = [0 :: 1023] * 1.0;
	Matrix float <1> b = [1 :: 1024] * 1.0;
	float s = 0.0;
	for (int i = 0; i < 4; i++) {
		Matrix float <1> r = a .* b + a - b * 0.5;
		s = s + r[end] + r[i];
	}
	print(s);
	return 0;
}
