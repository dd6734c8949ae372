// Rank-1 indexed loads and stores in scalar loops: the fused
// opIdx1/opSetIdx1 opcodes, one element at a time.
int main() {
	Matrix float <1> a = init(Matrix float <1>, 4096);
	for (int i = 0; i < 4096; i++) {
		a[i] = (float)(i % 97);
	}
	float s = 0.0;
	for (int r = 0; r < 32; r++) {
		for (int i = 0; i < 4096; i++) {
			s = s + a[i];
		}
	}
	print(s);
	return 0;
}
