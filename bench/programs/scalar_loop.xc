// A tight counted loop of fused integer opcodes: pure VM dispatch.
int main() {
	int s = 0;
	for (int i = 0; i < 400000; i++) {
		s = s + i * 3 - 1;
	}
	print(s);
	return 0;
}
