// A short counted scalar loop: the VM's fused compare-and-branch and
// add-immediate opcodes, sized to finish well under a millisecond.
int main() {
	int s = 0;
	for (int i = 0; i < 2000; i++) {
		s = s + i * 3 - 1;
	}
	print(s);
	print(s % 251);
	return 0;
}
