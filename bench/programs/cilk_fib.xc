// Cilk extension (§VIII): spawned recursive fib.
int fib(int n) {
	if (n < 2) return n;
	int a = 0;
	int b = 0;
	spawn a = fib(n - 1);
	b = fib(n - 2);
	sync;
	return a + b;
}
int main() {
	print(fib(14));                      // 377
	return 0;
}
