// Plain recursion: frames, argument binding, returns. fib(21) makes
// 28657 calls.
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int main() {
	print(fib(21));
	return 0;
}
