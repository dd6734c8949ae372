/* Race-free cilk task parallelism: every spawned call reads only
   shared data (base, a, b) and writes nothing but its own spawn
   target, and targets are only read after the joining sync — cmvet's
   determinacy-race detector proves this program clean (0 findings). */
Matrix float <1> scale(Matrix float <1> v, float f) {
	int n = dimSize(v, 0);
	return with ([0] <= [i] < [n]) genarray([n], v[i] * f);
}

float total(Matrix float <1> v) {
	int n = dimSize(v, 0);
	return with ([0] <= [i] < [n]) fold(+, 0.0, v[i]);
}

int main() {
	Matrix float <1> base = [1 :: 16] * 1.0;
	Matrix float <1> a;
	Matrix float <1> b;
	spawn a = scale(base, 2.0);
	spawn b = scale(base, 3.0);
	sync;

	float sa = 0.0;
	float sb = 0.0;
	spawn sa = total(a);
	spawn sb = total(b);
	sync;
	print(sa);
	print(sb);
	print(sa + sb);
	return 0;
}
