package main

import (
	"fmt"
	"strings"
)

// rng is splitmix64: a few instructions per draw and seedable per
// request, so the i-th request of a seed is a pure function of
// (seed, i) whichever client sends it.
type rng uint64

func newRNG(seed, i int64) *rng {
	r := rng(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9)
	r.next()
	return &r
}

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffled returns a seeded permutation of 0..n-1.
func shuffled(n int, r *rng) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// reserved are the words a mutation must not rename: the composed
// grammar's keywords, the builtins, and main.
var reserved = func() map[string]bool {
	m := map[string]bool{}
	for _, w := range strings.Fields(`int float bool void while for return break continue
		true false end if else Matrix with genarray fold matrixMap matrixMapG init min max
		transform split by vectorize parallelize reorder tile unroll
		refcounted rcnew rcget rcset rcrelease spawn sync
		dimSize readMatrix writeMatrix print main`) {
		m[w] = true
	}
	return m
}()

// padding are the shapes of the unused functions a mutation appends;
// %s is the unique suffix. They are never called, so the program's
// output is unchanged, but each is parsed, checked, vetted and
// compiled like any other function.
var padding = []string{
	`int padsum_%[1]s(int a, int b) {
	int s = 0;
	for (int i = 0; i < a; i++) {
		s = s + i * b - 1;
	}
	return s;
}
`,
	`float padhalf_%[1]s(float x) {
	if (x > 1.0) { return x * 0.5; }
	return x + 1.0;
}
`,
	`Matrix float <1> padscale_%[1]s(Matrix float <1> v, float f) {
	int n = dimSize(v, 0);
	return with ([0] <= [i] < [n]) genarray([n], v[i] * f);
}
`,
	`float padtotal_%[1]s(Matrix float <2> m) {
	int r = dimSize(m, 0);
	int c = dimSize(m, 1);
	return with ([0, 0] <= [i, j] < [r, c]) fold(+, 0.0, m[i, j]);
}
`,
	`(int, bool) padsplit_%[1]s(int a, int b) {
	int q = a / b;
	while (q > 100) {
		q = q - 100;
	}
	return (q, a %% b == 0);
}
`,
	`Matrix int <1> padodd_%[1]s(int n) {
	Matrix int <1> v = [0 :: n];
	return v[v %% 2 == 1];
}
`,
}

// maxPadding is the most unused functions one mutation appends.
const maxPadding = 12

// mutate returns a never-seen, semantics-preserving variant of src:
// every user identifier gets the suffix tag, comment lines come and
// go, indentation changes, and 0..maxPadding unused functions with
// unique names are appended. The same (src, tag, r state) gives the
// same bytes.
func mutate(src, tag string, r *rng) string {
	var b strings.Builder
	b.Grow(len(src)*2 + 4096)
	fmt.Fprintf(&b, "// variant %s\n", tag)
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			j := i
			for j < len(src) && src[j] != '\n' {
				j++
			}
			if r.intn(4) > 0 { // drop one comment in four
				b.WriteString(src[i:j])
			}
			i = j
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			j := strings.Index(src[i+2:], "*/")
			if j < 0 {
				j = len(src)
			} else {
				j += i + 4
			}
			b.WriteString(src[i:j])
			i = j
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				j++
			}
			j = min(j+1, len(src))
			b.WriteString(src[i:j])
			i = j
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			j := i
			for j < len(src) && (src[j] == '_' || src[j] >= 'a' && src[j] <= 'z' ||
				src[j] >= 'A' && src[j] <= 'Z' || src[j] >= '0' && src[j] <= '9') {
				j++
			}
			b.WriteString(src[i:j])
			if !reserved[src[i:j]] {
				b.WriteByte('_')
				b.WriteString(tag)
			}
			i = j
		case c >= '0' && c <= '9':
			// A literal, with any letters glued to it (an exponent, a
			// suffix), passes through whole.
			j := i
			for j < len(src) && (src[j] == '.' || src[j] >= '0' && src[j] <= '9' ||
				src[j] >= 'a' && src[j] <= 'z' || src[j] >= 'A' && src[j] <= 'Z') {
				j++
			}
			b.WriteString(src[i:j])
			i = j
		case c == '\n':
			b.WriteByte('\n')
			switch r.intn(8) {
			case 0:
				b.WriteByte('\n')
			case 1:
				fmt.Fprintf(&b, "// %s line %d\n", tag, i)
			case 2:
				b.WriteString("  ")
			}
			i++
		default:
			b.WriteByte(c)
			i++
		}
	}
	for k, n := 0, r.intn(maxPadding+1); k < n; k++ {
		fmt.Fprintf(&b, padding[r.intn(len(padding))], fmt.Sprintf("%s_%d", tag, k))
	}
	return b.String()
}
