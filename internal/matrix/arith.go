// The arithmetic inner loops of the strip evaluator (withstrip.go),
// int and float. Each takes slices already cut to the cells it works
// on; d may be a or b (every cell is read before it is written). The
// operator switch sits outside the loop, operand order is kept in every
// form — the result bits are those of `a op b` per cell — and nothing
// here can fail: an int `/` or `%` is stripQuo's, which checks its
// divisor.
package matrix

// arithSS: d[i] = a[i] op b[i], op one of + - * /.
func arithSS[T int64 | float64](op Op, d, a, b []T) {
	a, b = a[:len(d)], b[:len(d)]
	switch op {
	case OpAdd:
		for i := range d {
			d[i] = a[i] + b[i]
		}
	case OpSub:
		for i := range d {
			d[i] = a[i] - b[i]
		}
	case OpMul:
		for i := range d {
			d[i] = a[i] * b[i]
		}
	default:
		for i := range d {
			d[i] = a[i] / b[i]
		}
	}
}

// arithSU: d[i] = a[i] op b.
func arithSU[T int64 | float64](op Op, d, a []T, b T) {
	a = a[:len(d)]
	switch op {
	case OpAdd:
		for i := range d {
			d[i] = a[i] + b
		}
	case OpSub:
		for i := range d {
			d[i] = a[i] - b
		}
	case OpMul:
		for i := range d {
			d[i] = a[i] * b
		}
	default:
		for i := range d {
			d[i] = a[i] / b
		}
	}
}

// arithUS: d[i] = a op b[i].
func arithUS[T int64 | float64](op Op, d []T, a T, b []T) {
	b = b[:len(d)]
	switch op {
	case OpAdd:
		for i := range d {
			d[i] = a + b[i]
		}
	case OpSub:
		for i := range d {
			d[i] = a - b[i]
		}
	case OpMul:
		for i := range d {
			d[i] = a * b[i]
		}
	default:
		for i := range d {
			d[i] = a / b[i]
		}
	}
}
