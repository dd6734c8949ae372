// The arithmetic inner loops of the strip evaluator (withstrip.go),
// int and float. Each takes slices already cut to the cells it works
// on; d may be an operand (every cell is read before it is written).
// The operator switch sits outside the loop, operand order is kept in
// every form — the result bits are those of `a op b` per cell — and
// nothing here can fail: an int `/` or `%` is stripQuo's, which checks
// its divisor. A wShapes tree rounds its inner node on its own, T(...),
// so a cell gets the bits of two instructions, never an FMA's.
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

// fusedStrips runs wShapes[k] over strips: x, y and z hold len(d)
// cells, or one where the entry reads a uniform.
func fusedStrips[T int64 | float64](k int, d, x, y, z []T) {
	n := len(d)
	switch z = z[:n]; k {
	case 0: // (x*y)+z
		x, y = x[:n], y[:n]
		for i := range d {
			d[i] = T(x[i]*y[i]) + z[i]
		}
	case 1: // z-(x*u)
		x, u := x[:n], y[0]
		for i := range d {
			d[i] = z[i] - T(x[i]*u)
		}
	case 2: // (x+y)+z
		x, y = x[:n], y[:n]
		for i := range d {
			d[i] = T(x[i]+y[i]) + z[i]
		}
	case 3: // z-(u*y)
		u, y := x[0], y[:n]
		for i := range d {
			d[i] = z[i] - T(u*y[i])
		}
	default: // z+(u*y)
		u, y := x[0], y[:n]
		for i := range d {
			d[i] = z[i] + T(u*y[i])
		}
	}
}
