// Overloaded arithmetic and comparison (§III-A.2): every operator is
// elementwise over matrices (with matrix–scalar broadcasting and
// int→float promotion) except '*' applied to two matrices, which is
// linear-algebra matrix multiplication; '.*' is the extension's
// explicit elementwise multiplication.
package matrix

import "fmt"

// Op is a runtime binary operator.
type Op int

// Runtime operators (Mul here is elementwise; use MatMulExec for the
// linear-algebra product).
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "&&", OpOr: "||",
}

func (o Op) String() string { return opNames[o] }

func (o Op) isComparison() bool { return o >= OpEq && o <= OpGe }
func (o Op) isLogical() bool    { return o == OpAnd || o == OpOr }

// scalarOp applies op to two scalar values (int64/float64/bool),
// promoting ints to floats when mixed.
func scalarOp(op Op, a, b any) (any, error) {
	if op.isLogical() {
		ab, aok := a.(bool)
		bb, bok := b.(bool)
		if !aok || !bok {
			return nil, fmt.Errorf("matrix: %s requires bool operands", op)
		}
		if op == OpAnd {
			return ab && bb, nil
		}
		return ab || bb, nil
	}
	if ab, aok := a.(bool); aok {
		bb, bok := b.(bool)
		if !bok || (op != OpEq && op != OpNe) {
			return nil, fmt.Errorf("matrix: %s cannot compare bool values", op)
		}
		if op == OpEq {
			return ab == bb, nil
		}
		return ab != bb, nil
	}
	ai, aIsInt := toInt(a)
	bi, bIsInt := toInt(b)
	if aIsInt && bIsInt {
		return intOp(op, ai, bi)
	}
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	if !aok || !bok {
		return nil, fmt.Errorf("matrix: %s cannot be applied to %T and %T", op, a, b)
	}
	return floatOp(op, af, bf)
}

func toInt(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	}
	return 0, false
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	case int:
		return float64(x), true
	}
	return 0, false
}

func intOp(op Op, a, b int64) (any, error) {
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	case OpDiv:
		if b == 0 {
			return nil, fmt.Errorf("matrix: integer division by zero")
		}
		return a / b, nil
	case OpMod:
		if b == 0 {
			return nil, fmt.Errorf("matrix: integer modulo by zero")
		}
		return a % b, nil
	case OpEq:
		return a == b, nil
	case OpNe:
		return a != b, nil
	case OpLt:
		return a < b, nil
	case OpLe:
		return a <= b, nil
	case OpGt:
		return a > b, nil
	case OpGe:
		return a >= b, nil
	}
	return nil, fmt.Errorf("matrix: %s is not an int operator", op)
}

func floatOp(op Op, a, b float64) (any, error) {
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	case OpDiv:
		return a / b, nil
	case OpEq:
		return a == b, nil
	case OpNe:
		return a != b, nil
	case OpLt:
		return a < b, nil
	case OpLe:
		return a <= b, nil
	case OpGt:
		return a > b, nil
	case OpGe:
		return a >= b, nil
	}
	return nil, fmt.Errorf("matrix: %s is not a float operator", op)
}

// resultElem determines the element type of an elementwise result.
func resultElem(op Op, a, b Elem) Elem {
	if op.isComparison() || op.isLogical() {
		return Bool
	}
	if a == Float || b == Float {
		return Float
	}
	if a == Bool && b == Bool {
		return Bool
	}
	return Int
}

// --- reference oracles ---
//
// The original boxed implementations are retained verbatim below as
// reference oracles: they define the semantics the specialized kernels
// must reproduce, and the differential tests (kernels_test.go,
// FuzzKernelDiff) pin every kernel against them. They are slow by
// design — one scalarOp interface round-trip per element — and are not
// called on any production path.

// ElementwiseRef is the boxed per-element reference for Elementwise.
func ElementwiseRef(op Op, a, b *Matrix) (*Matrix, error) {
	if !a.SameShape(b) {
		return nil, fmt.Errorf("matrix: %s requires equal shapes, got %v and %v", op, a.shape(), b.shape())
	}
	out := New(resultElem(op, a.elem, b.elem), a.shape()...)
	for k, n := 0, a.Size(); k < n; k++ {
		v, err := scalarOp(op, a.Get(k), b.Get(k))
		if err != nil {
			return nil, err
		}
		if err := out.Set(k, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// BroadcastRef is the boxed per-element reference for Broadcast.
func BroadcastRef(op Op, m *Matrix, s any, matLeft bool) (*Matrix, error) {
	sElem := Float
	switch s.(type) {
	case int64, int:
		sElem = Int
	case bool:
		sElem = Bool
	}
	out := New(resultElem(op, m.elem, sElem), m.shape()...)
	for k, n := 0, m.Size(); k < n; k++ {
		var v any
		var err error
		if matLeft {
			v, err = scalarOp(op, m.Get(k), s)
		} else {
			v, err = scalarOp(op, s, m.Get(k))
		}
		if err != nil {
			return nil, err
		}
		if err := out.Set(k, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MatMulRef is the naive i-j-k reference for MatMulExec. Each cell sums
// its products in ascending k, the order the blocked kernel keeps, so
// the differential tests compare the two exactly.
func MatMulRef(a, b *Matrix) (*Matrix, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("matrix: matmul requires rank-2 matrices, got ranks %d and %d", a.Rank(), b.Rank())
	}
	if a.shape()[1] != b.shape()[0] {
		return nil, fmt.Errorf("matrix: matmul dimension mismatch: %v x %v", a.shape(), b.shape())
	}
	if a.elem == Bool || b.elem == Bool {
		return nil, fmt.Errorf("matrix: matmul requires numeric matrices")
	}
	m, k, n := a.shape()[0], a.shape()[1], b.shape()[1]
	if a.elem == Int && b.elem == Int {
		out := New(Int, m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var acc int64
				for x := 0; x < k; x++ {
					acc += a.ints()[i*k+x] * b.ints()[x*n+j]
				}
				out.ints()[i*n+j] = acc
			}
		}
		return out, nil
	}
	out := New(Float, m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for x := 0; x < k; x++ {
				acc += a.GetFloat(i*k+x) * b.GetFloat(x*n+j)
			}
			out.floats()[i*n+j] = acc
		}
	}
	return out, nil
}

// UnaryRef is the reference for Unary.
func UnaryRef(neg bool, m *Matrix) (*Matrix, error) {
	if neg {
		switch m.elem {
		case Float:
			out := New(Float, m.shape()...)
			for k, v := range m.floats() {
				out.floats()[k] = -v
			}
			return out, nil
		case Int:
			out := New(Int, m.shape()...)
			for k, v := range m.ints() {
				out.ints()[k] = -v
			}
			return out, nil
		}
		return nil, fmt.Errorf("matrix: cannot negate a bool matrix")
	}
	if m.elem != Bool {
		return nil, fmt.Errorf("matrix: logical not requires a bool matrix")
	}
	out := New(Bool, m.shape()...)
	for k, v := range m.bools() {
		out.bools()[k] = !v
	}
	return out, nil
}

// TransposeRef is the boxed per-element reference for Transpose.
func TransposeRef(m *Matrix) (*Matrix, error) {
	if m.Rank() != 2 {
		return nil, fmt.Errorf("matrix: transpose requires a rank-2 matrix, got rank %d", m.Rank())
	}
	rows, cols := m.shape()[0], m.shape()[1]
	out := New(m.elem, cols, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if err := out.Set(j*rows+i, m.Get(i*cols+j)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Conv2DRef is the boxed per-element reference for Conv2D: one
// scalarOp multiply-add per in-range kernel tap, taps in (u, v) order.
// The specialized kernel accumulates in the same order, so even float
// results are compared exactly.
func Conv2DRef(src, kern *Matrix) (*Matrix, error) {
	if src.Rank() != 2 || kern.Rank() != 2 {
		return nil, fmt.Errorf("matrix: conv2d requires rank-2 matrices, got ranks %d and %d", src.Rank(), kern.Rank())
	}
	if src.elem == Bool || kern.elem == Bool {
		return nil, fmt.Errorf("matrix: conv2d requires numeric matrices")
	}
	kh, kw := kern.shape()[0], kern.shape()[1]
	if kh%2 == 0 || kw%2 == 0 {
		return nil, fmt.Errorf("matrix: conv2d kernel dimensions must be odd, got %v", kern.shape())
	}
	oe := Int
	if src.elem == Float || kern.elem == Float {
		oe = Float
	}
	rows, cols := src.shape()[0], src.shape()[1]
	out := New(oe, rows, cols)
	cy, cx := kh/2, kw/2
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			var acc any
			if oe == Int {
				acc = int64(0)
			} else {
				acc = float64(0)
			}
			for u := 0; u < kh; u++ {
				for v := 0; v < kw; v++ {
					si, sj := i+u-cy, j+v-cx
					if si < 0 || si >= rows || sj < 0 || sj >= cols {
						continue
					}
					p, err := scalarOp(OpMul, src.Get(si*cols+sj), kern.Get(u*kw+v))
					if err != nil {
						return nil, err
					}
					acc, err = scalarOp(OpAdd, acc, p)
					if err != nil {
						return nil, err
					}
				}
			}
			if err := out.Set(i*cols+j, acc); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// ReduceAxisRef is the boxed per-element reference for ReduceAxis: the
// fold step over the axis in ascending order from its first cell — the
// same order the specialized kernel uses, so float sums compare exactly.
func ReduceAxisRef(kind FoldKind, m *Matrix, axis int) (*Matrix, error) {
	if m.elem == Bool {
		return nil, fmt.Errorf("matrix: reduce requires a numeric matrix")
	}
	if axis < 0 || axis >= m.Rank() {
		return nil, fmt.Errorf("matrix: reduce axis %d out of range for rank %d", axis, m.Rank())
	}
	axisN := m.shape()[axis]
	if axisN == 0 && (kind == FoldMin || kind == FoldMax) {
		return nil, fmt.Errorf("matrix: reduce %s along an empty dimension", kind)
	}
	outShape := make([]int, 0, m.Rank()-1)
	outer, inner := 1, 1
	for d, n := range m.shape() {
		switch {
		case d < axis:
			outer *= n
			outShape = append(outShape, n)
		case d > axis:
			inner *= n
			outShape = append(outShape, n)
		}
	}
	out := New(m.elem, outShape...)
	for o := 0; o < outer; o++ {
		for j := 0; j < inner; j++ {
			acc := FoldValue{Float: m.elem == Float}.identity(kind)
			for a := 0; a < axisN; a++ {
				v := m.Get(o*axisN*inner + a*inner + j)
				if a == 0 { // the first cell starts the fold, as in the kernel
					acc.I, _ = v.(int64)
					acc.F, _ = v.(float64)
				} else if err := acc.add(kind, v); err != nil {
					return nil, err
				}
			}
			if err := out.Set(o*inner+j, acc.Any()); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// ScalarBinary exposes scalarOp for the interpreter.
func ScalarBinary(op Op, a, b any) (any, error) { return scalarOp(op, a, b) }
