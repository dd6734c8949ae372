// SSE vector emission for vectorized loops (§V, Fig 11). A loop
// marked by "vectorize" executes its iterations as the four lanes of
// 128-bit single-precision vectors: scalar float declarations become
// __m128 vectors, arithmetic becomes _mm_*_ps intrinsics, stride-1
// loads and stores become _mm_loadu_ps/_mm_storeu_ps and other access
// patterns become lane-wise gathers/scatters, and inner loops (like
// Fig 11's time dimension) remain scalar loops over vector
// accumulators.
package cgen

import (
	"fmt"

	"repro/internal/loopir"
)

// vecCtx tracks which names hold vector values during emission.
type vecCtx struct {
	index   string // the vectorized loop index
	vecVars map[string]bool
}

// emitVectorLoop expands a VectorLanes=4 loop, whose bounds are
// literals four or a multiple of four apart.
func emitVectorLoop(b *indentWriter, l *loopir.Loop) {
	lo, hi := l.Lo.(*loopir.IntConst).V, l.Hi.(*loopir.IntConst).V
	v := &vecCtx{index: l.Index, vecVars: map[string]bool{}}
	b.line("/* loop %s vectorized: 4 x 32-bit single-precision lanes (SSE) */", l.Index)
	if hi-lo == 4 {
		// The whole loop collapses into straight-line vector code with
		// the index fixed at the lane origin (the Fig 11 presentation).
		b.line("{")
		b.indent++
		b.line("long %s = %d;", l.Index, lo)
	} else {
		b.line("for (long %s = %d; %s < %d; %s += 4) {", l.Index, lo, l.Index, hi, l.Index)
		b.indent++
	}
	v.stmts(b, l.Body)
	b.indent--
	b.line("}")
}

func (v *vecCtx) stmts(b *indentWriter, body []loopir.Stmt) {
	for _, s := range body {
		switch s := s.(type) {
		case *loopir.DeclStmt:
			init := "_mm_setzero_ps()"
			if s.Init != nil {
				init = v.expr(s.Init)
			}
			b.line("__m128 %s = %s;", s.Name, init)
			v.vecVars[s.Name] = true
		case *loopir.AssignStmt:
			rhs := v.expr(s.RHS)
			switch lhs := s.LHS.(type) {
			case *loopir.VarRef:
				b.line("%s = %s;", lhs.Name, rhs)
			case *loopir.Load:
				if stride1(lhs.Idx, v.index) {
					b.line("_mm_storeu_ps(&%s[%s], %s);", lhs.Array, lhs.Idx, rhs)
				} else {
					// lane-wise scatter
					tmp := fmt.Sprintf("_lanes_%s", lhs.Array)
					b.line("{ float %s[4]; _mm_storeu_ps(%s, %s);", tmp, tmp, rhs)
					for k := 0; k < 4; k++ {
						b.line("  %s[%s] = %s[%d];", lhs.Array, laneExpr(lhs.Idx, v.index, k), tmp, k)
					}
					b.line("}")
				}
			}
		case *loopir.Loop:
			// Inner scalar loop over vector state (Fig 11's k loop).
			b.line("for (long %s = %s; %s < %s; %s++) {", s.Index, s.Lo, s.Index, s.Hi, s.Index)
			b.indent++
			v.stmts(b, s.Body)
			b.indent--
			b.line("}")
		default:
			panic(bug("%T in a vectorized loop", s))
		}
	}
}

// expr renders an IR expression as a 4-lane vector expression.
func (v *vecCtx) expr(e loopir.Expr) string {
	switch e := e.(type) {
	case *loopir.IntConst:
		return fmt.Sprintf("_mm_set1_ps(%d.0f)", e.V)
	case *loopir.FloatConst:
		return fmt.Sprintf("_mm_set1_ps(%s)", e.String())
	case *loopir.VarRef:
		if e.Name == v.index {
			return fmt.Sprintf("_mm_add_ps(_mm_set1_ps((float)%s), _mm_setr_ps(0, 1, 2, 3))", e.Name)
		}
		if v.vecVars[e.Name] {
			return e.Name
		}
		return fmt.Sprintf("_mm_set1_ps((float)%s)", e.Name)
	case *loopir.Bin:
		op := map[string]string{"+": "_mm_add_ps", "-": "_mm_sub_ps", "*": "_mm_mul_ps", "/": "_mm_div_ps"}[e.Op]
		return fmt.Sprintf("%s(%s, %s)", op, v.expr(e.L), v.expr(e.R))
	case *loopir.Un:
		if e.Op == "-" {
			return fmt.Sprintf("_mm_sub_ps(_mm_setzero_ps(), %s)", v.expr(e.X))
		}
		return v.expr(e.X) // (float) and (long): all lanes are floats already
	case *loopir.Load:
		if stride1(e.Idx, v.index) {
			return fmt.Sprintf("_mm_loadu_ps(&%s[%s])", e.Array, e.Idx)
		}
		if !loopir.Mentions(e.Idx, v.index) {
			return fmt.Sprintf("_mm_set1_ps((float)%s[%s])", e.Array, e.Idx)
		}
		// lane-wise gather (e.g. Fig 11's strided mat accesses)
		return fmt.Sprintf("_mm_setr_ps((float)%s[%s], (float)%s[%s], (float)%s[%s], (float)%s[%s])",
			e.Array, laneExpr(e.Idx, v.index, 0), e.Array, laneExpr(e.Idx, v.index, 1),
			e.Array, laneExpr(e.Idx, v.index, 2), e.Array, laneExpr(e.Idx, v.index, 3))
	case *loopir.Cond:
		// A nested min/max fold's accumulator: (a < b ? a : b) and
		// (a > b ? a : b).
		if e.C.(*loopir.Bin).Op == "<" {
			return fmt.Sprintf("_mm_min_ps(%s, %s)", v.expr(e.T), v.expr(e.F))
		}
		return fmt.Sprintf("_mm_max_ps(%s, %s)", v.expr(e.T), v.expr(e.F))
	}
	// A call: the bounds-checked cm_at accessors of the unoptimized
	// ablation path, gathered lane-wise when they read the index.
	if !loopir.Mentions(e, v.index) {
		return fmt.Sprintf("_mm_set1_ps((float)%s)", e.String())
	}
	return fmt.Sprintf("_mm_setr_ps((float)%s, (float)%s, (float)%s, (float)%s)",
		laneExpr(e, v.index, 0), laneExpr(e, v.index, 1),
		laneExpr(e, v.index, 2), laneExpr(e, v.index, 3))
}

// laneExpr renders any expression at lane k of the vectorized index.
func laneExpr(e loopir.Expr, index string, k int) string {
	return loopir.SubstExpr(e, index, loopir.B("+", loopir.V(index), loopir.IC(int64(k)))).String()
}

// stride1 reports whether idx advances by exactly 1 when the given
// index variable advances by 1: the index's coefficient in idx, taken
// through +, -, unary minus and * by a loop-invariant constant, is 1.
// Anything else that mentions the index (%, /, a call, a conditional, a
// load, a product with a variable) is not provably unit stride and
// costs a gather.
func stride1(idx loopir.Expr, index string) bool {
	c, ok := indexCoeff(idx, index)
	return ok && c == 1
}

// indexCoeff is the coefficient of index in e when e is affine in it;
// ok is false when e is not affine in index as far as the rules of
// stride1 can tell.
func indexCoeff(e loopir.Expr, index string) (c int64, ok bool) {
	switch e := e.(type) {
	case *loopir.VarRef:
		if e.Name == index {
			return 1, true
		}
	case *loopir.Un:
		if e.Op == "-" {
			c, ok = indexCoeff(e.X, index)
			return -c, ok
		}
	case *loopir.Bin:
		if e.Op != "+" && e.Op != "-" && e.Op != "*" {
			break
		}
		l, lok := indexCoeff(e.L, index)
		r, rok := indexCoeff(e.R, index)
		if !lok || !rok {
			return 0, false
		}
		switch e.Op {
		case "+":
			return l + r, true
		case "-":
			return l - r, true
		}
		if k, isConst := e.L.(*loopir.IntConst); isConst {
			return k.V * r, true
		}
		if k, isConst := e.R.(*loopir.IntConst); isConst {
			return l * k.V, true
		}
	}
	// Whatever is left is affine (with coefficient 0) only as a
	// loop invariant.
	return 0, !loopir.Mentions(e, index)
}
