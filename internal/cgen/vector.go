// SSE2 vector emission for vectorized loops (§V, Fig 11). A loop
// marked by "vectorize" executes its iterations as four double lanes,
// held as the pair of 128-bit vectors name[0] (lanes 0, 1) and name[1]
// (lanes 2, 3): scalar declarations become __m128d pairs, arithmetic
// becomes _mm_*_pd intrinsics a half at a time, stride-1 loads and
// stores become _mm_loadu_pd/_mm_storeu_pd and other access patterns
// become lane-wise gathers/scatters, and inner loops (like Fig 11's
// time dimension) remain scalar loops over vector accumulators. Every
// lane computes in the VM's double, so a vectorized loop's cells are
// the unvectorized loop's bit for bit.
package cgen

import (
	"fmt"
	"strings"

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
	b.line("/* loop %s vectorized: 4 double lanes, two SSE2 vectors */", l.Index)
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
			init := [2]string{"_mm_setzero_pd()", "_mm_setzero_pd()"}
			if s.Init != nil {
				init = [2]string{v.expr(s.Init, 0), v.expr(s.Init, 1)}
			}
			b.line("__m128d %s[2] = {%s, %s};", s.Name, init[0], init[1])
			v.vecVars[s.Name] = true
		case *loopir.AssignStmt:
			for h := 0; h < 2; h++ {
				rhs := v.expr(s.RHS, h)
				switch lhs := s.LHS.(type) {
				case *loopir.VarRef:
					b.line("%s[%d] = %s;", lhs.Name, h, rhs)
				case *loopir.Load:
					if stride1(lhs.Idx, v.index) {
						b.line("_mm_storeu_pd(&%s[%s], %s);", lhs.Array, v.lane(lhs.Idx, 2*h), rhs)
					} else {
						// lane-wise scatter
						tmp := fmt.Sprintf("_lanes_%s", lhs.Array)
						b.line("{ double %s[2]; _mm_storeu_pd(%s, %s);", tmp, tmp, rhs)
						for k := 0; k < 2; k++ {
							b.line("  %s[%s] = %s[%d];", lhs.Array, v.lane(lhs.Idx, 2*h+k), tmp, k)
						}
						b.line("}")
					}
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

// expr renders an IR expression as half h (lanes 2h and 2h+1) of its
// four-lane vector value. Ints read (variables, loads, constants) are
// converted to double as the VM promotes them.
func (v *vecCtx) expr(e loopir.Expr, h int) string {
	switch e := e.(type) {
	case *loopir.IntConst:
		return fmt.Sprintf("_mm_set1_pd(%d.0)", e.V)
	case *loopir.FloatConst:
		return fmt.Sprintf("_mm_set1_pd(%s)", e.String())
	case *loopir.VarRef:
		if e.Name == v.index {
			return fmt.Sprintf("_mm_setr_pd((double)%s, (double)%s)", v.lane(e, 2*h), v.lane(e, 2*h+1))
		}
		if v.vecVars[e.Name] {
			return fmt.Sprintf("%s[%d]", e.Name, h)
		}
		return fmt.Sprintf("_mm_set1_pd((double)%s)", e.Name)
	case *loopir.Bin:
		op := map[string]string{"+": "_mm_add_pd", "-": "_mm_sub_pd", "*": "_mm_mul_pd", "/": "_mm_div_pd"}[e.Op]
		return fmt.Sprintf("%s(%s, %s)", op, v.expr(e.L, h), v.expr(e.R, h))
	case *loopir.Un:
		if e.Op == "-" {
			return fmt.Sprintf("_mm_xor_pd(%s, _mm_set1_pd(-0.0))", v.expr(e.X, h)) // flips the sign, of a zero too
		}
		return v.expr(e.X, h) // (double): every lane is a double already
	case *loopir.Load:
		if stride1(e.Idx, v.index) {
			// A checked load checks both lanes' indices first.
			var checks strings.Builder
			for _, c := range e.Checks {
				for k := 2 * h; k < 2*h+2; k++ {
					fmt.Fprintf(&checks, "cm_chk(%s, %s, %d), ", v.lane(c.Idx, k), c.N, c.Dim)
				}
			}
			load := fmt.Sprintf("_mm_loadu_pd(&%s[%s])", e.Array, v.lane(e.Idx, 2*h))
			if checks.Len() == 0 {
				return load
			}
			return "(" + checks.String() + load + ")"
		}
	case *loopir.Cond:
		// A nested min/max fold's step: (acc < x ? acc : x) is min,
		// (acc < x ? x : acc) max, and _mm_min_pd(a, b) / _mm_max_pd(a, b)
		// are (a < b ? a : b) / (a > b ? a : b), NaNs included.
		fn := "_mm_max_pd"
		if e.T.String() == e.C.(*loopir.Bin).L.String() {
			fn = "_mm_min_pd"
		}
		return fmt.Sprintf("%s(%s, %s)", fn, v.expr(e.T, h), v.expr(e.F, h))
	}
	// A call (cm_dim) or any other load, gathered lane-wise when it
	// reads the index.
	if !loopir.Mentions(e, v.index) {
		return fmt.Sprintf("_mm_set1_pd((double)%s)", e.String())
	}
	return fmt.Sprintf("_mm_setr_pd((double)%s, (double)%s)", v.lane(e, 2*h), v.lane(e, 2*h+1))
}

// lane renders e at lane k of the vectorized index.
func (v *vecCtx) lane(e loopir.Expr, k int) string {
	if k == 0 {
		return e.String()
	}
	return laneExpr(e, v.index, k)
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
