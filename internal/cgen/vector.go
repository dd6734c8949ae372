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

// emitVectorLoop expands a VectorLanes=4 loop.
func emitVectorLoop(g *generator, b *indentWriter, l *loopir.Loop) error {
	trip, ok := l.Hi.(*loopir.IntConst)
	if !ok || trip.V%4 != 0 {
		return fmt.Errorf("cgen: vectorized loop %q needs a constant trip count divisible by 4", l.Index)
	}
	v := &vecCtx{index: l.Index, vecVars: map[string]bool{}}
	b.line("/* loop %s vectorized: 4 x 32-bit single-precision lanes (SSE) */", l.Index)
	emitBody := func() error { return v.stmts(b, l.Body) }
	if trip.V == 4 {
		// The whole loop collapses into straight-line vector code with
		// the index fixed at lane origin 0 (the Fig 11 presentation).
		b.line("{")
		b.indent++
		b.line("long %s = 0;", l.Index)
		if err := emitBody(); err != nil {
			return err
		}
		b.indent--
		b.line("}")
		return nil
	}
	b.line("for (long %s = 0; %s < %d; %s += 4) {", l.Index, l.Index, trip.V, l.Index)
	b.indent++
	if err := emitBody(); err != nil {
		return err
	}
	b.indent--
	b.line("}")
	return nil
}

func (v *vecCtx) stmts(b *indentWriter, body []loopir.Stmt) error {
	for _, s := range body {
		switch s := s.(type) {
		case *loopir.DeclStmt:
			init := "_mm_setzero_ps()"
			if s.Init != nil {
				var err error
				init, err = v.expr(s.Init)
				if err != nil {
					return err
				}
			}
			b.line("__m128 %s = %s;", s.Name, init)
			v.vecVars[s.Name] = true
		case *loopir.AssignStmt:
			rhs, err := v.expr(s.RHS)
			if err != nil {
				return err
			}
			switch lhs := s.LHS.(type) {
			case *loopir.VarRef:
				if !v.vecVars[lhs.Name] {
					return fmt.Errorf("cgen: vectorized store to scalar %q", lhs.Name)
				}
				b.line("%s = %s;", lhs.Name, rhs)
			case *loopir.Load:
				if stride1(lhs.Idx, v.index) {
					b.line("_mm_storeu_ps(&%s[%s], %s);", lhs.Array, lhs.Idx, rhs)
				} else {
					// lane-wise scatter
					tmp := fmt.Sprintf("_lanes_%s", lhs.Array)
					b.line("{ float %s[4]; _mm_storeu_ps(%s, %s);", tmp, tmp, rhs)
					for k := 0; k < 4; k++ {
						b.line("  %s[%s] = %s[%d];", lhs.Array, laneIdx(lhs.Idx, v.index, k), tmp, k)
					}
					b.line("}")
				}
			default:
				return fmt.Errorf("cgen: vectorized store to %T", s.LHS)
			}
		case *loopir.Loop:
			// Inner scalar loop over vector state (Fig 11's k loop).
			if dependsOn(s.Lo, v.index) || dependsOn(s.Hi, v.index) {
				return fmt.Errorf("cgen: inner loop %q bounds depend on the vectorized index", s.Index)
			}
			b.line("for (long %s = %s; %s < %s; %s++) {", s.Index, s.Lo, s.Index, s.Hi, s.Index)
			b.indent++
			if err := v.stmts(b, s.Body); err != nil {
				return err
			}
			b.indent--
			b.line("}")
		case *loopir.Comment:
			b.line("/* %s */", s.Text)
		default:
			return fmt.Errorf("cgen: cannot vectorize statement %T", s)
		}
	}
	return nil
}

// expr renders an IR expression as a 4-lane vector expression.
func (v *vecCtx) expr(e loopir.Expr) (string, error) {
	switch e := e.(type) {
	case *loopir.IntConst:
		return fmt.Sprintf("_mm_set1_ps(%d.0f)", e.V), nil
	case *loopir.FloatConst:
		return fmt.Sprintf("_mm_set1_ps(%s)", e.String()), nil
	case *loopir.VarRef:
		if e.Name == v.index {
			return fmt.Sprintf("_mm_add_ps(_mm_set1_ps((float)%s), _mm_setr_ps(0, 1, 2, 3))", e.Name), nil
		}
		if v.vecVars[e.Name] {
			return e.Name, nil
		}
		return fmt.Sprintf("_mm_set1_ps((float)%s)", e.Name), nil
	case *loopir.Bin:
		l, err := v.expr(e.L)
		if err != nil {
			return "", err
		}
		r, err := v.expr(e.R)
		if err != nil {
			return "", err
		}
		op := map[string]string{"+": "_mm_add_ps", "-": "_mm_sub_ps", "*": "_mm_mul_ps", "/": "_mm_div_ps"}[e.Op]
		if op == "" {
			return "", fmt.Errorf("cgen: cannot vectorize operator %q", e.Op)
		}
		return fmt.Sprintf("%s(%s, %s)", op, l, r), nil
	case *loopir.Un:
		x, err := v.expr(e.X)
		if err != nil {
			return "", err
		}
		switch e.Op {
		case "-":
			return fmt.Sprintf("_mm_sub_ps(_mm_setzero_ps(), %s)", x), nil
		case "(float)", "(long)":
			return x, nil // all lanes are floats already
		}
		return "", fmt.Errorf("cgen: cannot vectorize unary %q", e.Op)
	case *loopir.Load:
		if stride1(e.Idx, v.index) {
			return fmt.Sprintf("_mm_loadu_ps(&%s[%s])", e.Array, e.Idx), nil
		}
		if !dependsOn(e.Idx, v.index) {
			return fmt.Sprintf("_mm_set1_ps((float)%s[%s])", e.Array, e.Idx), nil
		}
		// lane-wise gather (e.g. Fig 11's strided mat accesses)
		return fmt.Sprintf("_mm_setr_ps((float)%s[%s], (float)%s[%s], (float)%s[%s], (float)%s[%s])",
			e.Array, laneIdx(e.Idx, v.index, 0), e.Array, laneIdx(e.Idx, v.index, 1),
			e.Array, laneIdx(e.Idx, v.index, 2), e.Array, laneIdx(e.Idx, v.index, 3)), nil
	case *loopir.Cond:
		// min/max accumulators: (a < b ? a : b) and (a > b ? a : b).
		if c, ok := e.C.(*loopir.Bin); ok {
			l, lerr := v.expr(e.T)
			r, rerr := v.expr(e.F)
			if lerr == nil && rerr == nil && c.L.String() == e.T.String() && c.R.String() == e.F.String() {
				switch c.Op {
				case "<":
					return fmt.Sprintf("_mm_min_ps(%s, %s)", l, r), nil
				case ">":
					return fmt.Sprintf("_mm_max_ps(%s, %s)", l, r), nil
				}
			}
		}
		return "", fmt.Errorf("cgen: cannot vectorize conditional expression")
	case *loopir.CallE:
		if !dependsOn(e, v.index) {
			return fmt.Sprintf("_mm_set1_ps((float)%s)", e.String()), nil
		}
		// lane-wise gather through the call (e.g. the bounds-checked
		// cm_at accessors of the unoptimized ablation path)
		return fmt.Sprintf("_mm_setr_ps((float)%s, (float)%s, (float)%s, (float)%s)",
			laneExpr(e, v.index, 0), laneExpr(e, v.index, 1),
			laneExpr(e, v.index, 2), laneExpr(e, v.index, 3)), nil
	}
	return "", fmt.Errorf("cgen: cannot vectorize expression %T", e)
}

// laneIdx renders the index expression at lane k.
func laneIdx(idx loopir.Expr, index string, k int) string {
	return loopir.SubstExpr(idx, index, loopir.B("+", loopir.V(index), loopir.IC(int64(k)))).String()
}

// laneExpr renders any expression at lane k of the vectorized index.
func laneExpr(e loopir.Expr, index string, k int) string {
	return loopir.SubstExpr(e, index, loopir.B("+", loopir.V(index), loopir.IC(int64(k)))).String()
}

// dependsOn reports whether e references the given variable.
func dependsOn(e loopir.Expr, name string) bool {
	switch e := e.(type) {
	case *loopir.VarRef:
		return e.Name == name
	case *loopir.Bin:
		return dependsOn(e.L, name) || dependsOn(e.R, name)
	case *loopir.Un:
		return dependsOn(e.X, name)
	case *loopir.Load:
		return dependsOn(e.Idx, name)
	case *loopir.CallE:
		for _, a := range e.Args {
			if dependsOn(a, name) {
				return true
			}
		}
	case *loopir.Cond:
		return dependsOn(e.C, name) || dependsOn(e.T, name) || dependsOn(e.F, name)
	}
	return false
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
	return 0, !dependsOn(e, index)
}
