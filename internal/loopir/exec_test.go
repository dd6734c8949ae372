// A reference evaluator for the loop IR, used by tests to verify that
// every transformation preserves the semantics of the nest it
// rewrites (the essential property of §V's user-directed
// transformations: they change the loop structure, not the result).
package loopir

import "fmt"

// Value is a scalar IR value: an int or a float.
type Value struct {
	F     float64
	I     int64
	IsInt bool
}

// IV and FV build values.
func IV(i int64) Value   { return Value{I: i, IsInt: true} }
func FV(f float64) Value { return Value{F: f} }

func (v Value) asFloat() float64 {
	if v.IsInt {
		return float64(v.I)
	}
	return v.F
}

// Env is the evaluation environment: scalar variables and flat arrays.
type Env struct {
	Vars   map[string]Value
	Arrays map[string][]float64
}

// NewEnv builds an empty environment.
func NewEnv() *Env {
	return &Env{Vars: map[string]Value{}, Arrays: map[string][]float64{}}
}

// Clone deep-copies the environment.
func (e *Env) Clone() *Env {
	out := NewEnv()
	for k, v := range e.Vars {
		out.Vars[k] = v
	}
	for k, a := range e.Arrays {
		out.Arrays[k] = append([]float64(nil), a...)
	}
	return out
}

// EvalExpr evaluates an IR expression in the environment.
func (e *Env) EvalExpr(x Expr) (Value, error) {
	switch x := x.(type) {
	case *IntConst:
		return IV(x.V), nil
	case *FloatConst:
		return FV(x.V), nil
	case *VarRef:
		v, ok := e.Vars[x.Name]
		if !ok {
			return Value{}, fmt.Errorf("loopir eval: unbound variable %q", x.Name)
		}
		return v, nil
	case *Load:
		idx, err := e.EvalExpr(x.Idx)
		if err != nil {
			return Value{}, err
		}
		arr, ok := e.Arrays[x.Array]
		if !ok {
			return Value{}, fmt.Errorf("loopir eval: unknown array %q", x.Array)
		}
		if !idx.IsInt || idx.I < 0 || idx.I >= int64(len(arr)) {
			return Value{}, fmt.Errorf("loopir eval: index %v out of range for %q (len %d)", idx, x.Array, len(arr))
		}
		return FV(arr[idx.I]), nil
	case *Un:
		v, err := e.EvalExpr(x.X)
		if err != nil {
			return Value{}, err
		}
		if x.Op == "-" {
			if v.IsInt {
				return IV(-v.I), nil
			}
			return FV(-v.F), nil
		}
		return Value{}, fmt.Errorf("loopir eval: unary %q unsupported", x.Op)
	case *Bin:
		l, err := e.EvalExpr(x.L)
		if err != nil {
			return Value{}, err
		}
		r, err := e.EvalExpr(x.R)
		if err != nil {
			return Value{}, err
		}
		if l.IsInt && r.IsInt {
			switch x.Op {
			case "+":
				return IV(l.I + r.I), nil
			case "-":
				return IV(l.I - r.I), nil
			case "*":
				return IV(l.I * r.I), nil
			case "/":
				if r.I == 0 {
					return Value{}, fmt.Errorf("loopir eval: division by zero")
				}
				return IV(l.I / r.I), nil
			case "%":
				if r.I == 0 {
					return Value{}, fmt.Errorf("loopir eval: modulo by zero")
				}
				return IV(l.I % r.I), nil
			}
		}
		lf, rf := l.asFloat(), r.asFloat()
		switch x.Op {
		case "+":
			return FV(lf + rf), nil
		case "-":
			return FV(lf - rf), nil
		case "*":
			return FV(lf * rf), nil
		case "/":
			return FV(lf / rf), nil
		}
		return Value{}, fmt.Errorf("loopir eval: operator %q unsupported", x.Op)
	}
	return Value{}, fmt.Errorf("loopir eval: expression %T unsupported", x)
}

// Exec runs a statement list, mutating the environment. Parallel and
// vector annotations are ignored — they must not change semantics,
// which is exactly what the tests assert.
func (e *Env) Exec(body []Stmt) error {
	for _, s := range body {
		switch s := s.(type) {
		case *Loop:
			lo, err := e.EvalExpr(s.Lo)
			if err != nil {
				return err
			}
			hi, err := e.EvalExpr(s.Hi)
			if err != nil {
				return err
			}
			if !lo.IsInt || !hi.IsInt {
				return fmt.Errorf("loopir eval: non-integer loop bounds for %q", s.Index)
			}
			saved, had := e.Vars[s.Index]
			for i := lo.I; i < hi.I; i++ {
				e.Vars[s.Index] = IV(i)
				if err := e.Exec(s.Body); err != nil {
					return err
				}
			}
			if had {
				e.Vars[s.Index] = saved
			} else {
				delete(e.Vars, s.Index)
			}
		case *DeclStmt:
			v := Value{}
			if s.Init != nil {
				var err error
				v, err = e.EvalExpr(s.Init)
				if err != nil {
					return err
				}
			}
			if s.CType == "int" {
				if !v.IsInt {
					v = IV(int64(v.F))
				}
			} else if v.IsInt {
				v = FV(float64(v.I))
			}
			e.Vars[s.Name] = v
		case *AssignStmt:
			rhs, err := e.EvalExpr(s.RHS)
			if err != nil {
				return err
			}
			switch lhs := s.LHS.(type) {
			case *VarRef:
				old, ok := e.Vars[lhs.Name]
				if ok && old.IsInt && !rhs.IsInt {
					rhs = IV(int64(rhs.F))
				}
				if ok && !old.IsInt && rhs.IsInt {
					rhs = FV(float64(rhs.I))
				}
				e.Vars[lhs.Name] = rhs
			case *Load:
				idx, err := e.EvalExpr(lhs.Idx)
				if err != nil {
					return err
				}
				arr, ok := e.Arrays[lhs.Array]
				if !ok {
					return fmt.Errorf("loopir eval: unknown array %q", lhs.Array)
				}
				if !idx.IsInt || idx.I < 0 || idx.I >= int64(len(arr)) {
					return fmt.Errorf("loopir eval: store index out of range for %q", lhs.Array)
				}
				arr[idx.I] = rhs.asFloat()
			default:
				return fmt.Errorf("loopir eval: cannot assign to %T", s.LHS)
			}
		case *Raw:
			// no effect
		}
	}
	return nil
}
