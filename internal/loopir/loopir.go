// Package loopir is the loop-nest intermediate representation that
// with-loops and matrixMap lower to, and on which both the high-level
// optimizations of §III-A.4 and the user-directed transformations of
// §V (split, vectorize, parallelize, reorder, tile, unroll) operate.
// The transformations are tree-to-tree rewrites in the style of the
// paper's higher-order attributes: they extract loop bodies, rewrite
// index variables, and rebuild the nest.
package loopir

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is a scalar expression in the IR.
type Expr interface {
	exprNode()
	// String renders the expression as C source.
	String() string
}

// IntConst is an integer literal.
type IntConst struct{ V int64 }

// FloatConst is a floating literal.
type FloatConst struct{ V float64 }

// VarRef references a scalar variable (including loop indices).
type VarRef struct{ Name string }

// Bin is a binary operation, emitted as (L op R).
type Bin struct {
	Op   string
	L, R Expr
}

// Un is a unary operation.
type Un struct {
	Op string
	X  Expr
}

// Load reads one element of a flattened array: Array[Idx]. Checks, when
// there are any, bound the indices Idx is made of: each is tested
// against its extent (cm_chk) before the load.
type Load struct {
	Array  string
	Idx    Expr
	Checks []Check
}

// Check is one index a checked load tests: Idx must lie in [0, N), the
// extent of dimension Dim.
type Check struct {
	Idx, N Expr
	Dim    int
}

// CallE is a call expression.
type CallE struct {
	Fun  string
	Args []Expr
}

// Cond is a C conditional expression (c ? t : f).
type Cond struct {
	C, T, F Expr
}

func (*IntConst) exprNode()   {}
func (*FloatConst) exprNode() {}
func (*VarRef) exprNode()     {}
func (*Bin) exprNode()        {}
func (*Un) exprNode()         {}
func (*Load) exprNode()       {}
func (*CallE) exprNode()      {}
func (*Cond) exprNode()       {}

func (e *IntConst) String() string { return fmt.Sprintf("%d", e.V) }

// String renders a C double literal that reads back to V exactly.
func (e *FloatConst) String() string {
	s := strconv.FormatFloat(e.V, 'g', -1, 64)
	if !strings.ContainsAny(s, ".e") {
		s += ".0"
	}
	return s
}
func (e *VarRef) String() string { return e.Name }
func (e *Bin) String() string    { return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")" }
func (e *Un) String() string     { return "(" + e.Op + e.X.String() + ")" }
func (e *Load) String() string {
	if len(e.Checks) == 0 {
		return e.Array + "[" + e.Idx.String() + "]"
	}
	var b strings.Builder
	b.WriteString(e.Array + "[(")
	for _, c := range e.Checks {
		fmt.Fprintf(&b, "cm_chk(%s, %s, %d), ", c.Idx, c.N, c.Dim)
	}
	b.WriteString(e.Idx.String() + ")]")
	return b.String()
}
func (e *CallE) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Fun + "(" + strings.Join(parts, ", ") + ")"
}
func (e *Cond) String() string {
	return "(" + e.C.String() + " ? " + e.T.String() + " : " + e.F.String() + ")"
}

// Convenience constructors.
func IC(v int64) *IntConst               { return &IntConst{v} }
func FC(v float64) *FloatConst           { return &FloatConst{v} }
func V(name string) *VarRef              { return &VarRef{name} }
func B(op string, l, r Expr) *Bin        { return &Bin{op, l, r} }
func Ld(arr string, idx Expr) *Load      { return &Load{Array: arr, Idx: idx} }
func Call(f string, args ...Expr) *CallE { return &CallE{f, args} }

// Stmt is a statement in the IR.
type Stmt interface {
	stmtNode()
}

// Loop is a counted for-loop over [Lo, Hi) with unit step.
type Loop struct {
	Index string
	Lo    Expr
	Hi    Expr
	Body  []Stmt
	// Parallel marks the loop for parallel execution ("parallelize").
	Parallel bool
	// VectorLanes > 0 marks the loop for SSE-style vectorization
	// ("vectorize"); the emitter strip-mines it into vector ops.
	VectorLanes int
}

// DeclStmt declares a scalar: CType Name = Init.
type DeclStmt struct {
	CType string
	Name  string
	Init  Expr // may be nil
}

// AssignStmt stores into a scalar variable or array element.
type AssignStmt struct {
	LHS Expr // VarRef or Load
	RHS Expr
}

// Raw is a raw C statement (used by the code generator for pieces
// outside the loop-transformation fragment).
type Raw struct{ Code string }

func (*Loop) stmtNode()       {}
func (*DeclStmt) stmtNode()   {}
func (*AssignStmt) stmtNode() {}
func (*Raw) stmtNode()        {}

// --- expression utilities ---

// SubstExpr replaces every reference to name with repl.
func SubstExpr(e Expr, name string, repl Expr) Expr {
	switch e := e.(type) {
	case *VarRef:
		if e.Name == name {
			return repl
		}
		return e
	case *Bin:
		return &Bin{e.Op, SubstExpr(e.L, name, repl), SubstExpr(e.R, name, repl)}
	case *Un:
		return &Un{e.Op, SubstExpr(e.X, name, repl)}
	case *Load:
		checks := make([]Check, len(e.Checks))
		for i, c := range e.Checks {
			checks[i] = Check{SubstExpr(c.Idx, name, repl), SubstExpr(c.N, name, repl), c.Dim}
		}
		return &Load{e.Array, SubstExpr(e.Idx, name, repl), checks}
	case *CallE:
		args := make([]Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = SubstExpr(a, name, repl)
		}
		return &CallE{e.Fun, args}
	case *Cond:
		return &Cond{SubstExpr(e.C, name, repl), SubstExpr(e.T, name, repl), SubstExpr(e.F, name, repl)}
	default:
		return e
	}
}

// Mentions reports whether e reads the variable name.
func Mentions(e Expr, name string) bool {
	switch e := e.(type) {
	case *VarRef:
		return e.Name == name
	case *Bin:
		return Mentions(e.L, name) || Mentions(e.R, name)
	case *Un:
		return Mentions(e.X, name)
	case *Load:
		for _, c := range e.Checks {
			if Mentions(c.Idx, name) || Mentions(c.N, name) {
				return true
			}
		}
		return Mentions(e.Idx, name)
	case *CallE:
		for _, a := range e.Args {
			if Mentions(a, name) {
				return true
			}
		}
	case *Cond:
		return Mentions(e.C, name) || Mentions(e.T, name) || Mentions(e.F, name)
	}
	return false
}

// usedIn reports whether the statements bind or read name.
func usedIn(body []Stmt, name string) bool {
	for _, s := range body {
		switch s := s.(type) {
		case *Loop:
			if s.Index == name || Mentions(s.Lo, name) || Mentions(s.Hi, name) || usedIn(s.Body, name) {
				return true
			}
		case *DeclStmt:
			if s.Name == name || s.Init != nil && Mentions(s.Init, name) {
				return true
			}
		case *AssignStmt:
			if Mentions(s.LHS, name) || Mentions(s.RHS, name) {
				return true
			}
		}
	}
	return false
}

// SubstStmt replaces references to name with repl throughout a
// statement tree. Loops that rebind name shadow the substitution, and
// a loop whose index repl reads is renamed first, so that it does not
// capture repl's variable (a nested fold's loop named by its own
// clause like one the enclosing nest's clauses made).
func SubstStmt(s Stmt, name string, repl Expr) Stmt {
	switch s := s.(type) {
	case *Loop:
		out := &Loop{Index: s.Index, Lo: SubstExpr(s.Lo, name, repl), Hi: SubstExpr(s.Hi, name, repl),
			Parallel: s.Parallel, VectorLanes: s.VectorLanes}
		if s.Index == name {
			out.Body = s.Body // shadowed
			return out
		}
		body := s.Body
		if Mentions(repl, s.Index) && usedIn(body, name) {
			fresh := s.Index + "_r"
			for Mentions(repl, fresh) || usedIn(body, fresh) {
				fresh += "_r"
			}
			out.Index = fresh
			body = SubstBlock(body, s.Index, V(fresh))
		}
		out.Body = SubstBlock(body, name, repl)
		return out
	case *DeclStmt:
		var init Expr
		if s.Init != nil {
			init = SubstExpr(s.Init, name, repl)
		}
		return &DeclStmt{s.CType, s.Name, init}
	case *AssignStmt:
		return &AssignStmt{SubstExpr(s.LHS, name, repl), SubstExpr(s.RHS, name, repl)}
	}
	panic(fmt.Sprintf("loopir: cannot substitute %s into %T", name, s))
}

// SubstBlock maps SubstStmt over a statement list.
func SubstBlock(body []Stmt, name string, repl Expr) []Stmt {
	out := make([]Stmt, len(body))
	for i, s := range body {
		out[i] = SubstStmt(s, name, repl)
	}
	return out
}

// findLoop locates the loop with the given index anywhere in the nest,
// returning the containing slice and position.
func findLoop(body []Stmt, index string) (container []Stmt, pos int, loop *Loop) {
	for i, s := range body {
		l, ok := s.(*Loop)
		if !ok {
			continue
		}
		if l.Index == index {
			return body, i, l
		}
		if c, p, found := findLoop(l.Body, index); found != nil {
			return c, p, found
		}
	}
	return nil, 0, nil
}

// FindLoop returns the loop with the given index, or nil.
func FindLoop(body []Stmt, index string) *Loop {
	_, _, l := findLoop(body, index)
	return l
}

// Print renders a statement list as indented C-like source; used by
// golden tests and cmd/cmc -emit loopir.
func Print(body []Stmt) string {
	var b strings.Builder
	printBlock(&b, body, 0)
	return b.String()
}

func printBlock(b *strings.Builder, body []Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range body {
		switch s := s.(type) {
		case *Loop:
			if s.Parallel {
				fmt.Fprintf(b, "%s#pragma omp parallel for\n", ind)
			}
			if s.VectorLanes > 0 {
				fmt.Fprintf(b, "%s/* vectorized x%d */\n", ind, s.VectorLanes)
			}
			fmt.Fprintf(b, "%sfor (int %s = %s; %s < %s; %s++) {\n",
				ind, s.Index, s.Lo, s.Index, s.Hi, s.Index)
			printBlock(b, s.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", ind)
		case *DeclStmt:
			if s.Init != nil {
				fmt.Fprintf(b, "%s%s %s = %s;\n", ind, s.CType, s.Name, s.Init)
			} else {
				fmt.Fprintf(b, "%s%s %s;\n", ind, s.CType, s.Name)
			}
		case *AssignStmt:
			fmt.Fprintf(b, "%s%s = %s;\n", ind, s.LHS, s.RHS)
		case *Raw:
			fmt.Fprintf(b, "%s%s\n", ind, s.Code)
		}
	}
}
