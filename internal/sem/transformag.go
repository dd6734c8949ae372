package sem

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/attr"
	"repro/internal/types"
)

// loopM is one loop of the nest the C back end builds for a with-loop.
type loopM struct {
	name     string
	gen      string // the generator index the loop derives from
	zero     bool   // it starts at a literal 0
	trip     int64  // its literal trip count, or -1 when only the run knows it
	perfect  bool   // its body is exactly the next loop (unroll copies it)
	par, vec bool   // marked by parallelize / vectorize
}

// nestM is the value of the loopIds and idsOut attributes: the loops,
// outermost first, as the clauses so far have rewritten them (the
// first copy, where unroll copied a loop), and the withLoop tree.
type nestM struct {
	loops []loopM
	wl    *attr.Tree
}

// loop returns the position of the loop a clause names, failing when
// there is none.
func (n nestM) loop(word, name string, fail func(string, ...any)) int {
	k := n.find(name)
	if k < 0 {
		fail("%s: no loop index %q in this with-loop (have %s)", word, name, n.names())
	}
	return k
}

func (n nestM) find(name string) int {
	return slices.IndexFunc(n.loops, func(l loopM) bool { return l.name == name })
}

func (n nestM) names() string {
	names := make([]string, len(n.loops))
	for k, l := range n.loops {
		names[k] = l.name
	}
	return strings.Join(names, ", ")
}

// replace returns the nest with loops [k, k+drop) replaced by ls.
func (n nestM) replace(k, drop int, ls ...loopM) nestM {
	return nestM{slices.Replace(slices.Clone(n.loops), k, k+drop, ls...), n.wl}
}

// bodyM is a with-loop's body as the C back end lowers it to scalar
// code (cgen/lower.go), which it does exactly when bad is nil; Check
// records that verdict as Info.ScalarBodies. With float (vectorize),
// bad is also the first operator, cast, call or fold whose value is
// not a float, index arguments and nested-fold bounds excepted. bound
// holds the names nested-fold bounds read, inner the indices nested
// folds bind.
type bodyM struct {
	bad          ast.Expr
	why          string
	bound, inner []string
}

func scan(wl *attr.Tree, float bool) bodyM {
	var m bodyM
	// ok treats an ill-typed subexpression as lowering: it already
	// has its own diagnostic.
	ok := func(ty *types.Type) bool { return ty.IsScalar() || ty.Kind == types.Invalid }
	var walk func(t *attr.Tree, value, inBound bool)
	// walkKids walks the children of t.
	walkKids := func(t *attr.Tree, value, inBound bool) {
		for i := range t.NumChildren() {
			walk(t.Child(i), value, inBound)
		}
	}
	walk = func(t *attr.Tree, value, inBound bool) {
		if m.bad != nil {
			return
		}
		e, ty := t.Value.(ast.Expr), typOf(t)
		var kids *attr.Tree
		switch e := e.(type) {
		case *ast.IntLit, *ast.FloatLit, *ast.BoolLit, *ast.EndExpr:
		case *ast.Ident:
			if inBound {
				m.bound = append(m.bound, e.Name)
			}
		case *ast.BinaryExpr, *ast.UnaryExpr:
			kids = t
		case *ast.CastExpr:
			if e.To != ast.PrimInt && e.To != ast.PrimFloat {
				m.bad = e
			}
			kids = t
		case *ast.CallExpr:
			if _, id := e.Args[0].(*ast.Ident); e.Fun != "dimSize" || len(e.Args) != 2 ||
				!id || !typOf(t.Child(0).Child(0)).IsMatrix() {
				m.bad = e
			} else {
				walk(t.Child(0).Child(1), false, inBound)
			}
		case *ast.IndexExpr:
			if _, id := e.X.(*ast.Ident); !id || typOf(t.Child(0)).Kind != types.Matrix {
				m.bad = e
			}
			for i := range t.Child(1).NumChildren() {
				a := t.Child(1).Child(i)
				if _, sc := a.Value.(*ast.IdxScalar); !sc {
					m.bad = e
				} else if k := typOf(a.Child(0)).Kind; k != types.Int && k != types.Invalid {
					m.bad = e
				} else {
					walk(a.Child(0), false, inBound)
				}
			}
		case *ast.WithLoop:
			m.inner = append(m.inner, e.Ids...)
			walkKids(t.Child(0), false, true)
			walkKids(t.Child(1), false, true)
			kids = t.Child(2)
		default:
			m.bad = e
		}
		if m.bad == nil && !ok(ty) {
			m.bad = e
		}
		if m.bad != nil {
			m.why = "does not lower to scalar C"
			return
		}
		// An operator, cast, call or fold in value position; a literal,
		// a variable or a load is converted as it is read.
		switch e.(type) {
		case *ast.IntLit, *ast.FloatLit, *ast.BoolLit, *ast.EndExpr, *ast.Ident, *ast.IndexExpr:
		default:
			if value && float && ty.Kind != types.Float && ty.Kind != types.Invalid {
				m.bad, m.why = e, fmt.Sprintf("is %s arithmetic; only float arithmetic vectorizes", ty)
				return
			}
		}
		if kids != nil {
			walkKids(kids, value, inBound)
		}
	}
	walk(wl.Child(2).Child(1), true, false)
	return m
}

// TransformAG builds the transform extension's semantic specification
// (§V). It alone decides whether a clause is legal: loopIds carries a
// model of the loop nest the C back end builds, every clause is
// checked against it at the clause's span and in source names, and
// idsOut is the nest the clause leaves (a rejected clause leaves it
// as it was). loopir and cgen apply what it accepts without checking
// again; the VM and the tree walker ignore clauses, since transforms
// never change values.
func TransformAG() *attr.AGSpec {
	s := newSpec(OwnerTransformSem)
	s.nts(ntClause)
	s.attrs(attr.Inherited, aLoopIds)
	s.attrs(attr.Synthesized, aIdsOut)
	occ, p, syn, inh := s.occ, s.prod, s.syn, s.inh
	occ(aLoopIds, ntWithSuffix, ntClause)
	occ(aIdsOut, ntClause)
	occ(aErrs, ntClause)
	occ(aOwnErrs, ntClause)
	p("transformSuffix", ntWithSuffix, true, ntClause)

	// The matrix extension's withLoop production supplies the initial
	// nest to its WithSuffix child. The transform extension owns the
	// loopIds attribute, so it provides this equation — the
	// composition pattern the MWDA's ownership rule permits.
	inh("withLoop", 3, aLoopIds, func(p *attr.Tree, c int) any {
		w := p.Value.(*ast.WithLoop)
		n := nestM{wl: p}
		for d, id := range w.Ids {
			l := loopM{name: id, gen: id, trip: -1, perfect: true}
			if d < len(w.Lower) && d < len(w.Upper) {
				lo, lok := w.Lower[d].(*ast.IntLit)
				hi, hok := w.Upper[d].(*ast.IntLit)
				l.zero = lok && lo.Value == 0
				if lok && hok {
					l.trip = max(hi.Value-lo.Value, 0)
				}
			}
			n.loops = append(n.loops, l)
		}
		return n
	})
	syn("transformSuffix", aOwnErrs, func(t *attr.Tree) any { return errlist(nil) })
	inh("transformSuffix", -1, aLoopIds, func(p *attr.Tree, c int) any {
		if c == 0 {
			return p.Inh(aLoopIds)
		}
		return p.Child(c - 1).Syn(aIdsOut)
	})

	// clause registers one clause kind: step checks the clause against
	// the nest before it, reporting through fail, and returns the nest
	// after it.
	clause := func(prod string, step func(c ast.Node, n nestM, fail func(string, ...any)) nestM) {
		p(prod, ntClause, false)
		eval := func(t *attr.Tree) (nestM, errlist) {
			c, in := t.Value.(ast.Node), t.Inh(aLoopIds).(nestM)
			var errs errlist
			out := step(c, in, func(f string, a ...any) { errs = append(errs, errf(c, f, a...)) })
			if len(errs) > 0 {
				return in, errs
			}
			return out, nil
		}
		syn(prod, aOwnErrs, func(t *attr.Tree) any { _, errs := eval(t); return errs })
		syn(prod, aIdsOut, func(t *attr.Tree) any { out, _ := eval(t); return out })
	}
	factor := func(e ast.Expr) int64 { return e.(*ast.IntLit).Value }
	// lowers reports a body the C back end does not lower to scalar
	// code, where a split, tile or unroll could not rewrite the index.
	lowers := func(word, name string, n nestM, fail func(string, ...any)) {
		if b := scan(n.wl, false); b.bad != nil {
			fail("%s %s: %s %s", word, name, ast.ExprString(b.bad), b.why)
		}
	}
	// fresh reports a new loop name that is taken: in the generated C a
	// loop named like a variable the body reads would shadow it, and a
	// nested fold's loop named like it would capture the substituted
	// index.
	fresh := func(word string, n nestM, fail func(string, ...any), names ...string) {
		for _, nm := range names {
			if n.find(nm) >= 0 {
				fail("%s name %q collides with an existing loop index", word, nm)
			} else if env(n.wl).Lookup(nm) != nil {
				fail("%s name %q collides with a name in scope", word, nm)
			} else if slices.Contains(scan(n.wl, false).inner, nm) {
				fail("%s name %q collides with a nested fold's index", word, nm)
			}
		}
	}
	zero := func(word string, l loopM, fail func(string, ...any)) {
		if !l.zero {
			fail("%s %s: the loop must start at a literal 0", word, l.name)
		}
	}
	trip := func(l loopM) string {
		if l.trip < 0 {
			return "one known only at run time"
		}
		return fmt.Sprint(l.trip)
	}

	clause("splitClause", func(v ast.Node, n nestM, fail func(string, ...any)) nestM {
		c := v.(*ast.SplitClause)
		k := n.loop("split", c.Index, fail)
		if factor(c.Factor) < 1 {
			fail("split factor must be a positive integer")
		}
		if c.Inner == c.Outer {
			fail("split inner and outer names must differ")
		}
		fresh("split", n, fail, c.Inner, c.Outer)
		if k < 0 {
			return n
		}
		l := n.loops[k]
		zero("split", l, fail)
		lowers("split", c.Index, n, fail)
		return n.replace(k, 1,
			loopM{name: c.Outer, gen: l.gen, zero: true, trip: -1, perfect: true, par: l.par},
			loopM{name: c.Inner, gen: l.gen, zero: true, trip: factor(c.Factor), perfect: l.perfect})
	})

	clause("vectorizeClause", func(v ast.Node, n nestM, fail func(string, ...any)) nestM {
		c := v.(*ast.VectorizeClause)
		k := n.loop("vectorize", c.Index, fail)
		if k < 0 {
			return n
		}
		l, body := n.loops[k], typOf(n.wl.Child(2).Child(1))
		b := scan(n.wl, true)
		switch {
		case n.wl.Child(2).Prod() == "foldOp":
			fail("vectorize %s: a fold does not vectorize; its accumulator is one scalar", c.Index)
		case body.Kind != types.Float && body.Kind != types.Invalid:
			fail("vectorize %s: the genarray's cells are %s; only float cells vectorize", c.Index, body)
		case l.trip < 0 || l.trip%4 != 0:
			fail("vectorize %s: needs a literal trip count divisible by 4, has %s; split it by 4 first", c.Index, trip(l))
		case l.par:
			fail("vectorize %s: the loop is parallelized; a loop is vectorized or parallelized, not both", c.Index)
		case b.bad != nil:
			fail("vectorize %s: %s %s", c.Index, ast.ExprString(b.bad), b.why)
		case slices.Contains(b.bound, l.gen):
			fail("vectorize %s: a nested fold's bound depends on %s", c.Index, l.gen)
		case slices.Contains(b.inner, l.name):
			fail("vectorize %s: a nested fold rebinds %s", c.Index, l.name)
		}
		l.vec = true
		return n.replace(k, 1, l)
	})

	clause("parallelizeClause", func(v ast.Node, n nestM, fail func(string, ...any)) nestM {
		c := v.(*ast.ParallelizeClause)
		k := n.loop("parallelize", c.Index, fail)
		if k < 0 {
			return n
		}
		l := n.loops[k]
		if n.wl.Child(2).Prod() == "foldOp" {
			fail("parallelize %s: a fold runs serially in the generated C (§III-C)", c.Index)
		} else if l.vec {
			fail("parallelize %s: the loop is vectorized; a loop is vectorized or parallelized, not both", c.Index)
		}
		l.par = true
		return n.replace(k, 1, l)
	})

	clause("reorderClause", func(v ast.Node, n nestM, fail func(string, ...any)) nestM {
		c := v.(*ast.ReorderClause)
		ok := len(c.Indices) >= 2
		if !ok {
			fail("reorder needs at least two loop indices")
		}
		lo, hi, run := len(n.loops), -1, []loopM{}
		for i, idx := range c.Indices {
			k := n.loop("reorder", idx, fail)
			if slices.Contains(c.Indices[:i], idx) {
				fail("reorder lists %q twice", idx)
				ok = false
			}
			if k < 0 {
				ok = false
			} else {
				lo, hi, run = min(lo, k), max(hi, k), append(run, n.loops[k])
			}
		}
		if !ok {
			return n
		}
		if hi-lo+1 != len(run) {
			fail("reorder: the loops must be adjacent in one nest, have %s", n.names())
			return n
		}
		for k := lo; k < hi; k++ {
			if !n.loops[k].perfect {
				fail("reorder: the nest is not perfect below %s (unroll copied its body)", n.loops[k].name)
			}
			run[k-lo].perfect = true
		}
		run[len(run)-1].perfect = n.loops[hi].perfect
		return n.replace(lo, len(run), run...)
	})

	clause("tileClause", func(v ast.Node, n nestM, fail func(string, ...any)) nestM {
		c := v.(*ast.TileClause)
		a, b := n.loop("tile", c.IndexA, fail), n.loop("tile", c.IndexB, fail)
		if factor(c.FactorA) < 1 || factor(c.FactorB) < 1 {
			fail("tile factors must be positive integers")
		}
		if c.IndexA == c.IndexB {
			fail("tile requires two distinct loop indices")
		}
		// tile x, y is split x into xin, xout, split y into yin, yout
		// and reorder (xout, yout, xin, yin), as loopir.Tile names them;
		// later clauses name the four new loops.
		fresh("tile", n, fail, c.IndexA+"in", c.IndexA+"out", c.IndexB+"in", c.IndexB+"out")
		if a < 0 || b < 0 || a == b {
			return n
		}
		lx, ly, lo := n.loops[a], n.loops[b], min(a, b)
		zero("tile", lx, fail)
		zero("tile", ly, fail)
		if a-b != 1 && b-a != 1 {
			fail("tile: %s and %s must be adjacent in one nest, have %s", c.IndexA, c.IndexB, n.names())
			return n
		}
		if !n.loops[lo].perfect {
			fail("tile: the nest is not perfect below %s (unroll copied its body)", n.loops[lo].name)
		}
		lowers("tile", c.IndexA, n, fail)
		return n.replace(lo, 2,
			loopM{name: c.IndexA + "out", gen: lx.gen, zero: true, trip: -1, perfect: true, par: lx.par},
			loopM{name: c.IndexB + "out", gen: ly.gen, zero: true, trip: -1, perfect: true, par: ly.par},
			loopM{name: c.IndexA + "in", gen: lx.gen, zero: true, trip: factor(c.FactorA), perfect: true},
			loopM{name: c.IndexB + "in", gen: ly.gen, zero: true, trip: factor(c.FactorB), perfect: n.loops[lo+1].perfect})
	})

	clause("unrollClause", func(v ast.Node, n nestM, fail func(string, ...any)) nestM {
		c := v.(*ast.UnrollClause)
		k, f := n.loop("unroll", c.Index, fail), factor(c.Factor)
		if f < 1 {
			fail("unroll factor must be a positive integer")
		}
		if k < 0 || f < 1 {
			return n
		}
		l := n.loops[k]
		zero("unroll", l, fail)
		if l.trip < 0 || l.trip%f != 0 {
			fail("unroll %s by %d: needs a literal trip count divisible by %d, has %s", c.Index, f, f, trip(l))
		}
		lowers("unroll", c.Index, n, fail)
		l.trip, l.vec = l.trip/f, false
		l.perfect = l.perfect && (f == 1 || k == len(n.loops)-1)
		return n.replace(k, 1, l)
	})

	s.addErrsProjections()
	return s.AGSpec
}
