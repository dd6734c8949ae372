// Nest emission: renders transformed loop IR as C, hoists the
// with-loop's prelude declarations above the nest (Fig 11's "floated
// above the outermost for loop"), lifts parallel outer loops into
// worker functions dispatched on the fork-join pool in pthread mode
// (§III-C), emits OpenMP pragmas in omp mode, and expands vectorized
// loops into SSE intrinsics (Fig 11) via vector.go.
package cgen

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/loopir"
)

// emitNest writes the hoisted prelude, the (possibly lifted) nest and
// then rest, the remainder nests of its splits, into the function body.
// In pthread mode a parallel outermost loop over a body sem found
// scalar is lifted onto the pool; any other nest runs where it stands.
func (f *fnEmitter) emitNest(w *wlState, nest, rest []loopir.Stmt) {
	f.b.raw(w.hoisted.String())
	if f.g.opts.Par == ParPthread && f.g.info.ScalarBodies[w.wl] && len(nest) == 1 {
		if outer, ok := nest[0].(*loopir.Loop); ok && outer.Parallel {
			f.liftParallel(w, outer)
			nest = nil
		}
	}
	body := &indentWriter{indent: f.b.indent}
	emitC(f.g, body, append(nest, rest...))
	f.b.b.WriteString(body.String())
}

// liftParallel emits the nest's outer loop as a pool worker function:
// captured free variables travel in an args struct, each worker runs a
// block-distributed chunk of the outer iteration space, and the call
// site releases the workers and waits in the stop barrier.
func (f *fnEmitter) liftParallel(w *wlState, outer *loopir.Loop) {
	// Resolve capture types; globals are file-scope and need no capture.
	type capture struct{ name, ctype string }
	var caps []capture
	for _, name := range freeVars([]loopir.Stmt{outer}) {
		if ct, ok := w.varTypes[name]; ok {
			caps = append(caps, capture{name, ct})
			continue
		}
		if ty := f.localType(name); ty != nil {
			caps = append(caps, capture{name, strings.TrimRight(f.g.cType(ty), " ") + " "})
			continue
		}
		if user, isUser := strings.CutPrefix(name, "u_"); !isUser || f.g.info.GlobalTypes[user] == nil {
			panic(bug("cannot determine capture type of %q", name))
		}
	}

	f.g.liftN++
	id := f.g.liftN
	var lf strings.Builder
	fmt.Fprintf(&lf, "/* with-loop %d lifted for the fork-join pool (§III-C) */\n", id)
	fmt.Fprintf(&lf, "typedef struct {\n")
	for _, c := range caps {
		fmt.Fprintf(&lf, "    %s%s;\n", padType(strings.TrimSpace(c.ctype)), c.name)
	}
	fmt.Fprintf(&lf, "    long _plo, _phi;\n")
	fmt.Fprintf(&lf, "} _wlargs%d;\n", id)
	fmt.Fprintf(&lf, "static void _wlwork%d(void *_p, int _w, int _nw) {\n", id)
	fmt.Fprintf(&lf, "    _wlargs%d *_a = (_wlargs%d *)_p;\n", id, id)
	for _, c := range caps {
		fmt.Fprintf(&lf, "    %s%s = _a->%s;\n", padType(strings.TrimSpace(c.ctype)), c.name, c.name)
	}
	fmt.Fprintf(&lf, "    long _chunk = ((_a->_phi - _a->_plo) + _nw - 1) / _nw;\n")
	fmt.Fprintf(&lf, "    long _lo = _a->_plo + (long)_w * _chunk;\n")
	fmt.Fprintf(&lf, "    long _hi = _lo + _chunk;\n")
	fmt.Fprintf(&lf, "    if (_hi > _a->_phi) _hi = _a->_phi;\n")
	// Worker's own copy of the outer loop over its chunk.
	workerLoop := &loopir.Loop{Index: outer.Index, Lo: loopir.V("_lo"), Hi: loopir.V("_hi"), Body: outer.Body}
	body := &indentWriter{indent: 1}
	emitC(f.g, body, []loopir.Stmt{workerLoop})
	lf.WriteString(body.String())
	fmt.Fprintf(&lf, "}\n\n")
	f.g.lifted.WriteString(lf.String())

	args := f.g.fresh("args")
	var inits []string
	for _, c := range caps {
		inits = append(inits, fmt.Sprintf(".%s = %s", c.name, c.name))
	}
	inits = append(inits,
		fmt.Sprintf("._plo = %s", exprC(outer.Lo)),
		fmt.Sprintf("._phi = %s", exprC(outer.Hi)))
	f.b.line("_wlargs%d %s = {%s};", id, args, strings.Join(inits, ", "))
	f.b.line("cm_pool_run(_wlwork%d, &%s); /* release workers; wait in the stop barrier */", id, args)
}

func exprC(e loopir.Expr) string { return e.String() }

// freeVars collects variable and array names referenced but not bound
// inside the statement list, a nest over a scalar body.
func freeVars(body []loopir.Stmt) []string {
	used := map[string]bool{}
	bound := map[string]bool{}
	var walkExpr func(e loopir.Expr)
	walkExpr = func(e loopir.Expr) {
		switch e := e.(type) {
		case *loopir.VarRef:
			if !bound[e.Name] {
				used[e.Name] = true
			}
		case *loopir.Bin:
			walkExpr(e.L)
			walkExpr(e.R)
		case *loopir.Un:
			walkExpr(e.X)
		case *loopir.Load:
			// m->f[cm_off(m, ...)], the ablation's load, reads m
			if arr, _, _ := strings.Cut(e.Array, "->"); !bound[arr] {
				used[arr] = true
			}
			walkExpr(e.Idx)
			for _, c := range e.Checks {
				walkExpr(c.Idx)
				walkExpr(c.N)
			}
		case *loopir.CallE:
			for _, a := range e.Args {
				walkExpr(a)
			}
		case *loopir.Cond:
			walkExpr(e.C)
			walkExpr(e.T)
			walkExpr(e.F)
		}
	}
	var walk func(ss []loopir.Stmt)
	walk = func(ss []loopir.Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *loopir.Loop:
				walkExpr(s.Lo)
				walkExpr(s.Hi)
				was := bound[s.Index]
				bound[s.Index] = true
				walk(s.Body)
				bound[s.Index] = was
			case *loopir.DeclStmt:
				if s.Init != nil {
					walkExpr(s.Init)
				}
				bound[s.Name] = true
			case *loopir.AssignStmt:
				walkExpr(s.LHS)
				walkExpr(s.RHS)
			default:
				panic(bug("%T in a nest over a scalar body", s))
			}
		}
	}
	walk(body)
	var out []string
	for n := range used {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// emitC renders loop IR as C. Vectorized loops expand to SSE
// intrinsics; parallel loops get an OpenMP pragma in omp mode (in
// pthread mode emitNest lifted the one it runs on the pool).
func emitC(g *generator, b *indentWriter, body []loopir.Stmt) {
	for _, s := range body {
		switch s := s.(type) {
		case *loopir.Loop:
			if s.VectorLanes > 0 {
				emitVectorLoop(b, s)
				continue
			}
			if s.Parallel && g.opts.Par == ParOMP {
				b.line("#pragma omp parallel for")
			}
			b.line("for (long %s = %s; %s < %s; %s++) {", s.Index, s.Lo, s.Index, s.Hi, s.Index)
			b.indent++
			emitC(g, b, s.Body)
			b.indent--
			b.line("}")
		case *loopir.DeclStmt:
			if s.Init != nil {
				b.line("%s%s = %s;", padType(s.CType), s.Name, s.Init)
			} else {
				b.line("%s%s;", padType(s.CType), s.Name)
			}
		case *loopir.AssignStmt:
			b.line("%s = %s;", s.LHS, s.RHS)
		case *loopir.Raw:
			b.raw(s.Code)
		}
	}
}
