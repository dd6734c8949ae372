// The user-directed transformations of §V. Each rewrites the loop
// nest in place of the targeted loop, exactly as described in the
// paper: split produces the Fig 10 structure (two nested loops with
// j → jout*K + jin substituted), vectorize and parallelize mark loops
// for the Fig 11 emission, reorder permutes a perfect nest, tile is
// the derived transformation (two splits and a reorder), and unroll
// replicates the body.
//
// The rewrites check nothing: the transform extension's semantic
// rules (internal/sem) accept a clause only where its rewrite is
// defined and keeps every cell's value, and these functions apply
// what they accepted.
package loopir

import "fmt"

// Split replaces the loop indexed by index, which starts at 0, with an
// outer loop of name outer and an inner loop of name inner with trip
// count factor, substituting outer*factor + inner for the original
// index (Fig 10). The cells past the last full tile come back as rest:
// the loops that enclose index, then an inner loop over hi % factor
// with outer fixed at hi / factor, over the same substituted body.
// rest is nil when hi is a literal multiple of factor.
func Split(body []Stmt, index string, factor int64, inner, outer string) (nest, rest []Stmt) {
	container, pos, l := findLoop(body, index)
	// j -> jout*factor + jin
	repl := B("+", B("*", V(outer), IC(factor)), V(inner))
	newBody := SubstBlock(l.Body, index, repl)
	if hi, ok := l.Hi.(*IntConst); !ok || hi.V%factor != 0 {
		tail := &Loop{Index: inner, Lo: IC(0), Hi: B("%", l.Hi, IC(factor)),
			Body: SubstBlock(newBody, outer, B("/", l.Hi, IC(factor)))}
		rest = pathTo(body, l, tail)
	}
	innerLoop := &Loop{Index: inner, Lo: IC(0), Hi: IC(factor), Body: newBody}
	outerLoop := &Loop{Index: outer, Lo: IC(0), Hi: B("/", l.Hi, IC(factor)),
		Body: []Stmt{innerLoop}, Parallel: l.Parallel}
	container[pos] = outerLoop
	return body, rest
}

// pathTo copies the loops of body that enclose target, without their
// other statements (the copies an unroll made) or their marks, with
// repl in target's place.
func pathTo(body []Stmt, target *Loop, repl Stmt) []Stmt {
	for _, s := range body {
		l, ok := s.(*Loop)
		if !ok {
			continue
		}
		if l == target {
			return []Stmt{repl}
		}
		if in := pathTo(l.Body, target, repl); in != nil {
			return []Stmt{&Loop{Index: l.Index, Lo: l.Lo, Hi: l.Hi, Body: in}}
		}
	}
	return nil
}

// Vectorize marks the loop for 4-lane single-precision SSE emission
// (Fig 11). Inner loops stay scalar over vector state, as in Fig 11's
// time loop.
func Vectorize(body []Stmt, index string) {
	FindLoop(body, index).VectorLanes = 4
}

// Parallelize marks the loop for parallel execution (OpenMP pragma or
// pthread-pool dispatch in the emitted C).
func Parallelize(body []Stmt, index string) {
	FindLoop(body, index).Parallel = true
}

// Reorder permutes a perfectly nested chain of loops so that their
// indices appear in the given order, outermost first.
func Reorder(body []Stmt, order []string) []Stmt {
	// The outermost loop of the nest is whichever named loop appears
	// first in a pre-order walk (the names form one nest).
	named := map[string]bool{}
	for _, n := range order {
		named[n] = true
	}
	container, pos, cur := findFirstNamed(body, named)
	byName := map[string]*Loop{}
	for {
		byName[cur.Index] = cur
		if len(byName) == len(order) {
			break
		}
		cur = cur.Body[0].(*Loop)
	}
	// Rebuild in the requested order, preserving each loop's own
	// bounds and flags.
	rebuilt := cur.Body
	for k := len(order) - 1; k >= 0; k-- {
		src := byName[order[k]]
		rebuilt = []Stmt{&Loop{Index: src.Index, Lo: src.Lo, Hi: src.Hi, Body: rebuilt,
			Parallel: src.Parallel, VectorLanes: src.VectorLanes}}
	}
	container[pos] = rebuilt[0]
	return body
}

// findFirstNamed returns the first loop (pre-order) whose index is in
// the named set — the outermost loop of the nest being reordered.
func findFirstNamed(body []Stmt, named map[string]bool) ([]Stmt, int, *Loop) {
	for i, s := range body {
		l, ok := s.(*Loop)
		if !ok {
			continue
		}
		if named[l.Index] {
			return body, i, l
		}
		if c, p, found := findFirstNamed(l.Body, named); found != nil {
			return c, p, found
		}
	}
	return nil, 0, nil
}

// Tile is the derived transformation of §V: "a transformation
// specification to tile two nested loops indexed by x and y can be
// specified as two splits and a reorder": split x into xin/xout,
// split y into yin/yout, then reorder to xout, yout, xin, yin. rest
// holds the remainders of both splits.
func Tile(body []Stmt, x string, fx int64, y string, fy int64) (nest, rest []Stmt) {
	xin, xout := x+"in", x+"out"
	yin, yout := y+"in", y+"out"
	b, restX := Split(body, x, fx, xin, xout)
	b, restY := Split(b, y, fy, yin, yout)
	return Reorder(b, []string{xout, yout, xin, yin}), append(restX, restY...)
}

// Unroll replicates the body of a loop that starts at 0 factor times,
// advancing the index; its trip count is a literal multiple of factor.
func Unroll(body []Stmt, index string, factor int64) []Stmt {
	container, pos, l := findLoop(body, index)
	base := B("*", V(index), IC(factor))
	var newBody []Stmt
	for k := int64(0); k < factor; k++ {
		idxExpr := Expr(base)
		if k > 0 {
			idxExpr = B("+", base, IC(k))
		}
		copied := SubstBlock(l.Body, index, idxExpr)
		// Each copy declares its own nested-fold accumulators: the
		// copies share one C block.
		for i, s := range copied {
			if d, ok := s.(*DeclStmt); ok && k > 0 {
				name := fmt.Sprintf("%s_u%d", d.Name, k)
				copied[i] = &DeclStmt{d.CType, name, d.Init}
				copy(copied[i+1:], SubstBlock(copied[i+1:], d.Name, V(name)))
			}
		}
		newBody = append(newBody, copied...)
	}
	container[pos] = &Loop{Index: index, Lo: IC(0), Hi: IC(l.Hi.(*IntConst).V / factor),
		Body: newBody, Parallel: l.Parallel}
	return body
}
