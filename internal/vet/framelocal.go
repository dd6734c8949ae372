// Frame-local matrices: which allocation sites make a matrix that lives
// and dies in its frame, which make one that leaves it only by return,
// and which calls may hand their callee a destination for it. A site is
// an expression that makes a fresh matrix — an elementwise or matrix
// operation, a genarray, an init, an index selection — bound whole to a
// local variable, by its declaration or a one-variable assignment, or
// returned, whole or as an element of a returned tuple literal.
//
// A site is frame-local when no matrix it makes may escape through the
// alias sets of summary.go: none is returned; stored in a global, an rc
// cell (rcnew, rcset), a tuple or another variable; spawned; or passed to
// a callee whose summary may do one of these with it (pRetain). Every
// reference to such a matrix is then a counted one the frame's own
// execution takes and drops, so once its count is dead nothing can reach
// it, and the VM's frame may keep its storage for the site's next
// execution (matrix.Keep).
//
// A site is return-local when its matrices escape by return and by no
// other route. A destination is a call (no spawn) of a function that may
// return such a matrix whose result, in the caller, stays in the frame
// as a frame-local site's would: bound whole to a local, or every matrix
// element of a destructured tuple bound to one, or consumed as a
// temporary by what retains nothing (an index store, an operator, a
// builtin, a callee that keeps no parameter). The caller's frame keeps
// for a destination as it does for a frame-local site, and hands that
// Keep to the callee, whose return-local sites allocate from it: every
// reference to what they make is then a counted one of the callee's
// frame or of the caller's.
package vet

import (
	"slices"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/types"
)

// LocalKind says what the frame-local scan proved of a site.
type LocalKind int

const (
	// InFrame: a frame-local site.
	InFrame LocalKind = iota + 1
	// ReturnLocal: a site whose matrices leave the frame by return alone.
	ReturnLocal
	// Destination: a call whose matrix result stays in the caller's frame.
	Destination
)

func (k LocalKind) String() string {
	switch k {
	case InFrame:
		return "frame-local"
	case ReturnLocal:
		return "return-local"
	case Destination:
		return "destination"
	}
	return "?"
}

// FrameLocal is one site the scan proved something of: the expression
// that makes the matrix (a call, for a destination), the local it is
// bound to ("" for a returned or temporary value), and what was proved.
type FrameLocal struct {
	At   ast.Expr
	Name string
	Kind LocalKind
}

// localScan is the frame-local scan's state over one function: the site
// and variable each allocation atom was made for, the atoms that escape
// and those returned, the functions a call of which may be a
// destination, and whether a site's atom escaped into a call with no
// summary (which a summary might have kept in).
type localScan struct {
	sites     map[int]FrameLocal
	escaped   map[int]bool
	returned  map[int]bool
	returners map[string]bool
	unsure    bool
}

// unsureOf notes that s escaped into a call with no summary: unsure
// when s holds a site's matrix.
func (l *localScan) unsureOf(s aset) {
	for a := range s.atoms {
		if _, site := l.sites[a]; site {
			l.unsure = true
		}
	}
}

// fresh is the allocation atom of the value bound to the local name at
// n, made by site (nil: a value that is not one site's, such as an
// element of a returned tuple).
func (w *walker) fresh(n ast.Node, name string, site ast.Expr) aset {
	s := w.atomOf(n, name)
	if w.locals != nil && site != nil && allocSite(w.info, site) {
		for a := range s.atoms {
			w.locals.sites[a] = FrameLocal{At: site, Name: name}
		}
	}
	return s
}

// result is the value of the call x, whose callee's summary says it
// aliases ret: in the frame-local scan, when ret is empty and the callee
// may return a matrix one of its sites made, an atom of x's own, whose
// escapes decide whether x is a destination.
func (w *walker) result(x *ast.CallExpr, ret aset) aset {
	if w.locals == nil || !ret.empty() || !w.locals.returners[x.Fun] {
		return ret
	}
	s := w.atomOf(x, x.Fun)
	for a := range s.atoms {
		if _, ok := w.locals.sites[a]; !ok {
			w.locals.sites[a] = FrameLocal{At: x}
		}
	}
	return s
}

// opaqueArgs escapes, in the frame-local scan, the arguments of the call
// x to parameters that are not reference-like: a summary says nothing of
// them, yet a tuple parameter carries a call's result atom in, and the
// callee may keep its matrices where nothing counts them (an rc cell).
func (w *walker) opaqueArgs(x *ast.CallExpr, args []aset) {
	if w.locals == nil {
		return
	}
	decl := w.calleeSig(x)
	if decl == nil {
		return
	}
	for k, p := range decl.Params {
		if t, err := types.FromAST(p.Type); k < len(args) && (err != nil || !refLike(t)) {
			w.escape(args[k])
		}
	}
}

// own reports whether v is the value of the call site and nothing else:
// a result atom of result's, which the variable it is bound to holds
// without escaping. Its site is then named after that variable.
func (w *walker) own(site ast.Expr, v aset, name string) bool {
	if w.locals == nil || site == nil || v.unknown || v.params != 0 || len(v.globals) != 0 || len(v.atoms) != 1 {
		return false
	}
	for a := range v.atoms {
		s, ok := w.locals.sites[a]
		if !ok || s.At != site {
			return false
		}
		if s.Name == "" && name != "" {
			s.Name = name
			w.locals.sites[a] = s
		}
	}
	return true
}

// returnValue walks the value of a return statement: an allocation site
// returned whole, or as an element of a returned tuple literal, is a
// site of its own in the frame-local scan.
func (w *walker) returnValue(x ast.Expr) aset {
	t, ok := x.(*ast.TupleExpr)
	if !ok {
		return w.returnElem(x)
	}
	var out aset
	for _, el := range t.Elems {
		out.union(w.returnElem(el))
	}
	return out
}

func (w *walker) returnElem(x ast.Expr) aset {
	v := w.expr(x)
	if w.locals != nil && allocSite(w.info, x) {
		v = w.fresh(x, "", x) // what a site makes aliases nothing else
	}
	return v
}

// allocSite reports whether e makes a fresh matrix of its own.
func allocSite(info *sem.Info, e ast.Expr) bool {
	if t := info.TypeOf(e); t == nil || t.Kind != types.Matrix {
		return false
	}
	switch e := e.(type) {
	case *ast.BinaryExpr, *ast.InitExpr, *ast.IndexExpr:
		return true
	case *ast.WithLoop:
		_, gen := e.Op.(*ast.GenArrayOp)
		return gen
	}
	return false
}

// hasSite reports whether s binds a site's matrix to a local anywhere:
// a function with none, that calls no returner and that no one calls,
// is not scanned.
func hasSite(info *sem.Info, s ast.Stmt) bool {
	return anyStmt(s, func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.DeclStmt:
			return s.Init != nil && allocSite(info, s.Init)
		case *ast.AssignStmt:
			return len(s.LHS) == 1 && allocSite(info, s.RHS)
		}
		return false
	})
}

// returnsSite reports whether s returns a site's matrix directly, whole
// or as an element of a tuple literal.
func returnsSite(info *sem.Info, s ast.Stmt) bool {
	return anyStmt(s, func(s ast.Stmt) bool {
		r, ok := s.(*ast.ReturnStmt)
		if !ok || r.Value == nil {
			return false
		}
		if t, ok := r.Value.(*ast.TupleExpr); ok {
			return slices.ContainsFunc(t.Elems, func(e ast.Expr) bool { return allocSite(info, e) })
		}
		return allocSite(info, r.Value)
	})
}

// carriesMatrix reports whether a value of type t is or holds a matrix.
func carriesMatrix(t *types.Type) bool {
	if t == nil {
		return false
	}
	if t.Kind == types.Tuple {
		return slices.ContainsFunc(t.Elems, carriesMatrix)
	}
	return t.Kind == types.Matrix
}

// returners lists the functions that may return a matrix one of their
// own sites made: the callees a call may hand a destination (nil when
// there is none).
func returners(prog *ast.Program, info *sem.Info) map[string]bool {
	var out map[string]bool
	for _, d := range prog.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		sig := info.Funcs[fd.Name]
		if sig == nil || sig.Type == nil || !carriesMatrix(sig.Type.Ret) ||
			!hasSite(info, fd.Body) && !returnsSite(info, fd.Body) {
			continue
		}
		if out == nil {
			out = map[string]bool{}
		}
		out[fd.Name] = true
	}
	return out
}

// callsOf notes in called every returner that s calls or maps with
// matrixMap, and reports whether s calls one (not by a spawn, which
// never gets a destination).
func callsOf(s ast.Stmt, rets, called map[string]bool) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SpawnStmt:
			return false
		case *ast.CallExpr:
			if rets[n.Fun] {
				called[n.Fun] = true
				found = true
			}
		case *ast.MatrixMap:
			if rets[n.Fun] {
				called[n.Fun] = true
			}
		}
		return true
	})
	return found
}

// FrameLocals lists what the frame-local scan proves of a checked
// program's sites, in source order: what Facts.FrameLocal, ReturnLocal
// and Destination answer from. Only functions with a site, that call a
// returner, or returners something calls or maps are scanned. The first scan has no
// callee summaries, so every argument of a call to a user function
// escapes; only when a site's matrix is such an argument does it compute
// the summaries and scan again (the effect fixpoint is most of the cost,
// and most sites are read by builtins, folds and indexing alone).
func FrameLocals(prog *ast.Program, info *sem.Info) []FrameLocal {
	if prog == nil || info == nil {
		return nil
	}
	rets := returners(prog, info)
	var scan map[string]bool
	if rets != nil {
		scan = map[string]bool{}
		for _, d := range prog.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && callsOf(fd.Body, rets, scan) {
				scan[fd.Name] = true
			}
		}
	}
	out, unsure := scanLocals(prog, info, rets, scan, map[string]*summary{})
	if unsure {
		out, _ = scanLocals(prog, info, rets, scan, computeSummaries(prog, info))
	}
	slices.SortFunc(out, func(x, y FrameLocal) int {
		a, b := x.At.Span().Start, y.At.Span().Start
		switch {
		case a.Line != b.Line:
			return a.Line - b.Line
		case a.Col != b.Col:
			return a.Col - b.Col
		}
		return int(x.Kind - y.Kind) // a call and the index of its result start alike
	})
	return out
}

// scanLocals walks every function with a site, or in scan, with the
// summaries sums, and returns what it proves of their sites, and whether
// a site escaped into a call sums has no summary for.
func scanLocals(prog *ast.Program, info *sem.Info, rets, scan map[string]bool, sums map[string]*summary) (out []FrameLocal, unsure bool) {
	for _, d := range prog.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || !scan[fd.Name] && !hasSite(info, fd.Body) {
			continue
		}
		w := newWalker(prog, info, sums)
		w.locals = &localScan{sites: map[int]FrameLocal{}, escaped: map[int]bool{}, returners: rets}
		w.bindParams(fd)
		w.stmt(fd.Body)
		unsure = unsure || w.locals.unsure
		type verdict struct {
			FrameLocal
			escaped, returned bool
		}
		byAt := map[ast.Expr]*verdict{}
		for a, s := range w.locals.sites {
			v := byAt[s.At]
			if v == nil {
				v = &verdict{FrameLocal: s}
				byAt[s.At] = v
			}
			v.escaped = v.escaped || w.locals.escaped[a]
			v.returned = v.returned || w.locals.returned[a]
		}
		for _, v := range byAt {
			_, call := v.At.(*ast.CallExpr)
			switch {
			case v.escaped:
				continue
			case call && v.returned:
				continue // a destination of its own would be the caller's to pass down
			case call:
				v.Kind = Destination
			case v.returned:
				v.Kind = ReturnLocal
			default:
				v.Kind = InFrame
			}
			out = append(out, v.FrameLocal)
		}
	}
	return out, unsure
}
