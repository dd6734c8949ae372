// Interprocedural effect and alias analysis — vet v2's foundation.
//
// Every function gets an effect summary: which globals it reads or
// writes, which of its reference-like parameters (matrices and
// refcounted cells — scalars pass by value and cannot carry effects
// across a call) it reads or writes through, whether it performs I/O,
// and which parameters or globals its return value may alias.
// Summaries are computed bottom-up over the call graph with a whole-
// program fixpoint, so mutual recursion converges (all sets only ever
// grow) and an unknown callee degrades to a conservative havoc.
//
// Aliasing inside a function body is tracked with small alias sets:
// every reference-like expression value is described by the parameter
// bits, global names and local allocation atoms it may alias. Ident-
// to-ident assignment unifies, kernels/slices/init/genarray allocate
// fresh atoms, calls map through the callee's return-alias summary,
// and rcset(p, v) folds v's aliases into p (values escape into heap
// cells). The same walker drives summary computation, the
// determinacy-race scan in race.go via the access callback, and the
// frame-local scan in framelocal.go via the escape and returned
// callbacks.
package vet

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/types"
)

// aset is a may-alias set: which caller-visible atoms a value may
// reference. The zero value is the empty set (a fresh, unshared
// value). unknown poisons the set: it may alias anything.
type aset struct {
	params  uint64          // bitmask over the function's ref-like params
	globals map[string]bool // global variables
	atoms   map[int]bool    // function-local allocation sites
	unknown bool
}

func (s aset) empty() bool {
	return !s.unknown && s.params == 0 && len(s.globals) == 0 && len(s.atoms) == 0
}

func (s aset) clone() aset {
	out := aset{params: s.params, unknown: s.unknown}
	if len(s.globals) > 0 {
		out.globals = make(map[string]bool, len(s.globals))
		for k := range s.globals {
			out.globals[k] = true
		}
	}
	if len(s.atoms) > 0 {
		out.atoms = make(map[int]bool, len(s.atoms))
		for k := range s.atoms {
			out.atoms[k] = true
		}
	}
	return out
}

// union folds o into s, reporting whether s changed.
func (s *aset) union(o aset) bool {
	changed := false
	if o.unknown && !s.unknown {
		s.unknown = true
		changed = true
	}
	if o.params&^s.params != 0 {
		s.params |= o.params
		changed = true
	}
	for k := range o.globals {
		if !s.globals[k] {
			if s.globals == nil {
				s.globals = map[string]bool{}
			}
			s.globals[k] = true
			changed = true
		}
	}
	for k := range o.atoms {
		if !s.atoms[k] {
			if s.atoms == nil {
				s.atoms = map[int]bool{}
			}
			s.atoms[k] = true
			changed = true
		}
	}
	return changed
}

// overlapDesc reports whether two alias sets can refer to the same
// storage, and a human-readable name for one overlapping atom (used
// both as the diagnostic text and the dedup key).
func (s aset) overlapDesc(o aset, w *walker) (string, bool) {
	if s.unknown && !o.empty() || o.unknown && !s.empty() {
		return "shared state", true
	}
	if m := s.params & o.params; m != 0 {
		for bit := 0; bit < 64; bit++ {
			if m&(1<<bit) != 0 {
				return fmt.Sprintf("parameter %q", w.paramName[bit]), true
			}
		}
	}
	var names []string
	for g := range s.globals {
		if o.globals[g] {
			names = append(names, fmt.Sprintf("global %q", g))
		}
	}
	for a := range s.atoms {
		if o.atoms[a] {
			names = append(names, fmt.Sprintf("%q", w.atoms[a].name))
		}
	}
	if len(names) == 0 {
		return "", false
	}
	sort.Strings(names)
	return names[0], true
}

// summary is one function's interprocedural effect summary.
type summary struct {
	gRead, gWrite map[string]bool
	pRead, pWrite uint64 // bitmasks over ref-like params
	io            bool   // print / readMatrix / writeMatrix
	havoc         bool   // calls something the analysis cannot see
	retParams     uint64 // return value may alias these params
	retGlobals    map[string]bool
	pRetain       uint64 // params that may outlive the call (see escape)
}

func newSummary() *summary {
	return &summary{
		gRead: map[string]bool{}, gWrite: map[string]bool{},
		retGlobals: map[string]bool{},
	}
}

// pure reports whether a call to the function has no observable effect
// beyond its return value.
func (s *summary) pure() bool {
	return !s.io && !s.havoc && s.pWrite == 0 && len(s.gWrite) == 0
}

func setUnion(dst, src map[string]bool) bool {
	changed := false
	for k := range src {
		if !dst[k] {
			dst[k] = true
			changed = true
		}
	}
	return changed
}

// merge folds o into s, reporting whether s changed (fixpoint test).
func (s *summary) merge(o *summary) bool {
	changed := setUnion(s.gRead, o.gRead)
	changed = setUnion(s.gWrite, o.gWrite) || changed
	changed = setUnion(s.retGlobals, o.retGlobals) || changed
	if o.pRead&^s.pRead != 0 {
		s.pRead |= o.pRead
		changed = true
	}
	if o.pWrite&^s.pWrite != 0 {
		s.pWrite |= o.pWrite
		changed = true
	}
	if o.retParams&^s.retParams != 0 {
		s.retParams |= o.retParams
		changed = true
	}
	if o.pRetain&^s.pRetain != 0 {
		s.pRetain |= o.pRetain
		changed = true
	}
	if o.io && !s.io {
		s.io = true
		changed = true
	}
	if o.havoc && !s.havoc {
		s.havoc = true
		changed = true
	}
	return changed
}

// refLike reports whether a type is passed by reference (shared
// storage observable across a spawn).
func refLike(t *types.Type) bool {
	return t != nil && (t.Kind == types.Matrix || t.Kind == types.RcPtr || t.Kind == types.AnyMatrix)
}

// scalar reports whether a type is an int, float or bool.
func scalar(t *types.Type) bool {
	return t != nil && (t.Kind == types.Int || t.Kind == types.Float || t.Kind == types.Bool)
}

// usesSpawn reports whether any function body contains a SpawnStmt.
func usesSpawn(prog *ast.Program) bool {
	return slices.ContainsFunc(prog.Decls, func(d ast.Decl) bool {
		fd, ok := d.(*ast.FuncDecl)
		return ok && spawns(fd.Body)
	})
}

// spawns reports whether s contains a SpawnStmt.
func spawns(s ast.Stmt) bool {
	return anyStmt(s, func(s ast.Stmt) bool {
		_, ok := s.(*ast.SpawnStmt)
		return ok
	})
}

// computeSummaries runs the whole-program effect fixpoint. The result
// maps function names to their stable summaries.
func computeSummaries(prog *ast.Program, info *sem.Info) map[string]*summary {
	sums := map[string]*summary{}
	var fns []*ast.FuncDecl
	for _, d := range prog.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			fns = append(fns, fd)
			sums[fd.Name] = newSummary()
		}
	}
	// Sets grow monotonically, so iterating until nothing changes
	// terminates; the cap is a safety net, after which everything
	// left unstable degrades to havoc.
	for iter := 0; iter < 2*len(fns)+4; iter++ {
		changed := false
		for _, fd := range fns {
			w := newWalker(prog, info, sums)
			got := w.summarize(fd)
			if sums[fd.Name].merge(got) {
				changed = true
			}
		}
		if !changed {
			return sums
		}
	}
	for _, s := range sums {
		s.havoc = true
	}
	return sums
}

// walker evaluates a function body in the alias domain. One walker
// analyzes one function; the access callback observes every atomic
// read/write so summary computation and race scanning share the
// traversal.
type walker struct {
	prog      *ast.Program
	info      *sem.Info
	sums      map[string]*summary
	params    map[string]int // ref-like param name -> bit
	paramName []string       // bit -> name
	env       map[string]aset
	scopes    []map[string]*aset // saved bindings per block (nil = unbound)
	nextAtom  int
	atoms     []atomInfo       // by atom id, in the race scan
	nodeAtoms map[ast.Node]int // atomOf's, by the node that allocates
	cur       *summary         // summary being built (nil in race mode)
	race      *raceScan
	locals    *localScan // the frame-local scan's state (nil otherwise)
	passes    int        // loop bodies walked, a pass each
}

// atomInfo is what an allocation atom of the race scan stands for: the
// node that made it and a name for diagnostics.
type atomInfo struct {
	node ast.Node
	name string
}

func newWalker(prog *ast.Program, info *sem.Info, sums map[string]*summary) *walker {
	return &walker{
		prog: prog, info: info, sums: sums,
		params: map[string]int{},
		env:    map[string]aset{},
	}
}

func (w *walker) bindParams(fd *ast.FuncDecl) {
	for _, p := range fd.Params {
		t, err := types.FromAST(p.Type)
		if err != nil {
			continue
		}
		if refLike(t) && len(w.paramName) < 64 {
			bit := len(w.paramName)
			w.params[p.Name] = bit
			w.paramName = append(w.paramName, p.Name)
			w.env[p.Name] = aset{params: 1 << bit}
		}
	}
}

func (w *walker) summarize(fd *ast.FuncDecl) *summary {
	w.cur = newSummary()
	w.bindParams(fd)
	w.stmt(fd.Body)
	return w.cur
}

// atomOf is the atom of what the node n allocates: outside the race scan
// one atom a node, the allocation-site abstraction; the race scan mints
// one each time, telling the matrices of two iterations apart, and a
// loop's passes compare their environments by the nodes their atoms were
// made at (sameSet), so that they reach their fixpoint either way.
func (w *walker) atomOf(n ast.Node, name string) aset {
	if w.race != nil {
		return w.atom(n, name)
	}
	if id, ok := w.nodeAtoms[n]; ok {
		return aset{atoms: map[int]bool{id: true}}
	}
	if w.nodeAtoms == nil {
		w.nodeAtoms = map[ast.Node]int{}
	}
	w.nodeAtoms[n] = w.nextAtom
	return w.atom(n, name)
}

func (w *walker) atom(n ast.Node, name string) aset {
	id := w.nextAtom
	w.nextAtom++
	if w.race != nil {
		w.atoms = append(w.atoms, atomInfo{node: n, name: name})
	}
	return aset{atoms: map[int]bool{id: true}}
}

// --- access events ---

// access records one atomic read or write of the storage named by s.
func (w *walker) access(n ast.Node, write bool, s aset) {
	if s.empty() {
		return
	}
	if w.cur != nil {
		if write {
			w.cur.pWrite |= s.params
			setUnion(w.cur.gWrite, s.globals)
		} else {
			w.cur.pRead |= s.params
			setUnion(w.cur.gRead, s.globals)
		}
		if s.unknown {
			w.cur.havoc = true
		}
	}
	if w.race != nil {
		w.race.access(n, write, s)
	}
}

// escape records that the storage s names may be held past the frame,
// or by something that does not count its reference: stored in a
// global, an rc cell, a tuple or another variable, spawned, or passed to
// a callee that does one of these with it or returns it (returned has
// the frame's own return).
func (w *walker) escape(s aset) {
	if w.cur != nil {
		w.cur.pRetain |= s.params
	}
	if w.locals != nil {
		for a := range s.atoms {
			w.locals.escaped[a] = true
		}
	}
}

// returned records that the storage s names is returned: for a summary
// a parameter returned may outlive the call as an escaped one does; the
// frame-local scan tells a returned site from an escaped one.
func (w *walker) returned(s aset) {
	if w.cur != nil {
		w.cur.pRetain |= s.params
	}
	if w.locals != nil && len(s.atoms) > 0 {
		if w.locals.returned == nil {
			w.locals.returned = map[int]bool{}
		}
		for a := range s.atoms {
			w.locals.returned[a] = true
		}
	}
}

func (w *walker) ioEvent() {
	if w.cur != nil {
		w.cur.io = true
	}
}

func (w *walker) havocEvent(n ast.Node) {
	if w.cur != nil {
		w.cur.havoc = true
	}
	if w.race != nil {
		w.race.access(n, true, aset{unknown: true})
	}
}

// --- environment scoping ---

func (w *walker) pushScope() { w.scopes = append(w.scopes, map[string]*aset{}) }

func (w *walker) popScope() {
	top := w.scopes[len(w.scopes)-1]
	w.scopes = w.scopes[:len(w.scopes)-1]
	for name, prev := range top {
		if prev == nil {
			delete(w.env, name)
		} else {
			w.env[name] = *prev
		}
	}
}

func (w *walker) bind(name string, s aset) {
	if len(w.scopes) > 0 {
		top := w.scopes[len(w.scopes)-1]
		if _, saved := top[name]; !saved {
			if prev, ok := w.env[name]; ok {
				p := prev
				top[name] = &p
			} else {
				top[name] = nil
			}
		}
	}
	w.env[name] = s
}

func (w *walker) isGlobal(name string) bool {
	if _, local := w.env[name]; local {
		return false
	}
	_, ok := w.info.GlobalTypes[name]
	return ok
}

func (w *walker) snapshotEnv() map[string]aset {
	out := make(map[string]aset, len(w.env))
	for k, v := range w.env {
		out[k] = v.clone()
	}
	return out
}

// joinEnv unions other into the current env (branch join).
func (w *walker) joinEnv(other map[string]aset) {
	for k, v := range other {
		cur, ok := w.env[k]
		if !ok {
			w.env[k] = v
			continue
		}
		cur.union(v)
		w.env[k] = cur
	}
}

// envEqual reports whether two environments bind every name to the same
// set (see sameSet).
func (w *walker) envEqual(a, b map[string]aset) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || !w.sameSet(va, vb) {
			return false
		}
	}
	return true
}

// sameSet reports whether two alias sets name the same storage up to the
// race scan's renaming: the same parameters and globals, and atoms made
// at the same nodes.
func (w *walker) sameSet(a, b aset) bool {
	if a.unknown != b.unknown || a.params != b.params || len(a.globals) != len(b.globals) {
		return false
	}
	for g := range a.globals {
		if !b.globals[g] {
			return false
		}
	}
	return w.atomsWithin(a, b) && w.atomsWithin(b, a)
}

// atomsWithin reports whether every atom of a was made at a node one of
// b's was (outside the race scan, a node has one atom).
func (w *walker) atomsWithin(a, b aset) bool {
	for x := range a.atoms {
		if b.atoms[x] {
			continue
		}
		if w.race == nil || !w.madeAlike(x, b) {
			return false
		}
	}
	return true
}

// madeAlike reports whether the race scan made an atom of b at the node
// it made x at.
func (w *walker) madeAlike(x int, b aset) bool {
	for y := range b.atoms {
		if w.atoms[x].node == w.atoms[y].node {
			return true
		}
	}
	return false
}

// --- statements ---

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.pushScope()
		for _, st := range s.Stmts {
			w.stmt(st)
		}
		w.popScope()

	case *ast.DeclStmt:
		var v aset
		if s.Init != nil {
			v = w.expr(s.Init)
		}
		t, _ := types.FromAST(s.Type)
		if refLike(t) {
			switch {
			case v.empty():
				v = w.fresh(s, s.Name, s.Init)
			case !w.own(s.Init, v, s.Name):
				w.escape(v)
			}
			w.bind(s.Name, v)
		} else {
			if w.own(s.Init, v, "") {
				w.escape(v) // a tuple a call made, kept whole
			}
			w.bind(s.Name, aset{})
		}

	case *ast.AssignStmt:
		rs := w.expr(s.RHS)
		var site ast.Expr
		if len(s.LHS) == 1 || w.own(s.RHS, rs, "") {
			site = s.RHS
		}
		for _, lhs := range s.LHS {
			w.assignTo(lhs, rs, site, len(s.LHS) > 1)
		}

	case *ast.IfStmt:
		w.expr(s.Cond)
		saved := w.snapshotEnv()
		var savedRace *raceScan
		if w.race != nil {
			savedRace = w.race.snapshot()
		}
		w.stmt(s.Then)
		thenEnv := w.env
		var thenRace *raceScan
		if w.race != nil {
			thenRace = w.race
		}
		w.env = saved
		if w.race != nil {
			w.race = savedRace
		}
		w.stmt(s.Else)
		w.joinEnv(thenEnv)
		if w.race != nil {
			w.race.join(thenRace)
		}

	case *ast.WhileStmt:
		w.loop(func() {
			w.expr(s.Cond)
			w.stmt(s.Body)
		})

	case *ast.ForStmt:
		w.pushScope()
		w.stmt(s.Init)
		w.loop(func() {
			w.expr(s.Cond)
			w.stmt(s.Body)
			w.stmt(s.Post)
		})
		w.popScope()

	case *ast.ReturnStmt:
		if s.Value != nil {
			v := w.returnValue(s.Value)
			w.returned(v)
			if w.cur != nil {
				w.cur.retParams |= v.params
				setUnion(w.cur.retGlobals, v.globals)
				if v.unknown {
					w.cur.havoc = true
				}
			}
		}
		// The runtime evaluates the return value, then joins all
		// outstanding spawns (implicit sync at function exit).
		if w.race != nil {
			w.race.sync()
		}

	case *ast.ExprStmt:
		w.expr(s.X)

	case *ast.SpawnStmt:
		w.spawn(s)

	case *ast.SyncStmt:
		if w.race != nil {
			w.race.sync()
		}

	case *ast.BreakStmt, *ast.ContinueStmt:
	}
}

// loop runs a loop body iteratively until the alias environment (and
// active-spawn state) stabilizes, joining with the pre-loop state so
// the zero-iteration path survives. Accesses and spawn checks fire on
// every pass; race.go dedups repeated findings.
func (w *walker) loop(body func()) {
	entry := w.snapshotEnv()
	var entryRace *raceScan
	if w.race != nil {
		entryRace = w.race.snapshot()
	}
	for i := 0; i < 8; i++ {
		w.passes++
		before := w.snapshotEnv()
		var beforeActive []*spawnInfo
		if w.race != nil {
			beforeActive = slices.Clone(w.race.active)
		}
		body()
		w.joinEnv(entry)
		raceStable := true
		if w.race != nil {
			w.race.join(entryRace)
			raceStable = w.race.sameActive(beforeActive)
		}
		if w.envEqual(before, w.env) && raceStable {
			break
		}
	}
}

// assignTo binds rs, the value of site (nil: an element of a tuple), to
// lhs; unpacked says lhs is one element of a destructured tuple.
func (w *walker) assignTo(lhs ast.Expr, rs aset, site ast.Expr, unpacked bool) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if w.race != nil {
			w.race.targetAssigned(l.Name)
		}
		if w.isGlobal(l.Name) {
			// Rebinding a global is a write to shared state, and the
			// global now may alias whatever the RHS aliased.
			w.access(l, true, aset{globals: map[string]bool{l.Name: true}})
			w.escape(rs)
			return
		}
		t := w.info.TypeOf(l)
		if t == nil || t.Kind == types.Invalid {
			// Fall back to the declared local binding type if any.
			if _, ok := w.env[l.Name]; !ok {
				return
			}
		}
		if _, ok := w.env[l.Name]; ok || refLike(t) {
			switch {
			case rs.empty():
				rs = w.fresh(l, l.Name, site)
			case refLike(t) && w.own(site, rs, l.Name):
			case unpacked && scalar(t) && w.own(site, rs, ""):
				rs = aset{} // a scalar element of a call's tuple
			default:
				w.escape(rs)
			}
			w.bind(l.Name, rs)
		}
	case *ast.IndexExpr:
		base := w.expr(l.X)
		for _, a := range l.Args {
			w.idxArgExpr(a)
		}
		w.access(l, true, base)
	default:
		w.expr(lhs)
	}
}

func (w *walker) idxArgExpr(a ast.IndexArg) {
	switch a := a.(type) {
	case *ast.IdxScalar:
		w.expr(a.X)
	case *ast.IdxRange:
		w.expr(a.Lo)
		w.expr(a.Hi)
	}
}

// --- expressions ---

// expr walks an expression, firing access events, and returns the
// alias set of the resulting value (empty for scalars and fresh
// allocations).
func (w *walker) expr(x ast.Expr) aset {
	switch x := x.(type) {
	case nil:
		return aset{}
	case *ast.IntLit, *ast.FloatLit, *ast.BoolLit, *ast.StrLit, *ast.EndExpr:
		return aset{}

	case *ast.Ident:
		if w.race != nil {
			w.race.identRead(x)
		}
		if w.isGlobal(x.Name) {
			w.access(x, false, aset{globals: map[string]bool{x.Name: true}})
			if refLike(w.info.GlobalTypes[x.Name]) {
				return aset{globals: map[string]bool{x.Name: true}}
			}
			return aset{}
		}
		if s, ok := w.env[x.Name]; ok && !s.empty() {
			// Using a reference-like local reads the storage it names.
			w.access(x, false, s)
			return s.clone()
		}
		return aset{}

	case *ast.UnaryExpr:
		w.expr(x.X)
		return aset{}

	case *ast.BinaryExpr:
		w.expr(x.L)
		w.expr(x.R)
		return aset{} // kernel results are freshly allocated

	case *ast.CastExpr:
		w.expr(x.X)
		return aset{}

	case *ast.CallExpr:
		return w.call(x)

	case *ast.IndexExpr:
		w.expr(x.X)
		for _, a := range x.Args {
			w.idxArgExpr(a)
		}
		return aset{} // slices copy (§III-A.3): results are fresh

	case *ast.RangeExpr:
		w.expr(x.Lo)
		w.expr(x.Hi)
		return aset{}

	case *ast.TupleExpr:
		var out aset
		for _, el := range x.Elems {
			out.union(w.expr(el))
		}
		w.escape(out)
		return out

	case *ast.WithLoop:
		for _, b := range x.Lower {
			w.expr(b)
		}
		for _, b := range x.Upper {
			w.expr(b)
		}
		w.pushScope()
		for _, id := range x.Ids {
			w.bind(id, aset{})
		}
		switch op := x.Op.(type) {
		case *ast.GenArrayOp:
			for _, sx := range op.Shape {
				w.expr(sx)
			}
			w.expr(op.Body)
		case *ast.FoldOp:
			w.expr(op.Init)
			w.expr(op.Body)
		}
		w.popScope()
		return aset{}

	case *ast.MatrixMap:
		arg := w.expr(x.Arg)
		for _, d := range x.Dims {
			w.expr(d)
		}
		if sum, ok := w.sums[x.Fun]; ok {
			w.applyCallee(x, sum, []aset{arg})
		} else {
			w.havocEvent(x)
		}
		return aset{}

	case *ast.InitExpr:
		for _, d := range x.Dims {
			w.expr(d)
		}
		return aset{}
	}
	return aset{}
}

func (w *walker) call(x *ast.CallExpr) aset {
	switch x.Fun {
	case "print", "writeMatrix":
		for _, a := range x.Args {
			w.expr(a)
		}
		w.ioEvent()
		return aset{}
	case "readMatrix":
		for _, a := range x.Args {
			w.expr(a)
		}
		w.ioEvent()
		return aset{}
	case "dimSize":
		for _, a := range x.Args {
			w.expr(a)
		}
		return aset{}
	case "rcnew":
		var v aset
		for _, a := range x.Args {
			v.union(w.expr(a))
		}
		// A fresh cell whose content aliases the stored value.
		w.escape(v)
		out := w.atomOf(x, "rcnew cell")
		out.union(v)
		return out
	case "rcget":
		var p aset
		for _, a := range x.Args {
			p.union(w.expr(a))
		}
		w.access(x, false, p)
		// The fetched value may alias anything reachable through the
		// cell, which the cell's own alias set approximates.
		return p
	case "rcset":
		if len(x.Args) != 2 {
			for _, a := range x.Args {
				w.expr(a)
			}
			return aset{}
		}
		p := w.expr(x.Args[0])
		v := w.expr(x.Args[1])
		w.access(x, true, p)
		w.escape(v)
		// The stored value escapes into the cell: fold it into the
		// cell variable's alias set so later accesses through the
		// cell conflict with direct accesses to the value.
		if id, ok := x.Args[0].(*ast.Ident); ok {
			if cur, bound := w.env[id.Name]; bound {
				cur.union(v)
				w.env[id.Name] = cur
			}
		}
		return aset{}
	case "rcrelease":
		var p aset
		for _, a := range x.Args {
			p.union(w.expr(a))
		}
		w.access(x, true, p)
		return aset{}
	}

	args := make([]aset, len(x.Args))
	for k, a := range x.Args {
		args[k] = w.expr(a)
	}
	sum, ok := w.sums[x.Fun]
	if !ok {
		if _, declared := w.info.Funcs[x.Fun]; declared {
			// Known function without a summary (race mode over a
			// partial program): havoc conservatively.
			w.havocEvent(x)
			for _, a := range args {
				w.escape(a)
				if w.locals != nil {
					w.locals.unsureOf(a)
				}
			}
		}
		return w.result(x, aset{})
	}
	ret := w.applyCallee(x, sum, args)
	w.opaqueArgs(x, args)
	return w.result(x, ret)
}

// applyCallee maps a callee summary into the caller's alias frame:
// parameter effects land on the argument alias sets, global effects
// land on the globals, and the return value aliases what the summary
// says it can.
func (w *walker) applyCallee(n ast.Node, sum *summary, args []aset) aset {
	sig := w.calleeSig(n)
	for bit := 0; bit < 64; bit++ {
		m := uint64(1) << bit
		if sum.pRead&m == 0 && sum.pWrite&m == 0 && sum.retParams&m == 0 {
			continue
		}
		a, ok := w.calleeArg(sig, bit, args)
		if !ok {
			continue
		}
		if sum.pRead&m != 0 {
			w.access(n, false, a)
		}
		if sum.pWrite&m != 0 {
			w.access(n, true, a)
		}
		if sum.pRetain&m != 0 {
			w.escape(a)
		}
	}
	for g := range sum.gRead {
		w.access(n, false, aset{globals: map[string]bool{g: true}})
	}
	for g := range sum.gWrite {
		w.access(n, true, aset{globals: map[string]bool{g: true}})
	}
	if sum.io {
		w.ioEvent()
	}
	if sum.havoc {
		w.havocEvent(n)
	}
	var ret aset
	for bit := 0; bit < 64; bit++ {
		if sum.retParams&(1<<bit) != 0 {
			if a, ok := w.calleeArg(sig, bit, args); ok {
				ret.union(a)
			}
		}
	}
	for g := range sum.retGlobals {
		ret.union(aset{globals: map[string]bool{g: true}})
	}
	return ret
}

// calleeSig returns the callee's declaration for a call or matrixMap
// node, so ref-param bits can be mapped back to argument positions.
func (w *walker) calleeSig(n ast.Node) *ast.FuncDecl {
	switch n := n.(type) {
	case *ast.CallExpr:
		if sig, ok := w.info.Funcs[n.Fun]; ok && sig != nil {
			return sig.Decl
		}
	case *ast.MatrixMap:
		if sig, ok := w.info.Funcs[n.Fun]; ok && sig != nil {
			return sig.Decl
		}
	}
	return nil
}

// calleeArg resolves the callee's ref-param bit to the caller-side
// alias set of the corresponding argument.
func (w *walker) calleeArg(decl *ast.FuncDecl, bit int, args []aset) (aset, bool) {
	if decl == nil {
		return aset{}, false
	}
	refIdx := 0
	for k, p := range decl.Params {
		t, err := types.FromAST(p.Type)
		if err != nil || !refLike(t) {
			continue
		}
		if refIdx == bit {
			if k < len(args) {
				return args[k], true
			}
			return aset{}, false
		}
		refIdx++
	}
	return aset{}, false
}

// spawn handles a SpawnStmt: the arguments are evaluated eagerly in
// the caller (so their reads belong to the continuation relative to
// older spawns), then the callee's effects run concurrently until the
// next sync.
func (w *walker) spawn(s *ast.SpawnStmt) {
	call, ok := s.Call.(*ast.CallExpr)
	if !ok {
		w.expr(s.Call)
		return
	}
	args := make([]aset, len(call.Args))
	for k, a := range call.Args {
		args[k] = w.expr(a)
		w.escape(args[k])
	}
	sum := w.sums[call.Fun]
	if w.race != nil {
		w.race.spawned(s, call, sum, args)
	}
	if w.cur != nil {
		// The spawned effects are the function's effects (joined at
		// the implicit sync at the latest).
		if sum != nil {
			w.applyCallee(call, sum, args)
		} else if _, declared := w.info.Funcs[call.Fun]; declared {
			w.havocEvent(call)
		}
	}
	if s.Target == "" {
		return
	}
	var ret aset
	if sum != nil {
		ret = w.applyTargetAlias(call, sum, args)
	}
	if w.isGlobal(s.Target) {
		// The sync-time store rebinds the global. It runs serially in
		// the joining frame, so in race mode it is not a concurrent
		// access — only the summary records it as a global write.
		if w.cur != nil {
			w.cur.gWrite[s.Target] = true
		}
		return
	}
	if _, bound := w.env[s.Target]; bound {
		if ret.empty() {
			ret = w.atomOf(s, s.Target)
		} else {
			w.escape(ret)
		}
		w.bind(s.Target, ret)
	}
}

// applyTargetAlias computes only the return-alias part of a callee
// summary (effects were already applied).
func (w *walker) applyTargetAlias(call *ast.CallExpr, sum *summary, args []aset) aset {
	sig := w.calleeSig(call)
	var ret aset
	for bit := 0; bit < 64; bit++ {
		if sum.retParams&(1<<bit) != 0 {
			if a, ok := w.calleeArg(sig, bit, args); ok {
				ret.union(a)
			}
		}
	}
	for g := range sum.retGlobals {
		ret.union(aset{globals: map[string]bool{g: true}})
	}
	return ret
}
