// Package cgen translates type-checked extended-CMINUS programs to
// plain parallel C — the other half of the paper's translator. The
// output is a self-contained C99 translation unit: the reference-
// counted matrix runtime and fork-join pthread pool (runtime_c.go),
// the user's functions with matrix operations either lowered to
// explicit loop nests (with-loops, §III-A.4) or compiled to runtime
// calls with reference-count insertion (§III-B), and a main wrapper
// that takes the thread count as a command line argument (§III-C).
//
// The high-level optimizations of §III-A.4 (genarray/assignment fusion
// and slice elimination in folds) and the user-directed transformations
// of §V (split, vectorize, parallelize, reorder, tile, unroll) are
// applied during with-loop lowering; see withloop.go and vector.go.
package cgen

import (
	"fmt"

	"strings"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/types"
)

// ParMode selects how parallel constructs are emitted.
type ParMode string

// Parallelization modes.
const (
	ParNone    ParMode = "none"    // sequential C (the Fig 3 presentation)
	ParPthread ParMode = "pthread" // fork-join pool dispatch (§III-C)
	ParOMP     ParMode = "omp"     // OpenMP pragmas (Fig 11)
)

// Options configures code generation.
type Options struct {
	Par ParMode
	// Optimize enables the §III-A.4 high-level optimizations:
	// slice elimination (direct strided loads instead of bounds-checked
	// accessor calls) and genarray/assignment fusion (moving the
	// result instead of copying it). Off is the ablation baseline.
	Optimize bool
}

// DefaultOptions is what cmd/cmc uses.
func DefaultOptions() Options { return Options{Par: ParPthread, Optimize: true} }

// Generate translates a checked program to C source. It is total over
// the programs sem accepts: sem decided every condition translation
// depends on, so no emitter below returns an error. A program sem
// should have rejected reaches an internalError, recovered here.
func Generate(prog *ast.Program, info *sem.Info, opts Options) (c string, err error) {
	defer func() {
		if r := recover(); r != nil {
			ie, ok := r.(internalError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("%s", string(ie))
		}
	}()
	g := &generator{info: info, opts: opts, tupleTypes: map[string]string{}, helpers: map[string]string{}}
	return g.run(prog), nil
}

// internalError aborts the translation of a program sem should have
// rejected (recovered in Generate).
type internalError string

func bug(format string, args ...any) internalError {
	return internalError(fmt.Sprintf("cgen: "+format, args...))
}

type generator struct {
	info *sem.Info
	opts Options

	tupleTypes map[string]string // signature -> struct name
	helpers    map[string]string // generated helper functions: tuple conversions, cell drops
	tupleDefs  strings.Builder
	protos     strings.Builder
	lifted     strings.Builder // lifted with-loop worker functions
	funcs      strings.Builder

	tmpN        int
	liftN       int
	usesVectors bool
	usesCilk    bool
}

func (g *generator) fresh(prefix string) string {
	g.tmpN++
	return fmt.Sprintf("_%s%d", prefix, g.tmpN)
}

// cname sanitizes a user identifier for C.
func cname(name string) string { return "u_" + name }

// cType maps a semantic type to its C representation.
func (g *generator) cType(t *types.Type) string {
	switch t.Kind {
	case types.Int:
		return "long"
	case types.Float:
		return "double"
	case types.Bool:
		return "int"
	case types.Void:
		return "void"
	case types.Matrix, types.AnyMatrix:
		return "cm_mat *"
	case types.Tuple:
		return g.tupleType(t) + " "
	case types.RcPtr:
		return "cm_cell *"
	}
	return "/*?*/ long"
}

// tupleType interns a struct definition for a tuple type.
func (g *generator) tupleType(t *types.Type) string {
	sig := t.String()
	if name, ok := g.tupleTypes[sig]; ok {
		return name
	}
	name := fmt.Sprintf("cm_tup%d", len(g.tupleTypes))
	g.tupleTypes[sig] = name
	fmt.Fprintf(&g.tupleDefs, "typedef struct { ")
	for i, e := range t.Elems {
		fmt.Fprintf(&g.tupleDefs, "%s _%d; ", strings.TrimRight(g.cType(e), " "), i)
	}
	fmt.Fprintf(&g.tupleDefs, "} %s; /* %s */\n", name, sig)
	return name
}

// elemEnum is the runtime's element code for a scalar type.
func elemEnum(t *types.Type) string {
	switch t.Kind {
	case types.Float:
		return "CM_FLOAT"
	case types.Int:
		return "CM_INT"
	default:
		return "CM_BOOL"
	}
}

func (g *generator) run(prog *ast.Program) string {
	// Globals first (C file scope), then functions.
	var globals strings.Builder
	for _, d := range prog.Decls {
		if gv, ok := d.(*ast.GlobalVarDecl); ok {
			ty := types.MustFrom(gv.Type)
			fmt.Fprintf(&globals, "static %s%s;\n", padType(g.cType(ty)), cname(gv.Name))
		}
	}
	// Prototypes so call order does not matter.
	for _, d := range prog.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		sig := g.info.Funcs[fn.Name]
		fmt.Fprintf(&g.protos, "static %s%s(%s);\n",
			padType(g.cType(sig.Type.Ret)), cname(fn.Name), g.paramList(fn, sig))
	}
	// Function bodies.
	for _, d := range prog.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		g.emitFunc(fn)
	}
	// Global initializers + main wrapper.
	var init strings.Builder
	fmt.Fprintf(&init, "int main(int argc, char **argv) {\n")
	fmt.Fprintf(&init, "    int threads = 1;\n")
	fmt.Fprintf(&init, "    for (int a = 1; a < argc; a++)\n")
	fmt.Fprintf(&init, "        if (argv[a] && argv[a][0] == '-' && argv[a][1] == 't' && a + 1 < argc)\n")
	fmt.Fprintf(&init, "            threads = atoi(argv[a + 1]);\n")
	if g.opts.Par == ParPthread {
		fmt.Fprintf(&init, "    if (threads > 1) cm_pool_init(threads); /* spawn-once fork-join pool (§III-C) */\n")
	}
	ge := g.newFnEmitter(nil)
	ge.b.indent = 1
	for _, d := range prog.Decls {
		gv, ok := d.(*ast.GlobalVarDecl)
		if !ok {
			continue
		}
		ty := types.MustFrom(gv.Type)
		if gv.Init == nil {
			continue
		}
		ge.assignVar(cname(gv.Name), ty, ge.expr(gv.Init), g.info.TypeOf(gv.Init))
		ge.releaseTemps()
	}
	init.WriteString(ge.b.String())
	fmt.Fprintf(&init, "    long code = %s();\n", cname("main"))
	if g.opts.Par == ParPthread {
		fmt.Fprintf(&init, "    cm_pool_shutdown();\n")
	}
	fmt.Fprintf(&init, "    return (int)code;\n}\n")

	var out strings.Builder
	out.WriteString("/* Generated by cmc, the extensible CMINUS translator. */\n")
	if g.usesVectors {
		out.WriteString("#include <emmintrin.h>\n")
	}
	out.WriteString(cRuntime)
	out.WriteString(cRuntimeExtras)
	if g.usesCilk {
		out.WriteString(cilkRuntime)
	}
	out.WriteString("\n/* ---- tuple types ---- */\n")
	out.WriteString(g.tupleDefs.String())
	out.WriteString("\n/* ---- globals ---- */\n")
	out.WriteString(globals.String())
	out.WriteString("\n/* ---- prototypes ---- */\n")
	out.WriteString(g.protos.String())
	out.WriteString("\n/* ---- lifted parallel workers ---- */\n")
	out.WriteString(g.lifted.String())
	out.WriteString("\n/* ---- translated functions ---- */\n")
	out.WriteString(g.funcs.String())
	out.WriteString("\n")
	out.WriteString(init.String())
	return out.String()
}

func padType(t string) string {
	if strings.HasSuffix(t, "*") || strings.HasSuffix(t, " ") {
		return t
	}
	return t + " "
}

func (g *generator) paramList(fn *ast.FuncDecl, sig *sem.FuncSig) string {
	if len(fn.Params) == 0 {
		return "void"
	}
	parts := make([]string, len(fn.Params))
	for i, p := range fn.Params {
		parts[i] = padType(g.cType(sig.Type.Params[i])) + cname(p.Name)
	}
	return strings.Join(parts, ", ")
}

// indentWriter accumulates indented C lines.
type indentWriter struct {
	b      strings.Builder
	indent int
}

func (w *indentWriter) line(format string, args ...any) {
	w.b.WriteString(strings.Repeat("    ", w.indent))
	fmt.Fprintf(&w.b, format, args...)
	w.b.WriteByte('\n')
}

func (w *indentWriter) raw(s string) {
	for _, l := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		w.b.WriteString(strings.Repeat("    ", w.indent))
		w.b.WriteString(l)
		w.b.WriteByte('\n')
	}
}

func (w *indentWriter) String() string { return w.b.String() }

// fnEmitter emits one function (or the global-init pseudo function).
type fnEmitter struct {
	g    *generator
	b    *indentWriter
	fn   *ast.FuncDecl
	vars map[string]scopedVar // user name -> its binding in scope
	// temps holds the owned references of the current statement's
	// temporaries, released after it — the translator's §III-B RC
	// insertion.
	temps []scopedVar
	loops []loopExit
	cilk  bool // this function contains spawn/sync
	// scopes tracks the refcounted locals of each open scope, for
	// scope-exit release, and the bindings its declarations shadow.
	scopes []scope
	endCtx []string // C expressions for 'end' per index dimension
	wlN    int      // with-loops emitted, for per-nest hoisted names
}

type scope struct {
	owned    []scopedVar
	shadowed map[string]scopedVar // name -> the binding it had before the scope, if any
}

// scopedVar is a variable's or a temporary's C name and type.
type scopedVar struct {
	cname string
	ty    *types.Type
}

// loopExit is what break and continue need of their loop: the label
// continue jumps to ("" for a plain continue) and the number of scopes
// open outside the loop's body, whose locals the jump keeps.
type loopExit struct {
	cont  string
	depth int
}

func (g *generator) newFnEmitter(fn *ast.FuncDecl) *fnEmitter {
	return &fnEmitter{g: g, b: &indentWriter{}, fn: fn, vars: map[string]scopedVar{}}
}

// cvar is the C name of a variable in scope: a global's or an
// unshadowed local's is cname's.
func (f *fnEmitter) cvar(name string) string {
	if l, ok := f.vars[name]; ok {
		return l.cname
	}
	return cname(name)
}

// localType is the type of the local whose C name is c, or nil.
func (f *fnEmitter) localType(c string) *types.Type {
	for _, l := range f.vars {
		if l.cname == c {
			return l.ty
		}
	}
	return nil
}

// declare binds a local in the innermost scope and returns its C name:
// a fresh one when it shadows a local, parameter or global, so its
// initializer still reads the outer binding, as the VM's does.
func (f *fnEmitter) declare(name string, ty *types.Type) string {
	c := cname(name)
	_, isLocal := f.vars[name]
	if _, isGlobal := f.g.info.GlobalTypes[name]; isLocal || isGlobal {
		f.g.tmpN++
		c = fmt.Sprintf("u%d_%s", f.g.tmpN, name)
	}
	f.bind(name, scopedVar{c, ty})
	return c
}

// bind binds name in the innermost scope, which restores what it shadows.
func (f *fnEmitter) bind(name string, l scopedVar) {
	sc := &f.scopes[len(f.scopes)-1]
	if sc.shadowed == nil {
		sc.shadowed = map[string]scopedVar{}
	}
	if _, done := sc.shadowed[name]; !done {
		sc.shadowed[name] = f.vars[name]
	}
	f.vars[name] = l
}

// withIds emits body with a with-loop's indices bound, as the long
// loop variables the nest declares, in a scope of their own.
func (f *fnEmitter) withIds(ids []string, body func()) {
	f.pushScope()
	for _, id := range ids {
		f.bind(id, scopedVar{cname(id), types.IntT})
	}
	body()
	f.popScope()
}

func (f *fnEmitter) temp(ctype, init string) string {
	name := f.g.fresh("t")
	f.b.line("%s%s = %s;", padType(ctype), name, init)
	return name
}

// owned declares a temporary holding an owned reference of type ty,
// released after the statement.
func (f *fnEmitter) owned(ty *types.Type, init string) string {
	name := f.temp(f.g.cType(ty), init)
	f.temps = append(f.temps, scopedVar{name, ty})
	return name
}

// releaseTemps releases the current statement's owned temporaries
// ("anytime a variable goes out of scope, or gets assigned a new piece
// of data, then we decrement its reference counter").
func (f *fnEmitter) releaseTemps() { f.releaseTempsFrom(0) }

// releaseTempsFrom releases the temporaries from the mark-th on.
func (f *fnEmitter) releaseTempsFrom(mark int) {
	for _, v := range f.temps[mark:] {
		release(f.b, v.cname, v.ty)
	}
	f.temps = f.temps[:mark]
}

func (f *fnEmitter) pushScope() { f.scopes = append(f.scopes, scope{}) }

// popScope closes the innermost scope, releasing its locals and
// restoring the bindings they shadowed.
func (f *fnEmitter) popScope() {
	f.releaseScopes(len(f.scopes) - 1)
	for name, l := range f.scopes[len(f.scopes)-1].shadowed {
		if l.ty == nil {
			delete(f.vars, name)
		} else {
			f.vars[name] = l
		}
	}
	f.scopes = f.scopes[:len(f.scopes)-1]
}

// release emits the release of one reference held in cexpr.
func release(b *indentWriter, cexpr string, ty *types.Type) {
	switch ty.Kind {
	case types.Matrix, types.AnyMatrix:
		b.line("cm_decref(%s);", cexpr)
	case types.RcPtr:
		b.line("cm_cell_decref(%s);", cexpr)
	case types.Tuple:
		for i, e := range ty.Elems {
			release(b, fmt.Sprintf("%s._%d", cexpr, i), e)
		}
	}
}

// releaseScopes emits the releases of the locals of every scope from
// the from-th outward in, innermost first: a jump out of them (return,
// break, continue) leaves them.
func (f *fnEmitter) releaseScopes(from int) {
	for k := len(f.scopes) - 1; k >= from; k-- {
		for _, v := range f.scopes[k].owned {
			release(f.b, v.cname, v.ty)
		}
	}
}

func (f *fnEmitter) trackVar(cn string, ty *types.Type) {
	if len(f.scopes) == 0 {
		return // globals are released at process exit
	}
	switch ty.Kind {
	case types.Matrix, types.AnyMatrix, types.RcPtr, types.Tuple:
		sc := &f.scopes[len(f.scopes)-1]
		sc.owned = append(sc.owned, scopedVar{cn, ty})
	}
}

// retain emits an incref for a value of the given type.
func retain(b *indentWriter, cexpr string, ty *types.Type) {
	switch ty.Kind {
	case types.Matrix, types.AnyMatrix:
		b.line("cm_incref(%s);", cexpr)
	case types.RcPtr:
		b.line("cm_cell_incref(%s);", cexpr)
	case types.Tuple:
		for i, e := range ty.Elems {
			retain(b, fmt.Sprintf("%s._%d", cexpr, i), e)
		}
	}
}

// assignVar stores val into an existing variable with RC maintenance
// and int->float promotion.
func (f *fnEmitter) assignVar(cn string, varTy *types.Type, val string, valTy *types.Type) {
	val = f.g.convert(val, valTy, varTy)
	switch varTy.Kind {
	case types.Matrix, types.AnyMatrix, types.RcPtr, types.Tuple:
		tmp := f.g.fresh("n")
		f.b.line("%s%s = %s;", padType(f.g.cType(varTy)), tmp, val)
		retain(f.b, tmp, varTy)
		release(f.b, cn, varTy)
		f.b.line("%s = %s;", cn, tmp)
	default:
		f.b.line("%s = %s;", cn, val)
	}
}

// convert converts val of type from to type to, as AssignableTo admits:
// an int becomes a double, and a tuple converts element by element
// through a function generated once for the pair of tuple types.
func (g *generator) convert(val string, from, to *types.Type) string {
	switch {
	case from == nil || to == nil:
	case from.Kind == types.Int && to.Kind == types.Float:
		return "(double)(" + val + ")"
	case from.Kind == types.Tuple && to.Kind == types.Tuple && !types.Equal(from, to):
		key := from.String() + " -> " + to.String()
		fn, ok := g.helpers[key]
		if !ok {
			parts := make([]string, len(to.Elems))
			for i := range to.Elems {
				parts[i] = g.convert(fmt.Sprintf("v._%d", i), from.Elems[i], to.Elems[i])
			}
			fn = fmt.Sprintf("cm_conv%d", len(g.helpers))
			g.helpers[key] = fn
			fmt.Fprintf(&g.tupleDefs, "static %s %s(%s v) { return (%s){%s}; } /* %s */\n",
				g.tupleType(to), fn, g.tupleType(from), g.tupleType(to), strings.Join(parts, ", "), key)
		}
		return fn + "(" + val + ")"
	}
	return val
}

// cellDrop names the function that releases the references held by a
// cell's value of type ty, generated once per type; "0" when the value
// holds none.
func (g *generator) cellDrop(ty *types.Type) string {
	var body indentWriter
	body.indent = 1
	release(&body, fmt.Sprintf("(*(%s *)v)", strings.TrimSpace(g.cType(ty))), ty)
	if body.b.Len() == 0 {
		return "0"
	}
	key := "drop " + ty.String()
	fn, ok := g.helpers[key]
	if !ok {
		fn = fmt.Sprintf("cm_drop%d", len(g.helpers))
		g.helpers[key] = fn
		fmt.Fprintf(&g.tupleDefs, "static void %s(void *v) {\n%s}\n", fn, body.String())
	}
	return fn
}

// cellVal is the lvalue of the value of type ty in the cell at p.
func (g *generator) cellVal(ty *types.Type, p string) string {
	return fmt.Sprintf("(*(%s *)cm_cell_val(%s))", strings.TrimSpace(g.cType(ty)), p)
}

func (g *generator) emitFunc(fn *ast.FuncDecl) {
	sig := g.info.Funcs[fn.Name]
	f := g.newFnEmitter(fn)
	f.b.indent = 1
	f.cilk = containsCilk(fn.Body)
	if f.cilk {
		g.usesCilk = true
		f.b.line("int _cilk_mark = cm_ntasks; /* this function's spawn region */")
	}
	f.pushScope()
	for i, p := range fn.Params {
		f.vars[p.Name] = scopedVar{cname(p.Name), sig.Type.Params[i]}
		// Parameters are borrowed references: retained on entry and
		// released on exit, so callees may reassign them freely.
		retain(f.b, cname(p.Name), sig.Type.Params[i])
		f.trackVar(cname(p.Name), sig.Type.Params[i])
	}
	for _, s := range fn.Body.Stmts {
		f.stmt(s)
	}
	// A body that ends in a return has released everything on its way out.
	if n := len(fn.Body.Stmts); n == 0 || !isReturn(fn.Body.Stmts[n-1]) {
		if f.cilk {
			f.b.line("cm_sync_from(_cilk_mark); /* implicit sync at function exit */")
		}
		f.popScope()
		if sig.Type.Ret.Kind == types.Int && fn.Name == "main" {
			f.b.line("return 0;")
		}
	}
	fmt.Fprintf(&g.funcs, "static %s%s(%s) {\n%s}\n\n",
		padType(g.cType(sig.Type.Ret)), cname(fn.Name), g.paramList(fn, sig), f.b.String())
}

func isReturn(s ast.Stmt) bool {
	_, ok := s.(*ast.ReturnStmt)
	return ok
}
