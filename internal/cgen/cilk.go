// Code generation for the Cilk extension (§VIII): each spawn site
// lifts into an argument struct, a pthread wrapper and a finalizer;
// a small per-thread task list implements sync (join + finalize) and
// the implicit sync at function exit. This is the "sophisticated
// run-time delivered as a pluggable language extension" the paper's
// future work describes, in its simplest honest form (one thread per
// spawn; a work-stealing scheduler would slot in behind cm_spawn_push
// without changing the generated call sites).
package cgen

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/types"
)

// cilkRuntime is appended to the prelude when a program uses spawn.
const cilkRuntime = `
/* ---- Cilk extension mini-runtime ---- */
typedef struct { pthread_t tid; void *args; void (*fini)(void *); } cm_task;
#define CM_MAX_TASKS 4096
static __thread cm_task cm_tasks[CM_MAX_TASKS];
static __thread int cm_ntasks = 0;
static void cm_spawn_push(pthread_t tid, void *args, void (*fini)(void *)) {
    if (cm_ntasks >= CM_MAX_TASKS) cm_die("too many outstanding spawns");
    cm_tasks[cm_ntasks].tid = tid;
    cm_tasks[cm_ntasks].args = args;
    cm_tasks[cm_ntasks].fini = fini;
    cm_ntasks++;
}
static void cm_sync_from(int mark) {
    while (cm_ntasks > mark) {
        cm_ntasks--;
        cm_task *t = &cm_tasks[cm_ntasks];
        pthread_join(t->tid, 0);
        if (t->fini) t->fini(t->args);
        free(t->args);
    }
}
`

// containsCilk reports whether a statement tree uses spawn or sync.
func containsCilk(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.SpawnStmt, *ast.SyncStmt:
			found = true
		case ast.Expr, ast.TypeExpr:
			return false
		}
		return !found
	})
	return found
}

// emitSpawn lifts one spawn site. A target receives the callee's owned
// result at sync, released and stored as assignVar does; an untargeted
// spawn releases it in the thread.
func (f *fnEmitter) emitSpawn(s *ast.SpawnStmt) {
	call, ok := s.Call.(*ast.CallExpr)
	if !ok {
		panic(bug("spawn of %s, not a call", ast.ExprString(s.Call)))
	}
	sig, ok := f.g.info.Funcs[call.Fun]
	if !ok {
		panic(bug("spawn of unknown function %q", call.Fun))
	}
	ret := sig.Type.Ret
	var tgtTy *types.Type
	if s.Target != "" {
		if l, ok := f.vars[s.Target]; ok {
			tgtTy = l.ty
		} else if t, ok := f.g.info.GlobalTypes[s.Target]; ok {
			tgtTy = t
		} else {
			panic(bug("spawn target %q not found", s.Target))
		}
	}

	f.g.liftN++
	id := f.g.liftN
	lf := &indentWriter{}
	lf.line("/* spawn site %d: %s */", id, call.Fun)
	lf.line("typedef struct {")
	for i, pt := range sig.Type.Params {
		lf.line("    %s_a%d;", padType(f.g.cType(pt)), i)
	}
	if tgtTy != nil {
		lf.line("    %s_res;", padType(f.g.cType(tgtTy)))
		lf.line("    %s*_dst;", padType(f.g.cType(tgtTy)))
	}
	lf.line("} _spargs%d;", id)

	lf.line("static void *_spwrap%d(void *_p) {", id)
	lf.indent++
	lf.line("_spargs%d *_a = (_spargs%d *)_p;", id, id)
	// The pool serves one construct at a time: a spawned call runs its
	// parallel constructs in its own thread, as a pool worker does.
	lf.line("cm_in_worker = 1;")
	var argv []string
	for i := range sig.Type.Params {
		argv = append(argv, fmt.Sprintf("_a->_a%d", i))
	}
	callText := fmt.Sprintf("%s(%s)", cname(call.Fun), strings.Join(argv, ", "))
	switch {
	case tgtTy != nil:
		lf.line("_a->_res = %s;", f.g.convert(callText, ret, tgtTy))
	case ret.Kind == types.Tuple:
		lf.line("%s _r = %s;", f.g.tupleType(ret), callText)
		release(lf, "_r", ret)
	case ret.IsMatrix() || ret.Kind == types.RcPtr:
		release(lf, callText, ret) // discard an owned result
	default:
		lf.line("%s;", callText)
	}
	lf.line("return 0;")
	lf.indent--
	lf.line("}")

	lf.line("static void _spfini%d(void *_p) {", id)
	lf.indent++
	lf.line("_spargs%d *_a = (_spargs%d *)_p;", id, id)
	for i, pt := range sig.Type.Params {
		release(lf, fmt.Sprintf("_a->_a%d", i), pt) // the argument references taken at spawn
	}
	switch {
	case tgtTy == nil:
	case tgtTy.IsScalar():
		lf.line("*_a->_dst = _a->_res;")
	default:
		dst := "*_a->_dst"
		if tgtTy.Kind == types.Tuple {
			dst = "(*_a->_dst)"
		}
		release(lf, dst, tgtTy)
		lf.line("*_a->_dst = _a->_res; /* ownership transferred from the callee */")
	}
	lf.indent--
	lf.line("}")
	lf.line("")
	f.g.lifted.WriteString(lf.String())

	// Call site: evaluate arguments now (Cilk semantics), take
	// references to refcounted ones for the thread's lifetime, create
	// the thread, push the task.
	args := f.g.fresh("sa")
	vals := f.operands(call.Args...)
	f.b.line("_spargs%d *%s = (_spargs%d *)malloc(sizeof(_spargs%d));", id, args, id, id)
	for i, a := range call.Args {
		arg := fmt.Sprintf("%s->_a%d", args, i)
		f.b.line("%s = %s;", arg, f.g.convert(vals[i], f.g.info.TypeOf(a), sig.Type.Params[i]))
		retain(f.b, arg, sig.Type.Params[i])
	}
	if tgtTy != nil {
		f.b.line("%s->_dst = &%s;", args, f.cvar(s.Target))
	}
	tid := f.g.fresh("tid")
	f.b.line("pthread_t %s;", tid)
	f.b.line("pthread_create(&%s, 0, _spwrap%d, %s);", tid, id, args)
	f.b.line("cm_spawn_push(%s, %s, _spfini%d);", tid, args, id)
	f.releaseTemps()
}
