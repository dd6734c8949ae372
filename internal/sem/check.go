// Public entry point: the composed semantic attribute grammar, built
// once per process, evaluated over a parsed program.
package sem

import (
	"sync"

	"repro/internal/ast"
	"repro/internal/attr"
	"repro/internal/source"
	"repro/internal/types"
)

var composed struct {
	once sync.Once
	g    *attr.Grammar
	err  error
}

// Grammar returns the composed semantic attribute grammar for the full
// language (host + matrix + transform + cilk, with the rc library
// bindings). It is composed on first use, immutable, and shared by
// every Check of the process, concurrent ones included.
func Grammar() (*attr.Grammar, error) {
	composed.once.Do(func() {
		builtins := hostBuiltins()
		for name, f := range rcBuiltins() {
			builtins[name] = f
		}
		composed.g, composed.err = attr.Compose(HostAG(builtins), MatrixAG(), TransformAG(), CilkAG())
	})
	return composed.g, composed.err
}

// Check type-checks prog, recording diagnostics in diags and
// returning the analysis results. The returned Info is valid for
// downstream use only if diags has no errors.
func Check(prog *ast.Program, diags *source.Diagnostics) *Info {
	g, err := Grammar()
	if err != nil {
		diags.Errorf(prog.Span(), "internal error composing semantic specification: %v", err)
		return &Info{}
	}
	tree, exprs := BuildTree(g, prog)
	v, err := tree.SafeSyn(aErrs)
	if err != nil {
		diags.Errorf(prog.Span(), "internal error during semantic analysis: %v", err)
		return &Info{}
	}
	for _, d := range v.(errlist) {
		diags.Add(d)
	}
	// The equations write nothing; Info is read off the decorated tree.
	// Evaluating the root's errs has put a type on every expression node.
	ge := tree.Syn(aGlobalEnv).(globalEnvVal)
	info := &Info{Types: make(map[ast.Expr]*types.Type, exprs), Funcs: ge.funcs, GlobalTypes: ge.globals}
	recordTypes(tree, info.Types)
	return info
}

func recordTypes(t *attr.Tree, into map[ast.Expr]*types.Type) {
	if e, ok := t.Value.(ast.Expr); ok {
		into[e] = typOf(t)
	}
	for i := 0; i < t.NumChildren(); i++ {
		recordTypes(t.Child(i), into)
	}
}
