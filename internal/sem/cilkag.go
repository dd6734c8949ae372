// The Cilk extension's semantic attribute-grammar fragment (§VIII
// future work, implemented): spawn statements must spawn a call to a
// user-defined function; a spawn with a target must name a declared
// variable that can receive the call's result; sync is only
// meaningful inside a function (always true here). The extension owns
// only its own productions and equips them with equations for the
// host's analysis attributes — passing the MWDA like the others.
package sem

import (
	"repro/internal/ast"
	"repro/internal/attr"
	"repro/internal/types"
)

// OwnerCilkSem tags the Cilk semantic spec.
const OwnerCilkSem = "cilk"

// CilkAG builds the Cilk extension's semantic specification.
func CilkAG() *attr.AGSpec {
	s := newSpec(OwnerCilkSem)
	syn, inh := s.syn, s.inh
	s.prod("spawnStmt", ntStmt, false, ntExpr)
	s.prod("syncStmt", ntStmt, false)

	syn("spawnStmt", aOwnErrs, func(t *attr.Tree) any {
		sp := t.Value.(*ast.SpawnStmt)
		var errs errlist
		call, isCall := sp.Call.(*ast.CallExpr)
		if !isCall {
			errs = append(errs, errf(sp, "spawn requires a function call, got %s", ast.ExprString(sp.Call)))
			return errs
		}
		// The called function must be user-defined (builtins are not
		// spawnable tasks).
		sym := env(t).Lookup(call.Fun)
		if sym == nil || sym.Type.Kind != types.Func {
			errs = append(errs, errf(sp, "spawn requires a user-defined function, %q is not one", call.Fun))
			return errs
		}
		ct := typOf(t.Child(0))
		if sp.Target == "" {
			return errs
		}
		tgt := env(t).Lookup(sp.Target)
		if tgt == nil {
			errs = append(errs, errf(sp, "spawn target %q is not declared", sp.Target))
			return errs
		}
		if ct.Kind == types.Void {
			errs = append(errs, errf(sp, "spawned function returns void; drop the target variable"))
			return errs
		}
		if !types.AssignableTo(ct, tgt.Type) {
			errs = append(errs, errf(sp, "cannot assign spawned %s to %q of type %s", ct, sp.Target, tgt.Type))
		}
		return errs
	})
	syn("spawnStmt", aEnvOut, func(t *attr.Tree) any { return t.Inh(aEnv) })
	inh("spawnStmt", 0, aEnv, func(p *attr.Tree, c int) any { return p.Inh(aEnv) })
	inh("spawnStmt", 0, aInIndex, func(p *attr.Tree, c int) any { return false })

	syn("syncStmt", aOwnErrs, func(t *attr.Tree) any { return errlist(nil) })
	syn("syncStmt", aEnvOut, func(t *attr.Tree) any { return t.Inh(aEnv) })

	s.addErrsProjections()
	return s.AGSpec
}
