// The attribute-grammar specification of extended CMINUS semantics.
// The host spec declares the analysis attributes — env (inherited
// scope), envOut (statement scope flow), typ (expression types), errs
// (collected diagnostics), retType/inLoop/inIndex (context flags) —
// and equations for every host production. The matrix and transform
// specs contribute equations for their own productions (and, for the
// transform extension, its own loopIds/idsOut attributes on the
// matrix extension's WithSuffix nonterminal), mirroring exactly how
// the paper's Silver specifications compose. The MWDA in internal/attr
// validates each spec; see sem_test.go.
package sem

import (
	"strings"

	"repro/internal/ast"
	"repro/internal/attr"
	"repro/internal/types"
)

// Nonterminals of the semantic AG.
const (
	ntProgram    = "Program"
	ntDecl       = "Decl"
	ntStmt       = "Stmt"
	ntExpr       = "Expr"
	ntExprList   = "ExprList"
	ntIdxArgList = "IdxArgList"
	ntIdxArg     = "IdxArg"
	ntWithOp     = "WithOp"
	ntWithSuffix = "WithSuffix"
	ntClause     = "Clause"
)

// Attribute handles: the host's analysis attributes, then the transform
// extension's two.
var (
	aEnv       = attr.Intern("env")
	aEnvOut    = attr.Intern("envOut")
	aTyp       = attr.Intern("typ")
	aTyps      = attr.Intern("typs")
	aErrs      = attr.Intern("errs")
	aOwnErrs   = attr.Intern("ownErrs")
	aRetType   = attr.Intern("retType")
	aInLoop    = attr.Intern("inLoop")
	aInIndex   = attr.Intern("inIndex")
	aGlobalEnv = attr.Intern("globalEnv")
	aArgInfo   = attr.Intern("argInfo")

	aLoopIds = attr.Intern("loopIds")
	aIdsOut  = attr.Intern("idsOut")
)

// globalEnvVal is the value of the program's globalEnv attribute: the
// top-level scope, the signatures and global types Info publishes, and
// the declaration errors.
type globalEnvVal struct {
	scope   *Scope
	funcs   map[string]*FuncSig
	globals map[string]*types.Type
	errs    errlist
}

// idxInfo is the value of the argInfo attribute on index arguments.
type idxKind int

const (
	idxScalarK idxKind = iota
	idxRangeK
	idxAllK
	idxMaskK
	idxBadK
)

type idxInfo struct{ kind idxKind }

// builtinFn type-checks one builtin call.
type builtinFn func(args []*types.Type, call *ast.CallExpr) (*types.Type, errlist)

// hostBuiltins returns the host-language builtin table (§III's
// dimSize, readMatrix, writeMatrix plus simple printing).
func hostBuiltins() map[string]builtinFn {
	return map[string]builtinFn{
		"dimSize": func(args []*types.Type, c *ast.CallExpr) (*types.Type, errlist) {
			if len(args) != 2 || !args[0].IsMatrix() || args[1].Kind != types.Int {
				return types.InvalidT, errlist{errf(c, "dimSize expects (Matrix, int), got %s", typesStr(args))}
			}
			return types.IntT, nil
		},
		"readMatrix": func(args []*types.Type, c *ast.CallExpr) (*types.Type, errlist) {
			if len(args) != 1 || args[0].Kind != types.String {
				return types.InvalidT, errlist{errf(c, "readMatrix expects a file name string")}
			}
			return types.AnyMatT, nil
		},
		"writeMatrix": func(args []*types.Type, c *ast.CallExpr) (*types.Type, errlist) {
			if len(args) != 2 || args[0].Kind != types.String || !args[1].IsMatrix() {
				return types.InvalidT, errlist{errf(c, "writeMatrix expects (string, Matrix), got %s", typesStr(args))}
			}
			return types.VoidT, nil
		},
		"print": func(args []*types.Type, c *ast.CallExpr) (*types.Type, errlist) {
			if len(args) != 1 || !(args[0].IsScalar() || args[0].IsMatrix()) {
				return types.InvalidT, errlist{errf(c, "print expects one scalar or matrix argument")}
			}
			return types.VoidT, nil
		},
	}
}

// rcBuiltins returns the reference-counting extension's library
// bindings (the extension's semantics beyond its type syntax).
func rcBuiltins() map[string]builtinFn {
	return map[string]builtinFn{
		"rcnew": func(args []*types.Type, c *ast.CallExpr) (*types.Type, errlist) {
			if len(args) != 1 || args[0].Kind == types.Void || args[0].Kind == types.Invalid {
				return types.InvalidT, errlist{errf(c, "rcnew expects one value argument")}
			}
			return types.RcPtrOf(args[0]), nil
		},
		"rcget": func(args []*types.Type, c *ast.CallExpr) (*types.Type, errlist) {
			if len(args) != 1 || args[0].Kind != types.RcPtr {
				return types.InvalidT, errlist{errf(c, "rcget expects a refcounted pointer, got %s", typesStr(args))}
			}
			return args[0].Elem, nil
		},
		"rcset": func(args []*types.Type, c *ast.CallExpr) (*types.Type, errlist) {
			if len(args) != 2 || args[0].Kind != types.RcPtr {
				return types.InvalidT, errlist{errf(c, "rcset expects (refcounted pointer, value)")}
			}
			if !types.AssignableTo(args[1], args[0].Elem) {
				return types.InvalidT, errlist{errf(c, "rcset value %s is not assignable to %s", args[1], args[0].Elem)}
			}
			return types.VoidT, nil
		},
		"rcrelease": func(args []*types.Type, c *ast.CallExpr) (*types.Type, errlist) {
			if len(args) != 1 || args[0].Kind != types.RcPtr {
				return types.InvalidT, errlist{errf(c, "rcrelease expects a refcounted pointer, got %s", typesStr(args))}
			}
			return types.VoidT, nil
		},
	}
}

func typesStr(ts []*types.Type) string {
	s := "("
	for i, t := range ts {
		if i > 0 {
			s += ", "
		}
		s += t.String()
	}
	return s + ")"
}

// --- helper accessors used inside equations ---

func env(t *attr.Tree) *Scope           { return t.Inh(aEnv).(*Scope) }
func typOf(t *attr.Tree) *types.Type    { return t.Syn(aTyp).(*types.Type) }
func typsOf(t *attr.Tree) []*types.Type { return t.Syn(aTyps).([]*types.Type) }

func resolveType(te ast.TypeExpr, at ast.Node) (*types.Type, errlist) {
	ty, err := types.FromAST(te)
	if err != nil {
		return types.InvalidT, errlist{errf(at, "%v", err)}
	}
	return ty, nil
}

// specBuilder accumulates one AGSpec; everything it declares carries
// the spec's owner tag.
type specBuilder struct{ *attr.AGSpec }

func newSpec(owner string) specBuilder { return specBuilder{&attr.AGSpec{Name: owner}} }

func (b specBuilder) nts(names ...string) {
	for _, n := range names {
		b.NTs = append(b.NTs, attr.NTDecl{Name: n, Owner: b.Name})
	}
}

func (b specBuilder) attrs(kind attr.AttrKind, as ...attr.Attr) {
	for _, a := range as {
		b.Attrs = append(b.Attrs, attr.AttrDecl{Name: a.String(), Kind: kind, Owner: b.Name})
	}
}

func (b specBuilder) occ(a attr.Attr, nts ...string) {
	for _, nt := range nts {
		b.Occurs = append(b.Occurs, attr.Occurs{Attr: a.String(), NT: nt, Owner: b.Name})
	}
}

func (b specBuilder) prod(name, lhs string, variadic bool, kids ...string) {
	b.Prods = append(b.Prods, attr.ProdDecl{Name: name, LHS: lhs, ChildNTs: kids, Variadic: variadic, Owner: b.Name})
}

func (b specBuilder) syn(prod string, a attr.Attr, f func(t *attr.Tree) any) {
	b.SynEqs = append(b.SynEqs, attr.SynEq{Prod: prod, Attr: a.String(), Owner: b.Name, F: f})
}

func (b specBuilder) inh(prod string, child int, a attr.Attr, f func(p *attr.Tree, c int) any) {
	b.InhEqs = append(b.InhEqs, attr.InhEq{Prod: prod, Child: child, Attr: a.String(), Owner: b.Name, F: f})
}

// HostAG builds the host-language semantic specification; builtins is
// the library table (host builtins plus any extension contributions).
func HostAG(builtins map[string]builtinFn) *attr.AGSpec {
	s := newSpec("")
	s.nts(ntProgram, ntDecl, ntStmt, ntExpr, ntExprList, ntIdxArgList, ntIdxArg)
	s.attrs(attr.Inherited, aEnv, aRetType, aInLoop, aInIndex)
	s.attrs(attr.Synthesized, aEnvOut, aTyp, aTyps, aErrs, aOwnErrs, aGlobalEnv, aArgInfo)
	occ, p, syn, inh := s.occ, s.prod, s.syn, s.inh
	occ(aEnv, ntDecl, ntStmt, ntExpr, ntExprList, ntIdxArgList, ntIdxArg)
	occ(aEnvOut, ntStmt)
	occ(aTyp, ntExpr)
	occ(aTyps, ntExprList)
	occ(aErrs, ntProgram, ntDecl, ntStmt, ntExpr, ntExprList, ntIdxArgList, ntIdxArg)
	occ(aOwnErrs, ntProgram, ntDecl, ntStmt, ntExpr, ntExprList, ntIdxArgList, ntIdxArg)
	occ(aRetType, ntStmt)
	occ(aInLoop, ntStmt)
	occ(aInIndex, ntExpr, ntExprList)
	occ(aGlobalEnv, ntProgram)
	occ(aArgInfo, ntIdxArg)

	p("program", ntProgram, true, ntDecl)
	p("funcDecl", ntDecl, false, ntStmt)
	p("globalVar", ntDecl, false)
	p("globalVarInit", ntDecl, false, ntExpr)
	p("block", ntStmt, true, ntStmt)
	p("declStmt", ntStmt, false)
	p("declStmtInit", ntStmt, false, ntExpr)
	p("assign", ntStmt, false, ntExprList, ntExpr)
	p("ifStmt", ntStmt, false, ntExpr, ntStmt)
	p("ifElseStmt", ntStmt, false, ntExpr, ntStmt, ntStmt)
	p("whileStmt", ntStmt, false, ntExpr, ntStmt)
	p("forStmt", ntStmt, false, ntStmt, ntExpr, ntStmt, ntStmt)
	p("emptyStmt", ntStmt, false)
	p("returnStmt", ntStmt, false, ntExpr)
	p("returnVoid", ntStmt, false)
	p("exprStmt", ntStmt, false, ntExpr)
	p("breakStmt", ntStmt, false)
	p("continueStmt", ntStmt, false)
	p("intLit", ntExpr, false)
	p("floatLit", ntExpr, false)
	p("boolLit", ntExpr, false)
	p("strLit", ntExpr, false)
	p("ident", ntExpr, false)
	p("binary", ntExpr, false, ntExpr, ntExpr)
	p("unary", ntExpr, false, ntExpr)
	p("call", ntExpr, false, ntExprList)
	p("cast", ntExpr, false, ntExpr)
	p("index", ntExpr, false, ntExpr, ntIdxArgList)
	p("endExpr", ntExpr, false)
	p("rangeExpr", ntExpr, false, ntExpr, ntExpr)
	p("tupleExpr", ntExpr, false, ntExprList)
	p("exprList", ntExprList, true, ntExpr)
	p("idxArgList", ntIdxArgList, true, ntIdxArg)
	p("idxScalar", ntIdxArg, false, ntExpr)
	p("idxRange", ntIdxArg, false, ntExpr, ntExpr)
	p("idxAll", ntIdxArg, false)

	inhCopy := func(prod string, child int, a attr.Attr) {
		inh(prod, child, a, func(p *attr.Tree, c int) any { return p.Inh(a) })
	}
	inhConst := func(prod string, child int, a attr.Attr, v any) {
		inh(prod, child, a, func(p *attr.Tree, c int) any { return v })
	}
	typEq := func(prod string, f func(t *attr.Tree) *types.Type) {
		syn(prod, aTyp, func(t *attr.Tree) any { return f(t) })
	}
	noErrs := func(prods ...string) {
		for _, pr := range prods {
			syn(pr, aOwnErrs, func(t *attr.Tree) any { return errlist(nil) })
		}
	}

	// --- program ---
	syn("program", aGlobalEnv, func(t *attr.Tree) any {
		var errs errlist
		sc := (*Scope)(nil).Push()
		funcs, globals := map[string]*FuncSig{}, map[string]*types.Type{}
		seen := map[string]bool{}
		for i := 0; i < t.NumChildren(); i++ {
			switch d := t.Child(i).Value.(type) {
			case *ast.FuncDecl:
				ret, e := resolveType(d.Ret, d)
				errs = append(errs, e...)
				params := make([]*types.Type, len(d.Params))
				for j, pa := range d.Params {
					pt, e := resolveType(pa.Type, pa)
					errs = append(errs, e...)
					params[j] = pt
				}
				if seen[d.Name] {
					errs = append(errs, errf(d, "redeclaration of %q", d.Name))
					continue
				}
				seen[d.Name] = true
				ft := types.FuncOf(ret, params...)
				sc = sc.Bind(d.Name, ft, d)
				funcs[d.Name] = &FuncSig{Name: d.Name, Type: ft, Decl: d}
			case *ast.GlobalVarDecl:
				ty, e := resolveType(d.Type, d)
				errs = append(errs, e...)
				if seen[d.Name] {
					errs = append(errs, errf(d, "redeclaration of %q", d.Name))
					continue
				}
				if ty.Kind == types.Void {
					errs = append(errs, errf(d, "variable %q cannot have void type", d.Name))
					ty = types.InvalidT
				}
				seen[d.Name] = true
				sc = sc.Bind(d.Name, ty, d)
				globals[d.Name] = ty
			}
		}
		return globalEnvVal{scope: sc, funcs: funcs, globals: globals, errs: errs}
	})
	syn("program", aOwnErrs, func(t *attr.Tree) any {
		return t.Syn(aGlobalEnv).(globalEnvVal).errs
	})
	inh("program", -1, aEnv, func(p *attr.Tree, c int) any {
		return p.Syn(aGlobalEnv).(globalEnvVal).scope
	})

	// --- declarations ---
	syn("funcDecl", aOwnErrs, func(t *attr.Tree) any { return errlist(nil) })
	inh("funcDecl", 0, aEnv, func(p *attr.Tree, c int) any {
		d := p.Value.(*ast.FuncDecl)
		sc := env(p).Push()
		seen := map[string]bool{}
		for _, pa := range d.Params {
			pt, _ := resolveType(pa.Type, pa)
			if seen[pa.Name] {
				continue // duplicate params reported below via body? report here is awkward; keep first
			}
			seen[pa.Name] = true
			sc = sc.Bind(pa.Name, pt, pa)
		}
		return sc
	})
	inh("funcDecl", 0, aRetType, func(p *attr.Tree, c int) any {
		d := p.Value.(*ast.FuncDecl)
		ret, _ := resolveType(d.Ret, d)
		return ret
	})
	inhConst("funcDecl", 0, aInLoop, false)

	noErrs("globalVar")
	syn("globalVarInit", aOwnErrs, func(t *attr.Tree) any {
		d := t.Value.(*ast.GlobalVarDecl)
		ty, _ := resolveType(d.Type, d)
		it := typOf(t.Child(0))
		if !types.AssignableTo(it, ty) {
			return errlist{errf(d, "cannot initialize %q of type %s with %s", d.Name, ty, it)}
		}
		return errlist(nil)
	})
	inhCopy("globalVarInit", 0, aEnv)
	inhConst("globalVarInit", 0, aInIndex, false)

	// --- statements ---
	noErrs("block", "emptyStmt", "exprStmt")
	syn("block", aEnvOut, func(t *attr.Tree) any { return t.Inh(aEnv) })
	inh("block", -1, aEnv, func(p *attr.Tree, c int) any {
		if c == 0 {
			return env(p).Push()
		}
		return p.Child(c - 1).Syn(aEnvOut)
	})
	inhCopy("block", -1, aRetType)
	inhCopy("block", -1, aInLoop)

	declCheck := func(t *attr.Tree) (string, *types.Type, errlist) {
		d := t.Value.(*ast.DeclStmt)
		ty, errs := resolveType(d.Type, d)
		if ty.Kind == types.Void {
			errs = append(errs, errf(d, "variable %q cannot have void type", d.Name))
			ty = types.InvalidT
		}
		if env(t).DeclaredInBlock(d.Name) {
			errs = append(errs, errf(d, "%q is already declared in this block", d.Name))
		}
		return d.Name, ty, errs
	}
	syn("declStmt", aOwnErrs, func(t *attr.Tree) any {
		_, _, errs := declCheck(t)
		return errs
	})
	syn("declStmt", aEnvOut, func(t *attr.Tree) any {
		name, ty, _ := declCheck(t)
		return env(t).Bind(name, ty, t.Value.(ast.Node))
	})
	syn("declStmtInit", aOwnErrs, func(t *attr.Tree) any {
		d := t.Value.(*ast.DeclStmt)
		_, ty, errs := declCheck(t)
		it := typOf(t.Child(0))
		if !types.AssignableTo(it, ty) {
			errs = append(errs, errf(d, "cannot initialize %q of type %s with %s", d.Name, ty, it))
		}
		return errs
	})
	syn("declStmtInit", aEnvOut, func(t *attr.Tree) any {
		name, ty, _ := declCheck(t)
		return env(t).Bind(name, ty, t.Value.(ast.Node))
	})
	inhCopy("declStmtInit", 0, aEnv)
	inhConst("declStmtInit", 0, aInIndex, false)

	syn("assign", aOwnErrs, func(t *attr.Tree) any {
		a := t.Value.(*ast.AssignStmt)
		var errs errlist
		lhsTypes := typsOf(t.Child(0))
		for _, l := range a.LHS {
			switch l.(type) {
			case *ast.Ident, *ast.IndexExpr:
			default:
				errs = append(errs, errf(l, "cannot assign to %s", ast.ExprString(l)))
			}
		}
		rhs := typOf(t.Child(1))
		if len(a.LHS) > 1 {
			// tuple destructuring (§III-B)
			if rhs.Kind != types.Tuple {
				errs = append(errs, errf(a, "destructuring assignment requires a tuple value, got %s", rhs))
				return errs
			}
			if len(rhs.Elems) != len(a.LHS) {
				errs = append(errs, errf(a, "cannot destructure %d-tuple into %d targets", len(rhs.Elems), len(a.LHS)))
				return errs
			}
			for i, lt := range lhsTypes {
				if !types.AssignableTo(rhs.Elems[i], lt) {
					errs = append(errs, errf(a.LHS[i], "cannot assign %s to %s", rhs.Elems[i], lt))
				}
			}
			return errs
		}
		lt := lhsTypes[0]
		if lt.Kind != types.Invalid && !types.AssignableTo(rhs, lt) {
			// Indexed stores of scalars into matrix slices are checked
			// elementwise: scores[b:i] = <Matrix float<1>> is fine, and
			// m[i, j] = 2 stores a scalar.
			errs = append(errs, errf(a, "cannot assign %s to %s", rhs, lt))
		}
		return errs
	})
	syn("assign", aEnvOut, func(t *attr.Tree) any { return t.Inh(aEnv) })
	inhCopy("assign", -1, aEnv)
	inhConst("assign", 0, aInIndex, false)
	inhConst("assign", 1, aInIndex, false)

	condCheck := func(name string) func(t *attr.Tree) any {
		return func(t *attr.Tree) any {
			ct := typOf(t.Child(0))
			if ct.Kind != types.Bool && ct.Kind != types.Invalid {
				return errlist{errf(t.Value.(ast.Node), "%s condition must be bool, got %s", name, ct)}
			}
			return errlist(nil)
		}
	}
	syn("ifStmt", aOwnErrs, condCheck("if"))
	syn("ifStmt", aEnvOut, func(t *attr.Tree) any { return t.Inh(aEnv) })
	inhCopy("ifStmt", -1, aEnv)
	inhConst("ifStmt", 0, aInIndex, false)
	inhCopy("ifStmt", 1, aRetType)
	inhCopy("ifStmt", 1, aInLoop)

	syn("ifElseStmt", aOwnErrs, condCheck("if"))
	syn("ifElseStmt", aEnvOut, func(t *attr.Tree) any { return t.Inh(aEnv) })
	inhCopy("ifElseStmt", -1, aEnv)
	inhConst("ifElseStmt", 0, aInIndex, false)
	inhCopy("ifElseStmt", 1, aRetType)
	inhCopy("ifElseStmt", 1, aInLoop)
	inhCopy("ifElseStmt", 2, aRetType)
	inhCopy("ifElseStmt", 2, aInLoop)

	syn("whileStmt", aOwnErrs, condCheck("while"))
	syn("whileStmt", aEnvOut, func(t *attr.Tree) any { return t.Inh(aEnv) })
	inhCopy("whileStmt", -1, aEnv)
	inhConst("whileStmt", 0, aInIndex, false)
	inhCopy("whileStmt", 1, aRetType)
	inhConst("whileStmt", 1, aInLoop, true)

	syn("forStmt", aOwnErrs, func(t *attr.Tree) any {
		ct := typOf(t.Child(1))
		if ct.Kind != types.Bool && ct.Kind != types.Invalid {
			return errlist{errf(t.Value.(ast.Node), "for condition must be bool, got %s", ct)}
		}
		return errlist(nil)
	})
	syn("forStmt", aEnvOut, func(t *attr.Tree) any { return t.Inh(aEnv) })
	inh("forStmt", 0, aEnv, func(p *attr.Tree, c int) any { return env(p).Push() })
	inh("forStmt", 1, aEnv, func(p *attr.Tree, c int) any { return p.Child(0).Syn(aEnvOut) })
	inh("forStmt", 2, aEnv, func(p *attr.Tree, c int) any { return p.Child(0).Syn(aEnvOut) })
	inh("forStmt", 3, aEnv, func(p *attr.Tree, c int) any { return p.Child(0).Syn(aEnvOut) })
	inhConst("forStmt", 1, aInIndex, false)
	inhCopy("forStmt", 0, aRetType)
	inhCopy("forStmt", 2, aRetType)
	inhCopy("forStmt", 3, aRetType)
	inhConst("forStmt", 0, aInLoop, false)
	inhConst("forStmt", 2, aInLoop, true)
	inhConst("forStmt", 3, aInLoop, true)

	syn("emptyStmt", aEnvOut, func(t *attr.Tree) any { return t.Inh(aEnv) })

	syn("returnStmt", aOwnErrs, func(t *attr.Tree) any {
		ret := t.Inh(aRetType).(*types.Type)
		vt := typOf(t.Child(0))
		if ret.Kind == types.Void {
			return errlist{errf(t.Value.(ast.Node), "void function cannot return a value")}
		}
		if !types.AssignableTo(vt, ret) {
			return errlist{errf(t.Value.(ast.Node), "cannot return %s from a function returning %s", vt, ret)}
		}
		return errlist(nil)
	})
	syn("returnStmt", aEnvOut, func(t *attr.Tree) any { return t.Inh(aEnv) })
	inhCopy("returnStmt", 0, aEnv)
	inhConst("returnStmt", 0, aInIndex, false)

	syn("returnVoid", aOwnErrs, func(t *attr.Tree) any {
		ret := t.Inh(aRetType).(*types.Type)
		if ret.Kind != types.Void {
			return errlist{errf(t.Value.(ast.Node), "missing return value in function returning %s", ret)}
		}
		return errlist(nil)
	})
	syn("returnVoid", aEnvOut, func(t *attr.Tree) any { return t.Inh(aEnv) })

	syn("exprStmt", aEnvOut, func(t *attr.Tree) any { return t.Inh(aEnv) })
	inhCopy("exprStmt", 0, aEnv)
	inhConst("exprStmt", 0, aInIndex, false)

	loopOnly := func(word string) func(t *attr.Tree) any {
		return func(t *attr.Tree) any {
			if !t.Inh(aInLoop).(bool) {
				return errlist{errf(t.Value.(ast.Node), "%s outside a loop", word)}
			}
			return errlist(nil)
		}
	}
	syn("breakStmt", aOwnErrs, loopOnly("break"))
	syn("breakStmt", aEnvOut, func(t *attr.Tree) any { return t.Inh(aEnv) })
	syn("continueStmt", aOwnErrs, loopOnly("continue"))
	syn("continueStmt", aEnvOut, func(t *attr.Tree) any { return t.Inh(aEnv) })

	// --- expressions ---
	noErrs("intLit", "floatLit", "boolLit", "strLit", "exprList", "idxArgList", "tupleExpr")
	typEq("intLit", func(t *attr.Tree) *types.Type { return types.IntT })
	typEq("floatLit", func(t *attr.Tree) *types.Type { return types.FloatT })
	typEq("boolLit", func(t *attr.Tree) *types.Type { return types.BoolT })
	typEq("strLit", func(t *attr.Tree) *types.Type { return types.StringT })

	typEq("ident", func(t *attr.Tree) *types.Type {
		id := t.Value.(*ast.Ident)
		if sym := env(t).Lookup(id.Name); sym != nil {
			return sym.Type
		}
		return types.InvalidT
	})
	syn("ident", aOwnErrs, func(t *attr.Tree) any {
		id := t.Value.(*ast.Ident)
		if env(t).Lookup(id.Name) == nil {
			return errlist{errf(id, "undeclared variable %q", id.Name)}
		}
		return errlist(nil)
	})

	typEq("binary", func(t *attr.Tree) *types.Type {
		e := t.Value.(*ast.BinaryExpr)
		res, _ := types.BinaryResult(e.Op, typOf(t.Child(0)), typOf(t.Child(1)))
		return res
	})
	syn("binary", aOwnErrs, func(t *attr.Tree) any {
		e := t.Value.(*ast.BinaryExpr)
		if _, err := types.BinaryResult(e.Op, typOf(t.Child(0)), typOf(t.Child(1))); err != nil {
			return errlist{errf(e, "%v", err)}
		}
		return errlist(nil)
	})
	inhCopy("binary", -1, aEnv)
	inhCopy("binary", 0, aInIndex)
	inhCopy("binary", 1, aInIndex)

	typEq("unary", func(t *attr.Tree) *types.Type {
		e := t.Value.(*ast.UnaryExpr)
		res, _ := types.UnaryResult(e.Op, typOf(t.Child(0)))
		return res
	})
	syn("unary", aOwnErrs, func(t *attr.Tree) any {
		e := t.Value.(*ast.UnaryExpr)
		if _, err := types.UnaryResult(e.Op, typOf(t.Child(0))); err != nil {
			return errlist{errf(e, "%v", err)}
		}
		return errlist(nil)
	})
	inhCopy("unary", 0, aEnv)
	inhCopy("unary", 0, aInIndex)

	callResolve := func(t *attr.Tree) (*types.Type, errlist) {
		e := t.Value.(*ast.CallExpr)
		args := typsOf(t.Child(0))
		if sym := env(t).Lookup(e.Fun); sym != nil {
			ft := sym.Type
			if ft.Kind != types.Func {
				return types.InvalidT, errlist{errf(e, "%q is not a function", e.Fun)}
			}
			if len(args) != len(ft.Params) {
				return types.InvalidT, errlist{errf(e, "%q expects %d argument(s), got %d", e.Fun, len(ft.Params), len(args))}
			}
			var errs errlist
			for i, at := range args {
				if !types.AssignableTo(at, ft.Params[i]) {
					errs = append(errs, errf(e.Args[i], "argument %d of %q: cannot use %s as %s", i+1, e.Fun, at, ft.Params[i]))
				}
			}
			return ft.Ret, errs
		}
		if bf, ok := builtins[e.Fun]; ok {
			return bf(args, e)
		}
		return types.InvalidT, errlist{errf(e, "undeclared function %q", e.Fun)}
	}
	typEq("call", func(t *attr.Tree) *types.Type { ty, _ := callResolve(t); return ty })
	syn("call", aOwnErrs, func(t *attr.Tree) any { _, errs := callResolve(t); return errs })
	inhCopy("call", 0, aEnv)
	inhConst("call", 0, aInIndex, false)

	typEq("cast", func(t *attr.Tree) *types.Type {
		e := t.Value.(*ast.CastExpr)
		switch e.To {
		case ast.PrimInt:
			return types.IntT
		case ast.PrimFloat:
			return types.FloatT
		case ast.PrimBool:
			return types.BoolT
		}
		return types.InvalidT
	})
	syn("cast", aOwnErrs, func(t *attr.Tree) any {
		e := t.Value.(*ast.CastExpr)
		xt := typOf(t.Child(0))
		if xt.Kind == types.Invalid {
			return errlist(nil)
		}
		if !xt.IsNumeric() && xt.Kind != types.Bool {
			return errlist{errf(e, "cannot cast %s to %s", xt, e.To)}
		}
		if e.To == ast.PrimVoid || e.To == ast.PrimString {
			return errlist{errf(e, "cannot cast to %s", e.To)}
		}
		return errlist(nil)
	})
	inhCopy("cast", 0, aEnv)
	inhCopy("cast", 0, aInIndex)

	indexResolve := func(t *attr.Tree) (*types.Type, errlist) {
		e := t.Value.(*ast.IndexExpr)
		base := typOf(t.Child(0))
		if base.Kind == types.Invalid {
			return types.InvalidT, nil
		}
		if base.Kind == types.AnyMatrix {
			return types.InvalidT, errlist{errf(e, "cannot index an unresolved matrix; assign it to a declared Matrix variable first")}
		}
		if base.Kind != types.Matrix {
			return types.InvalidT, errlist{errf(e, "cannot index %s", base)}
		}
		argsT := t.Child(1)
		if argsT.NumChildren() != base.Rank {
			return types.InvalidT, errlist{errf(e, "matrix of rank %d requires %d index expression(s), got %d",
				base.Rank, base.Rank, argsT.NumChildren())}
		}
		kept := 0
		for i := 0; i < argsT.NumChildren(); i++ {
			ai := argsT.Child(i).Syn(aArgInfo).(idxInfo)
			switch ai.kind {
			case idxRangeK, idxAllK, idxMaskK:
				kept++
			case idxBadK:
				return types.InvalidT, nil // error reported at the arg
			}
		}
		if kept == 0 {
			return base.Elem, nil
		}
		return types.MatrixOf(base.Elem, kept), nil
	}
	typEq("index", func(t *attr.Tree) *types.Type { ty, _ := indexResolve(t); return ty })
	syn("index", aOwnErrs, func(t *attr.Tree) any { _, errs := indexResolve(t); return errs })
	inhCopy("index", 0, aEnv)
	inhConst("index", 0, aInIndex, false)
	inhCopy("index", 1, aEnv)

	typEq("endExpr", func(t *attr.Tree) *types.Type { return types.IntT })
	syn("endExpr", aOwnErrs, func(t *attr.Tree) any {
		if !t.Inh(aInIndex).(bool) {
			return errlist{errf(t.Value.(ast.Node), "'end' is only valid inside matrix index expressions")}
		}
		return errlist(nil)
	})

	typEq("rangeExpr", func(t *attr.Tree) *types.Type { return types.MatrixOf(types.IntT, 1) })
	syn("rangeExpr", aOwnErrs, func(t *attr.Tree) any {
		var errs errlist
		for i := 0; i < 2; i++ {
			if ty := typOf(t.Child(i)); ty.Kind != types.Int && ty.Kind != types.Invalid {
				errs = append(errs, errf(t.Value.(ast.Node), "range bound must be int, got %s", ty))
			}
		}
		return errs
	})
	inhCopy("rangeExpr", -1, aEnv)
	inhCopy("rangeExpr", 0, aInIndex)
	inhCopy("rangeExpr", 1, aInIndex)

	typEq("tupleExpr", func(t *attr.Tree) *types.Type {
		return types.TupleOf(typsOf(t.Child(0))...)
	})
	inhCopy("tupleExpr", 0, aEnv)
	inhConst("tupleExpr", 0, aInIndex, false)

	syn("exprList", aTyps, func(t *attr.Tree) any {
		out := make([]*types.Type, t.NumChildren())
		for i := range out {
			out[i] = typOf(t.Child(i))
		}
		return out
	})
	inhCopy("exprList", -1, aEnv)
	inh("exprList", -1, aInIndex, func(p *attr.Tree, c int) any { return p.Inh(aInIndex) })

	inhCopy("idxArgList", -1, aEnv)

	syn("idxScalar", aArgInfo, func(t *attr.Tree) any {
		ty := typOf(t.Child(0))
		switch {
		case ty.Kind == types.Int:
			return idxInfo{idxScalarK}
		case ty.Kind == types.Matrix && ty.Elem.Kind == types.Bool && ty.Rank == 1:
			return idxInfo{idxMaskK} // logical indexing, §III-A.3(d)
		case ty.Kind == types.Invalid:
			return idxInfo{idxBadK}
		}
		return idxInfo{idxBadK}
	})
	syn("idxScalar", aOwnErrs, func(t *attr.Tree) any {
		ty := typOf(t.Child(0))
		if ty.Kind == types.Int || ty.Kind == types.Invalid {
			return errlist(nil)
		}
		if ty.Kind == types.Matrix && ty.Elem.Kind == types.Bool && ty.Rank == 1 {
			return errlist(nil)
		}
		return errlist{errf(t.Value.(ast.Node), "index must be an int or a rank-1 bool matrix (logical index), got %s", ty)}
	})
	inhCopy("idxScalar", 0, aEnv)
	inhConst("idxScalar", 0, aInIndex, true)

	syn("idxRange", aArgInfo, func(t *attr.Tree) any {
		lo, hi := typOf(t.Child(0)), typOf(t.Child(1))
		if (lo.Kind == types.Int || lo.Kind == types.Invalid) && (hi.Kind == types.Int || hi.Kind == types.Invalid) {
			return idxInfo{idxRangeK}
		}
		return idxInfo{idxBadK}
	})
	syn("idxRange", aOwnErrs, func(t *attr.Tree) any {
		var errs errlist
		for i := 0; i < 2; i++ {
			if ty := typOf(t.Child(i)); ty.Kind != types.Int && ty.Kind != types.Invalid {
				errs = append(errs, errf(t.Value.(ast.Node), "range index bound must be int, got %s", ty))
			}
		}
		return errs
	})
	inhCopy("idxRange", -1, aEnv)
	inhConst("idxRange", 0, aInIndex, true)
	inhConst("idxRange", 1, aInIndex, true)

	syn("idxAll", aArgInfo, func(t *attr.Tree) any { return idxInfo{idxAllK} })
	noErrs("idxAll")

	s.addErrsProjections()
	return s.AGSpec
}

// addErrsProjections generates, for every production in the spec, the
// aErrs equation: own errors plus the concatenation of all children's
// errors. On nonterminals that carry aTyp it demands that first, so a
// tree whose root aErrs is evaluated has a type on every such node —
// what Check reads Info.Types from.
func (b specBuilder) addErrsProjections() {
	for _, p := range b.Prods {
		hasTyp := p.LHS == ntExpr || p.LHS == ntWithOp
		b.syn(p.Name, aErrs, func(t *attr.Tree) any {
			if hasTyp {
				t.Syn(aTyp)
			}
			out := append(errlist(nil), t.Syn(aOwnErrs).(errlist)...)
			for i := 0; i < t.NumChildren(); i++ {
				out = append(out, t.Child(i).Syn(aErrs).(errlist)...)
			}
			return out
		})
	}
}

// fmtNames joins names for error messages.
func fmtNames(names []string) string { return strings.Join(names, ", ") }
