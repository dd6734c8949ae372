// Package parser defines the concrete syntax of the CMINUS host
// language and of each language extension as composable grammar.Spec
// values, with semantic actions that build the shared AST, and provides
// the front-end entry points that scan and parse extended-C source.
//
// Ownership follows the paper's packaging (§VI-A): the tuple syntax is
// part of the host (its "(" initial terminal fails the modular
// determinism analysis as a standalone extension — reproduced in
// internal/grammar tests and cmd/composecheck), while the matrix and
// transform extensions introduce all new syntax behind marker keywords
// (Matrix, with, matrixMap, init, transform) and pass the analysis.
package parser

import (
	"strconv"

	"repro/internal/ast"
	"repro/internal/grammar"
	"repro/internal/lexer"
)

// Owner tags for the specs defined in this package.
const (
	OwnerHost      = grammar.HostOwner
	OwnerMatrix    = "matrix"
	OwnerTransform = "transform"
	OwnerTuple     = "tuple"      // standalone (fails the MDA, like the paper's)
	OwnerTupleFix  = "tuplefixed" // standalone with (| |) markers (passes)
	OwnerRc        = "refcount"
)

// --- small helpers shared by all spec builders ---

func tk(v any) *grammar.Token { return v.(*grammar.Token) }
func ex(v any) ast.Expr       { return v.(ast.Expr) }
func st(v any) ast.Stmt       { return v.(ast.Stmt) }
func ty(v any) ast.TypeExpr   { return v.(ast.TypeExpr) }
func prim(v any) ast.PrimKind { return v.(ast.PrimKind) }
func exprs(v any) []ast.Expr  { return v.([]ast.Expr) }
func stmts(v any) []ast.Stmt  { return v.([]ast.Stmt) }
func idents(v any) []string   { return v.([]string) }

// fields splits a space-separated RHS; "" means the empty production.
func fields(rhs string) []string {
	if rhs == "" {
		return nil
	}
	var out []string
	start := -1
	for i := 0; i <= len(rhs); i++ {
		if i == len(rhs) || rhs[i] == ' ' {
			if start >= 0 {
				out = append(out, rhs[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return out
}

type specBuilder struct {
	spec *grammar.Spec
}

func newSpecBuilder(owner string) *specBuilder {
	return &specBuilder{spec: &grammar.Spec{Name: owner}}
}

func (b *specBuilder) term(t *grammar.Terminal) *grammar.Terminal {
	b.spec.Terminals = append(b.spec.Terminals, t)
	return t
}

func (b *specBuilder) nts(names ...string) {
	for _, n := range names {
		b.spec.Nonterminals = append(b.spec.Nonterminals,
			&grammar.Nonterminal{Name: n, Owner: b.spec.Name})
	}
}

func (b *specBuilder) rule(lhs, rhs string, act func(c []any) any) *grammar.Production {
	p := &grammar.Production{
		LHS: lhs, RHS: fields(rhs), Owner: b.spec.Name, Action: act,
	}
	b.spec.Productions = append(b.spec.Productions, p)
	return p
}

// ruleP is rule with an explicit %prec terminal.
func (b *specBuilder) ruleP(lhs, rhs, precTerm string, act func(c []any) any) *grammar.Production {
	p := b.rule(lhs, rhs, act)
	p.PrecTerm = precTerm
	return p
}

// StartSymbol is the grammar's start nonterminal.
const StartSymbol = "Program"

// HostSpec builds the CMINUS host-language specification: a C subset
// with functions, scalar types, control flow, expressions with C
// precedence, indexing syntax (C's comma-expression inside brackets
// makes a[i,j] host syntax), and the tuple forms packaged with the
// host per §VI-A.
func HostSpec() *grammar.Spec { return buildHost(true) }

// HostSpecCore is the host without the tuple forms. It exists so that
// cmd/composecheck can run the modular determinism analysis on the
// tuple syntax as a standalone extension and reproduce the paper's
// finding that it fails (its initial terminal is the host's "(").
func HostSpecCore() *grammar.Spec { return buildHost(false) }

func buildHost(withTuples bool) *grammar.Spec {
	b := newSpecBuilder(OwnerHost)

	// --- terminals ---
	for _, s := range lexer.StandardSkips(OwnerHost) {
		b.term(s)
	}
	b.term(grammar.Pat("Identifier", "[a-zA-Z_][a-zA-Z0-9_]*", OwnerHost))
	b.term(grammar.Pat("FloatLit", "[0-9]+\\.[0-9]+", OwnerHost))
	b.term(grammar.Pat("IntLit", "[0-9]+", OwnerHost))
	str := grammar.Pat("StringLit", "\"[^\"\n]*\"", OwnerHost)
	str.Delimited = "string literal"
	b.term(str)
	for _, kw := range []string{"int", "float", "bool", "void", "while", "for",
		"return", "break", "continue", "true", "false", "end"} {
		b.term(grammar.Lit(kw, kw, OwnerHost))
	}
	// if/else carry pseudo-precedence so the dangling else resolves to
	// shift without a recorded conflict (yacc's LOWER_THAN_ELSE trick).
	ifT := grammar.Lit("if", "if", OwnerHost)
	ifT.Prec = 1
	ifT.Assoc = AssocR
	b.term(ifT)
	elseT := grammar.Lit("else", "else", OwnerHost)
	elseT.Prec = 2
	elseT.Assoc = AssocR
	b.term(elseT)

	for _, p := range []string{"{", "}", "(", ")", ",", ";", "=", "++", "--"} {
		b.term(grammar.Lit(p, p, OwnerHost))
	}
	b.term(grammar.Lit("::", "::", OwnerHost))
	b.term(grammar.Lit(":", ":", OwnerHost))
	b.term(grammar.Lit("]", "]", OwnerHost))

	b.term(grammar.LitOp("||", "||", OwnerHost, 1, AssocL))
	b.term(grammar.LitOp("&&", "&&", OwnerHost, 2, AssocL))
	b.term(grammar.LitOp("==", "==", OwnerHost, 3, AssocL))
	b.term(grammar.LitOp("!=", "!=", OwnerHost, 3, AssocL))
	b.term(grammar.LitOp("<", "<", OwnerHost, 4, AssocL))
	b.term(grammar.LitOp("<=", "<=", OwnerHost, 4, AssocL))
	b.term(grammar.LitOp(">", ">", OwnerHost, 4, AssocL))
	b.term(grammar.LitOp(">=", ">=", OwnerHost, 4, AssocL))
	b.term(grammar.LitOp("+", "+", OwnerHost, 5, AssocL))
	b.term(grammar.LitOp("-", "-", OwnerHost, 5, AssocL))
	b.term(grammar.LitOp("*", "*", OwnerHost, 6, AssocL))
	b.term(grammar.LitOp("/", "/", OwnerHost, 6, AssocL))
	b.term(grammar.LitOp("%", "%", OwnerHost, 6, AssocL))
	b.term(grammar.LitOp(".*", ".*", OwnerHost, 6, AssocL))
	b.term(grammar.LitOp("!", "!", OwnerHost, 7, AssocR))
	b.term(grammar.LitOp("[", "[", OwnerHost, 8, AssocL))

	// --- nonterminals ---
	b.nts(StartSymbol, "DeclList", "Decl", "ParamListOpt", "ParamList", "Param",
		"Type", "PrimT",
		"Block", "StmtListOpt", "StmtList", "Stmt", "SimpleAssign",
		"ForInit", "ForPost", "ExprOpt",
		"Expr", "ExprList", "ArgListOpt", "IndexArgs", "IndexArg")
	if withTuples {
		b.nts("TypeList")
	}

	// --- productions ---
	b.rule(StartSymbol, "DeclList", func(c []any) any {
		return &ast.Program{Decls: c[0].([]ast.Decl)}
	})
	b.rule("DeclList", "Decl", func(c []any) any { return []ast.Decl{c[0].(ast.Decl)} })
	b.rule("DeclList", "DeclList Decl", func(c []any) any {
		return append(c[0].([]ast.Decl), c[1].(ast.Decl))
	})

	b.rule("Decl", "Type Identifier ( ParamListOpt ) Block", func(c []any) any {
		return &ast.FuncDecl{Ret: ty(c[0]), Name: tk(c[1]).Text,
			Params: c[3].([]*ast.Param), Body: c[5].(*ast.BlockStmt)}
	})
	b.rule("Decl", "Type Identifier ;", func(c []any) any {
		return &ast.GlobalVarDecl{Type: ty(c[0]), Name: tk(c[1]).Text}
	})
	b.rule("Decl", "Type Identifier = Expr ;", func(c []any) any {
		return &ast.GlobalVarDecl{Type: ty(c[0]), Name: tk(c[1]).Text, Init: ex(c[3])}
	})

	b.rule("ParamListOpt", "", func(c []any) any { return []*ast.Param{} })
	b.rule("ParamListOpt", "ParamList", nil)
	b.rule("ParamList", "Param", func(c []any) any { return []*ast.Param{c[0].(*ast.Param)} })
	b.rule("ParamList", "ParamList , Param", func(c []any) any {
		return append(c[0].([]*ast.Param), c[2].(*ast.Param))
	})
	b.rule("Param", "Type Identifier", func(c []any) any {
		return &ast.Param{Type: ty(c[0]), Name: tk(c[1]).Text}
	})

	// Types. Matrix types are added by the matrix extension spec.
	b.rule("Type", "PrimT", func(c []any) any { return &ast.PrimType{Kind: prim(c[0])} })
	b.rule("PrimT", "int", func(c []any) any { return ast.PrimInt })
	b.rule("PrimT", "float", func(c []any) any { return ast.PrimFloat })
	b.rule("PrimT", "bool", func(c []any) any { return ast.PrimBool })
	b.rule("PrimT", "void", func(c []any) any { return ast.PrimVoid })
	if withTuples {
		// Tuple types (packaged with the host, per the paper): (T1, T2, ...)
		b.rule("Type", "( Type , TypeList )", func(c []any) any {
			elems := append([]ast.TypeExpr{ty(c[1])}, c[3].([]ast.TypeExpr)...)
			return &ast.TupleType{Elems: elems}
		})
		b.rule("TypeList", "Type", func(c []any) any { return []ast.TypeExpr{ty(c[0])} })
		b.rule("TypeList", "TypeList , Type", func(c []any) any {
			return append(c[0].([]ast.TypeExpr), c[2].(ast.TypeExpr))
		})
	}

	// Blocks and statements.
	b.rule("Block", "{ StmtListOpt }", func(c []any) any {
		return &ast.BlockStmt{Stmts: stmts(c[1])}
	})
	b.rule("StmtListOpt", "", func(c []any) any { return []ast.Stmt{} })
	b.rule("StmtListOpt", "StmtList", nil)
	b.rule("StmtList", "Stmt", func(c []any) any { return []ast.Stmt{st(c[0])} })
	b.rule("StmtList", "StmtList Stmt", func(c []any) any {
		return append(stmts(c[0]), st(c[1]))
	})

	b.rule("Stmt", "Block", nil)
	b.rule("Stmt", "Type Identifier ;", func(c []any) any {
		return &ast.DeclStmt{Type: ty(c[0]), Name: tk(c[1]).Text}
	})
	b.rule("Stmt", "Type Identifier = Expr ;", func(c []any) any {
		return &ast.DeclStmt{Type: ty(c[0]), Name: tk(c[1]).Text, Init: ex(c[3])}
	})
	b.rule("Stmt", "SimpleAssign ;", func(c []any) any { return c[0] })
	b.rule("SimpleAssign", "Expr = Expr", func(c []any) any {
		return assignFromExpr(ex(c[0]), ex(c[2]))
	})
	b.rule("Stmt", "Expr ;", func(c []any) any { return &ast.ExprStmt{X: ex(c[0])} })
	b.rule("Stmt", "Expr ++ ;", func(c []any) any { return incDec(ex(c[0]), ast.OpAdd) })
	b.rule("Stmt", "Expr -- ;", func(c []any) any { return incDec(ex(c[0]), ast.OpSub) })

	b.ruleP("Stmt", "if ( Expr ) Stmt", "if", func(c []any) any {
		return &ast.IfStmt{Cond: ex(c[2]), Then: st(c[4])}
	})
	b.rule("Stmt", "if ( Expr ) Stmt else Stmt", func(c []any) any {
		return &ast.IfStmt{Cond: ex(c[2]), Then: st(c[4]), Else: st(c[6])}
	})
	b.rule("Stmt", "while ( Expr ) Stmt", func(c []any) any {
		return &ast.WhileStmt{Cond: ex(c[2]), Body: st(c[4])}
	})
	b.rule("Stmt", "for ( ForInit ; ExprOpt ; ForPost ) Stmt", func(c []any) any {
		f := &ast.ForStmt{Cond: &ast.BoolLit{Value: true}, Body: st(c[8])}
		if c[2] != nil {
			f.Init = c[2].(ast.Stmt)
		}
		if c[4] != nil {
			f.Cond = ex(c[4])
		}
		if c[6] != nil {
			f.Post = c[6].(ast.Stmt)
		}
		return f
	})
	b.rule("ForInit", "", func(c []any) any { return nil })
	b.rule("ForInit", "Type Identifier = Expr", func(c []any) any {
		return &ast.DeclStmt{Type: ty(c[0]), Name: tk(c[1]).Text, Init: ex(c[3])}
	})
	b.rule("ForInit", "SimpleAssign", nil)
	b.rule("ExprOpt", "", func(c []any) any { return nil })
	b.rule("ExprOpt", "Expr", nil)
	b.rule("ForPost", "", func(c []any) any { return nil })
	b.rule("ForPost", "SimpleAssign", nil)
	b.rule("ForPost", "Expr ++", func(c []any) any { return incDec(ex(c[0]), ast.OpAdd) })
	b.rule("ForPost", "Expr --", func(c []any) any { return incDec(ex(c[0]), ast.OpSub) })

	b.rule("Stmt", "return Expr ;", func(c []any) any { return &ast.ReturnStmt{Value: ex(c[1])} })
	b.rule("Stmt", "return ;", func(c []any) any { return &ast.ReturnStmt{} })
	b.rule("Stmt", "break ;", func(c []any) any { return &ast.BreakStmt{} })
	b.rule("Stmt", "continue ;", func(c []any) any { return &ast.ContinueStmt{} })

	// Expressions.
	binary := func(op ast.BinOp) func(c []any) any {
		return func(c []any) any { return &ast.BinaryExpr{Op: op, L: ex(c[0]), R: ex(c[2])} }
	}
	for _, e := range []struct {
		tok string
		op  ast.BinOp
	}{
		{"||", ast.OpOr}, {"&&", ast.OpAnd},
		{"==", ast.OpEq}, {"!=", ast.OpNe},
		{"<", ast.OpLt}, {"<=", ast.OpLe}, {">", ast.OpGt}, {">=", ast.OpGe},
		{"+", ast.OpAdd}, {"-", ast.OpSub},
		{"*", ast.OpMul}, {"/", ast.OpDiv}, {"%", ast.OpMod}, {".*", ast.OpElemMul},
	} {
		b.rule("Expr", "Expr "+e.tok+" Expr", binary(e.op))
	}
	b.rule("Expr", "! Expr", func(c []any) any {
		return &ast.UnaryExpr{Op: ast.OpNot, X: ex(c[1])}
	})
	b.ruleP("Expr", "- Expr", "!", func(c []any) any {
		return &ast.UnaryExpr{Op: ast.OpNeg, X: ex(c[1])}
	})
	b.rule("Expr", "Identifier", func(c []any) any { return &ast.Ident{Name: tk(c[0]).Text} })
	b.rule("Expr", "IntLit", func(c []any) any {
		n, _ := strconv.ParseInt(tk(c[0]).Text, 10, 64)
		return &ast.IntLit{Value: n}
	})
	b.rule("Expr", "FloatLit", func(c []any) any {
		f, _ := strconv.ParseFloat(tk(c[0]).Text, 64)
		return &ast.FloatLit{Value: f}
	})
	b.rule("Expr", "true", func(c []any) any { return &ast.BoolLit{Value: true} })
	b.rule("Expr", "false", func(c []any) any { return &ast.BoolLit{Value: false} })
	b.rule("Expr", "StringLit", func(c []any) any {
		s := tk(c[0]).Text
		return &ast.StrLit{Value: s[1 : len(s)-1]}
	})
	b.rule("Expr", "Identifier ( ArgListOpt )", func(c []any) any {
		return &ast.CallExpr{Fun: tk(c[0]).Text, Args: exprs(c[2])}
	})
	if withTuples {
		// Parenthesized expression / anonymous tuple (tuple forms are
		// host syntax; a 1-element list is plain grouping).
		b.rule("Expr", "( ExprList )", func(c []any) any {
			es := exprs(c[1])
			if len(es) == 1 {
				return es[0]
			}
			return &ast.TupleExpr{Elems: es}
		})
	} else {
		b.rule("Expr", "( Expr )", func(c []any) any { return c[1] })
	}
	// Cast.
	b.ruleP("Expr", "( PrimT ) Expr", "!", func(c []any) any {
		return &ast.CastExpr{To: prim(c[1]), X: ex(c[3])}
	})
	// MATLAB-style indexing with C comma syntax: m[i, 0:4, :, mask].
	b.ruleP("Expr", "Expr [ IndexArgs ]", "[", func(c []any) any {
		return &ast.IndexExpr{X: ex(c[0]), Args: c[2].([]ast.IndexArg)}
	})
	b.rule("IndexArgs", "IndexArg", func(c []any) any { return []ast.IndexArg{c[0].(ast.IndexArg)} })
	b.rule("IndexArgs", "IndexArgs , IndexArg", func(c []any) any {
		return append(c[0].([]ast.IndexArg), c[2].(ast.IndexArg))
	})
	b.rule("IndexArg", "Expr", func(c []any) any { return &ast.IdxScalar{X: ex(c[0])} })
	b.rule("IndexArg", "Expr : Expr", func(c []any) any {
		return &ast.IdxRange{Lo: ex(c[0]), Hi: ex(c[2])}
	})
	b.rule("IndexArg", "Expr :: Expr", func(c []any) any {
		return &ast.IdxRange{Lo: ex(c[0]), Hi: ex(c[2])}
	})
	b.rule("IndexArg", ":", func(c []any) any { return &ast.IdxAll{} })
	// 'end' in index expressions.
	b.rule("Expr", "end", func(c []any) any { return &ast.EndExpr{} })
	// Range vector literal [lo :: hi] (Fig 8 line 27).
	b.rule("Expr", "[ Expr :: Expr ]", func(c []any) any {
		return &ast.RangeExpr{Lo: ex(c[1]), Hi: ex(c[3])}
	})

	b.rule("ExprList", "Expr", func(c []any) any { return []ast.Expr{ex(c[0])} })
	b.rule("ExprList", "ExprList , Expr", func(c []any) any {
		return append(exprs(c[0]), ex(c[2]))
	})
	b.rule("ArgListOpt", "", func(c []any) any { return []ast.Expr{} })
	b.rule("ArgListOpt", "ExprList", nil)

	return b.spec
}

// Associativity aliases to keep spec builders readable.
const (
	AssocL = grammar.AssocLeft
	AssocR = grammar.AssocRight
)

// assignFromExpr turns "lhsExpr = rhs" into an AssignStmt, splitting a
// tuple LHS into a destructuring target list.
func assignFromExpr(lhs ast.Expr, rhs ast.Expr) ast.Stmt {
	if t, ok := lhs.(*ast.TupleExpr); ok {
		return &ast.AssignStmt{LHS: t.Elems, RHS: rhs}
	}
	return &ast.AssignStmt{LHS: []ast.Expr{lhs}, RHS: rhs}
}

// incDec desugars x++ / x-- to x = x ± 1.
func incDec(lhs ast.Expr, op ast.BinOp) ast.Stmt {
	return &ast.AssignStmt{
		LHS: []ast.Expr{lhs},
		RHS: &ast.BinaryExpr{Op: op, L: lhs, R: &ast.IntLit{Value: 1}},
	}
}
