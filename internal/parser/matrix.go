// The matrix extension's concrete syntax (§III-A). All of its new
// syntax is introduced by marker keywords — Matrix, with, matrixMap,
// init — which is why it passes the modular determinism analysis
// (§VI-A). Matrix arithmetic and indexing reuse host operator syntax
// with extended semantics, as the paper's extension does.
package parser

import (
	"strconv"

	"repro/internal/ast"
	"repro/internal/grammar"
)

// MatrixSpec builds the matrix extension grammar fragment.
func MatrixSpec() *grammar.Spec {
	b := newSpecBuilder(OwnerMatrix)

	for _, kw := range []string{"Matrix", "with", "genarray", "fold",
		"matrixMap", "matrixMapG", "init", "min", "max"} {
		b.term(grammar.Lit(kw, kw, OwnerMatrix))
	}

	b.nts("WithOp", "FoldTok", "WithSuffix", "IdList")

	// Matrix type: Matrix (int|bool|float) <rank>
	b.rule("Type", "Matrix PrimT < IntLit >", func(c []any) any {
		rank, _ := strconv.Atoi(tk(c[3]).Text)
		return &ast.MatrixType{Elem: prim(c[1]), Rank: rank}
	})

	// With-loop (Fig 2): with ([l...] <= [ids...] < [u...]) Operation
	b.rule("Expr", "with ( [ ExprList ] <= [ IdList ] < [ ExprList ] ) WithOp WithSuffix",
		func(c []any) any {
			return &ast.WithLoop{
				Lower:      exprs(c[3]),
				Ids:        idents(c[7]),
				Upper:      exprs(c[11]),
				Op:         c[14].(ast.WithOp),
				Transforms: c[15].([]ast.TransformClause),
			}
		})
	b.rule("IdList", "Identifier", func(c []any) any { return []string{tk(c[0]).Text} })
	b.rule("IdList", "IdList , Identifier", func(c []any) any {
		return append(idents(c[0]), tk(c[2]).Text)
	})

	b.rule("WithOp", "genarray ( [ ExprList ] , Expr )", func(c []any) any {
		return &ast.GenArrayOp{Shape: exprs(c[3]), Body: ex(c[6])}
	})
	b.rule("WithOp", "fold ( FoldTok , Expr , Expr )", func(c []any) any {
		return &ast.FoldOp{Kind: c[2].(ast.FoldKind), Init: ex(c[4]), Body: ex(c[6])}
	})
	b.rule("FoldTok", "+", func(c []any) any { return ast.FoldAdd })
	b.rule("FoldTok", "*", func(c []any) any { return ast.FoldMul })
	b.rule("FoldTok", "min", func(c []any) any { return ast.FoldMin })
	b.rule("FoldTok", "max", func(c []any) any { return ast.FoldMax })

	// The transform extension hangs its clause list off WithSuffix.
	b.rule("WithSuffix", "", func(c []any) any { return []ast.TransformClause{} })

	// matrixMap(f, m, [dims...]) (§III-A.5)
	b.rule("Expr", "matrixMap ( Identifier , Expr , [ ExprList ] )", func(c []any) any {
		return &ast.MatrixMap{Fun: tk(c[2]).Text, Arg: ex(c[4]), Dims: exprs(c[7])}
	})
	// matrixMapG: the generalization without the same-size restriction
	// (§III-A.5's "being developed", implemented here).
	b.rule("Expr", "matrixMapG ( Identifier , Expr , [ ExprList ] )", func(c []any) any {
		return &ast.MatrixMap{Fun: tk(c[2]).Text, Arg: ex(c[4]), Dims: exprs(c[7]), General: true}
	})

	// init(Matrix T <r>, d0, d1, ...)
	b.rule("Expr", "init ( Type , ExprList )", func(c []any) any {
		mt, _ := ty(c[2]).(*ast.MatrixType) // nil if not a matrix type; sem reports it
		return &ast.InitExpr{Type: mt, Dims: exprs(c[4])}
	})

	return b.spec
}

// TransformSpec builds the explicit program transformation extension
// (§V, Fig 9). Its syntax attaches to the matrix extension's
// WithSuffix nonterminal behind the "transform" marker, so for the
// modular determinism analysis its host is CMINUS ∪ matrix.
func TransformSpec() *grammar.Spec {
	b := newSpecBuilder(OwnerTransform)

	for _, kw := range []string{"transform", "split", "by", "vectorize",
		"parallelize", "reorder", "tile", "unroll"} {
		b.term(grammar.Lit(kw, kw, OwnerTransform))
	}
	b.term(grammar.Lit(".", ".", OwnerTransform))

	b.nts("ClauseList", "Clause")

	b.rule("WithSuffix", "transform ClauseList", func(c []any) any { return c[1] })
	b.rule("ClauseList", "Clause", func(c []any) any {
		return []ast.TransformClause{c[0].(ast.TransformClause)}
	})
	b.rule("ClauseList", "ClauseList . Clause", func(c []any) any {
		return append(c[0].([]ast.TransformClause), c[2].(ast.TransformClause))
	})

	// Transformation factors are integer literals (as in the paper's
	// "split j by 4"); a general expression there would be ambiguous
	// with the surrounding expression grammar.
	b.rule("Clause", "split Identifier by IntLit , Identifier , Identifier", func(c []any) any {
		return &ast.SplitClause{Index: tk(c[1]).Text, Factor: intLitOf(tk(c[3])),
			Inner: tk(c[5]).Text, Outer: tk(c[7]).Text}
	})
	b.rule("Clause", "vectorize Identifier", func(c []any) any {
		return &ast.VectorizeClause{Index: tk(c[1]).Text}
	})
	b.rule("Clause", "parallelize Identifier", func(c []any) any {
		return &ast.ParallelizeClause{Index: tk(c[1]).Text}
	})
	b.rule("Clause", "reorder ( IdList )", func(c []any) any {
		return &ast.ReorderClause{Indices: idents(c[2])}
	})
	b.rule("Clause", "tile Identifier by IntLit , Identifier by IntLit", func(c []any) any {
		return &ast.TileClause{IndexA: tk(c[1]).Text, FactorA: intLitOf(tk(c[3])),
			IndexB: tk(c[5]).Text, FactorB: intLitOf(tk(c[7]))}
	})
	b.rule("Clause", "unroll Identifier by IntLit", func(c []any) any {
		return &ast.UnrollClause{Index: tk(c[1]).Text, Factor: intLitOf(tk(c[3]))}
	})

	return b.spec
}

// intLitOf builds an IntLit expression from a scanned integer token.
func intLitOf(t *grammar.Token) *ast.IntLit {
	n, _ := strconv.ParseInt(t.Text, 10, 64)
	lit := &ast.IntLit{Value: n}
	lit.Loc = t.Span
	return lit
}

// RcSpec builds the reference-counting pointer extension (§III-B):
// the type syntax "refcounted T *" plus explicit allocation, read and
// write forms. The matrix runtime builds on the same internal/rc model
// implicitly; this surface syntax lets programs use RC pointers
// directly.
func RcSpec() *grammar.Spec {
	b := newSpecBuilder(OwnerRc)
	for _, kw := range []string{"refcounted", "rcnew", "rcget", "rcset"} {
		b.term(grammar.Lit(kw, kw, OwnerRc))
	}
	b.rule("Type", "refcounted Type *", func(c []any) any {
		return &ast.RcPtrType{Elem: ty(c[1])}
	})
	b.rule("Expr", "rcnew ( Expr )", func(c []any) any {
		return &ast.CallExpr{Fun: "rcnew", Args: []ast.Expr{ex(c[2])}}
	})
	b.rule("Expr", "rcget ( Expr )", func(c []any) any {
		return &ast.CallExpr{Fun: "rcget", Args: []ast.Expr{ex(c[2])}}
	})
	b.rule("Expr", "rcset ( Expr , Expr )", func(c []any) any {
		return &ast.CallExpr{Fun: "rcset", Args: []ast.Expr{ex(c[2]), ex(c[4])}}
	})
	return b.spec
}

// TupleSpec is the tuple syntax as a standalone extension — exactly
// the packaging the paper says fails the modular determinism analysis
// because its initial terminal is the host's "(". Used only by
// cmd/composecheck and tests; the default pipeline packages tuples
// with the host (HostSpec).
func TupleSpec() *grammar.Spec {
	b := newSpecBuilder(OwnerTuple)
	b.nts("TupleTypeList")
	b.rule("Type", "( Type , TupleTypeList )", func(c []any) any {
		elems := append([]ast.TypeExpr{ty(c[1])}, c[3].([]ast.TypeExpr)...)
		return &ast.TupleType{Elems: elems}
	})
	b.rule("TupleTypeList", "Type", func(c []any) any { return []ast.TypeExpr{ty(c[0])} })
	b.rule("TupleTypeList", "TupleTypeList , Type", func(c []any) any {
		return append(c[0].([]ast.TypeExpr), c[2].(ast.TypeExpr))
	})
	b.rule("Expr", "( Expr , ExprList )", func(c []any) any {
		return &ast.TupleExpr{Elems: append([]ast.Expr{ex(c[1])}, exprs(c[3])...)}
	})
	return b.spec
}

// TupleFixedSpec is the paper's suggested fix: distinct "(|" and "|)"
// marker terminals make the tuple syntax pass the analysis.
func TupleFixedSpec() *grammar.Spec {
	b := newSpecBuilder(OwnerTupleFix)
	b.term(grammar.Lit("(|", "(|", OwnerTupleFix))
	b.term(grammar.Lit("|)", "|)", OwnerTupleFix))
	b.nts("FTupleTypeList")
	b.rule("Type", "(| Type , FTupleTypeList |)", func(c []any) any {
		elems := append([]ast.TypeExpr{ty(c[1])}, c[3].([]ast.TypeExpr)...)
		return &ast.TupleType{Elems: elems}
	})
	b.rule("FTupleTypeList", "Type", func(c []any) any { return []ast.TypeExpr{ty(c[0])} })
	b.rule("FTupleTypeList", "FTupleTypeList , Type", func(c []any) any {
		return append(c[0].([]ast.TypeExpr), c[2].(ast.TypeExpr))
	})
	b.rule("Expr", "(| Expr , ExprList |)", func(c []any) any {
		return &ast.TupleExpr{Elems: append([]ast.Expr{ex(c[1])}, exprs(c[3])...)}
	})
	return b.spec
}
