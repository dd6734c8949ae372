// Mapping from the AST to decorated attribute-grammar trees. Each AST
// node becomes an attr.Tree whose production identifies the node kind
// and whose Value is the AST node itself, so attribute equations can
// read literal values, identifier names, declared types and spans.
package sem

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/attr"
)

// BuildTree converts a parsed program into a decorated tree for g, and
// counts the expression nodes it made.
func BuildTree(g *attr.Grammar, prog *ast.Program) (root *attr.Tree, exprs int) {
	b := &treeBuilder{g: g}
	kids := make([]*attr.Tree, len(prog.Decls))
	for i, d := range prog.Decls {
		kids[i] = b.decl(d)
	}
	return g.MustTree("program", prog, kids...), b.exprs
}

type treeBuilder struct {
	g     *attr.Grammar
	exprs int
}

func (b *treeBuilder) decl(d ast.Decl) *attr.Tree {
	switch d := d.(type) {
	case *ast.FuncDecl:
		return b.g.MustTree("funcDecl", d, b.stmt(d.Body))
	case *ast.GlobalVarDecl:
		if d.Init != nil {
			return b.g.MustTree("globalVarInit", d, b.expr(d.Init))
		}
		return b.g.MustTree("globalVar", d)
	}
	panic(fmt.Sprintf("sem: unknown decl %T", d))
}

func (b *treeBuilder) stmt(s ast.Stmt) *attr.Tree {
	switch s := s.(type) {
	case nil:
		return b.g.MustTree("emptyStmt", nil)
	case *ast.BlockStmt:
		kids := make([]*attr.Tree, len(s.Stmts))
		for i, st := range s.Stmts {
			kids[i] = b.stmt(st)
		}
		return b.g.MustTree("block", s, kids...)
	case *ast.DeclStmt:
		if s.Init != nil {
			return b.g.MustTree("declStmtInit", s, b.expr(s.Init))
		}
		return b.g.MustTree("declStmt", s)
	case *ast.AssignStmt:
		return b.g.MustTree("assign", s, b.exprList(s.LHS), b.expr(s.RHS))
	case *ast.IfStmt:
		if s.Else != nil {
			return b.g.MustTree("ifElseStmt", s, b.expr(s.Cond), b.stmt(s.Then), b.stmt(s.Else))
		}
		return b.g.MustTree("ifStmt", s, b.expr(s.Cond), b.stmt(s.Then))
	case *ast.WhileStmt:
		return b.g.MustTree("whileStmt", s, b.expr(s.Cond), b.stmt(s.Body))
	case *ast.ForStmt:
		return b.g.MustTree("forStmt", s, b.stmt(s.Init), b.expr(s.Cond), b.stmt(s.Post), b.stmt(s.Body))
	case *ast.ReturnStmt:
		if s.Value != nil {
			return b.g.MustTree("returnStmt", s, b.expr(s.Value))
		}
		return b.g.MustTree("returnVoid", s)
	case *ast.ExprStmt:
		return b.g.MustTree("exprStmt", s, b.expr(s.X))
	case *ast.BreakStmt:
		return b.g.MustTree("breakStmt", s)
	case *ast.ContinueStmt:
		return b.g.MustTree("continueStmt", s)
	case *ast.SpawnStmt:
		return b.g.MustTree("spawnStmt", s, b.expr(s.Call))
	case *ast.SyncStmt:
		return b.g.MustTree("syncStmt", s)
	}
	panic(fmt.Sprintf("sem: unknown stmt %T", s))
}

func (b *treeBuilder) exprList(es []ast.Expr) *attr.Tree {
	kids := make([]*attr.Tree, len(es))
	for i, e := range es {
		kids[i] = b.expr(e)
	}
	return b.g.MustTree("exprList", es, kids...)
}

func (b *treeBuilder) expr(e ast.Expr) *attr.Tree {
	b.exprs++
	switch e := e.(type) {
	case *ast.IntLit:
		return b.g.MustTree("intLit", e)
	case *ast.FloatLit:
		return b.g.MustTree("floatLit", e)
	case *ast.BoolLit:
		return b.g.MustTree("boolLit", e)
	case *ast.StrLit:
		return b.g.MustTree("strLit", e)
	case *ast.Ident:
		return b.g.MustTree("ident", e)
	case *ast.BinaryExpr:
		return b.g.MustTree("binary", e, b.expr(e.L), b.expr(e.R))
	case *ast.UnaryExpr:
		return b.g.MustTree("unary", e, b.expr(e.X))
	case *ast.CallExpr:
		return b.g.MustTree("call", e, b.exprList(e.Args))
	case *ast.CastExpr:
		return b.g.MustTree("cast", e, b.expr(e.X))
	case *ast.IndexExpr:
		kids := make([]*attr.Tree, len(e.Args))
		for i, a := range e.Args {
			kids[i] = b.idxArg(a)
		}
		return b.g.MustTree("index", e, b.expr(e.X), b.g.MustTree("idxArgList", e.Args, kids...))
	case *ast.EndExpr:
		return b.g.MustTree("endExpr", e)
	case *ast.RangeExpr:
		return b.g.MustTree("rangeExpr", e, b.expr(e.Lo), b.expr(e.Hi))
	case *ast.TupleExpr:
		return b.g.MustTree("tupleExpr", e, b.exprList(e.Elems))
	case *ast.WithLoop:
		return b.g.MustTree("withLoop", e,
			b.exprList(e.Lower), b.exprList(e.Upper), b.withOp(e.Op), b.suffix(e.Transforms))
	case *ast.MatrixMap:
		return b.g.MustTree("matrixMap", e, b.expr(e.Arg))
	case *ast.InitExpr:
		return b.g.MustTree("initExpr", e, b.exprList(e.Dims))
	}
	panic(fmt.Sprintf("sem: unknown expr %T", e))
}

func (b *treeBuilder) idxArg(a ast.IndexArg) *attr.Tree {
	switch a := a.(type) {
	case *ast.IdxScalar:
		return b.g.MustTree("idxScalar", a, b.expr(a.X))
	case *ast.IdxRange:
		return b.g.MustTree("idxRange", a, b.expr(a.Lo), b.expr(a.Hi))
	case *ast.IdxAll:
		return b.g.MustTree("idxAll", a)
	}
	panic(fmt.Sprintf("sem: unknown index arg %T", a))
}

func (b *treeBuilder) withOp(op ast.WithOp) *attr.Tree {
	switch op := op.(type) {
	case *ast.GenArrayOp:
		return b.g.MustTree("genarrayOp", op, b.exprList(op.Shape), b.expr(op.Body))
	case *ast.FoldOp:
		return b.g.MustTree("foldOp", op, b.expr(op.Init), b.expr(op.Body))
	}
	panic(fmt.Sprintf("sem: unknown with-op %T", op))
}

func (b *treeBuilder) suffix(clauses []ast.TransformClause) *attr.Tree {
	if len(clauses) == 0 {
		return b.g.MustTree("emptySuffix", nil)
	}
	kids := make([]*attr.Tree, len(clauses))
	for i, c := range clauses {
		kids[i] = b.clause(c)
	}
	return b.g.MustTree("transformSuffix", clauses, kids...)
}

func (b *treeBuilder) clause(c ast.TransformClause) *attr.Tree {
	switch c := c.(type) {
	case *ast.SplitClause:
		return b.g.MustTree("splitClause", c)
	case *ast.VectorizeClause:
		return b.g.MustTree("vectorizeClause", c)
	case *ast.ParallelizeClause:
		return b.g.MustTree("parallelizeClause", c)
	case *ast.ReorderClause:
		return b.g.MustTree("reorderClause", c)
	case *ast.TileClause:
		return b.g.MustTree("tileClause", c)
	case *ast.UnrollClause:
		return b.g.MustTree("unrollClause", c)
	}
	panic(fmt.Sprintf("sem: unknown transform clause %T", c))
}
