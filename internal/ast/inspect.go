package ast

// Inspect walks the tree rooted at n in pre-order: it calls f(n) and,
// if f returns true, inspects each of n's children in evaluation order
// (an assignment's right-hand side before its targets, a for loop's
// body before its post statement). A nil n — an absent optional child —
// is skipped, so f never sees nil. It stops descending wherever f
// returns false, like go/ast.Inspect. Nodes no case below names
// (literals, identifiers, primitive and matrix types, break, continue,
// sync, and the clauses without a factor) are leaves.
//
// This is the one list of a node's children: a node kind or a field an
// extension adds is taught here, and every pass built on Inspect sees it.
func Inspect(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	switch n := n.(type) {
	case *Program:
		inspectAll(n.Decls, f)
	case *FuncDecl:
		Inspect(n.Ret, f)
		inspectAll(n.Params, f)
		if n.Body != nil {
			Inspect(n.Body, f)
		}
	case *Param:
		Inspect(n.Type, f)
	case *GlobalVarDecl:
		Inspect(n.Type, f)
		Inspect(n.Init, f)

	case *TupleType:
		inspectAll(n.Elems, f)
	case *RcPtrType:
		Inspect(n.Elem, f)

	case *BlockStmt:
		inspectAll(n.Stmts, f)
	case *DeclStmt:
		Inspect(n.Type, f)
		Inspect(n.Init, f)
	case *AssignStmt:
		Inspect(n.RHS, f)
		inspectAll(n.LHS, f)
	case *IfStmt:
		Inspect(n.Cond, f)
		Inspect(n.Then, f)
		Inspect(n.Else, f)
	case *WhileStmt:
		Inspect(n.Cond, f)
		Inspect(n.Body, f)
	case *ForStmt:
		Inspect(n.Init, f)
		Inspect(n.Cond, f)
		Inspect(n.Body, f)
		Inspect(n.Post, f)
	case *ReturnStmt:
		Inspect(n.Value, f)
	case *ExprStmt:
		Inspect(n.X, f)
	case *SpawnStmt:
		Inspect(n.Call, f)

	case *BinaryExpr:
		Inspect(n.L, f)
		Inspect(n.R, f)
	case *UnaryExpr:
		Inspect(n.X, f)
	case *CallExpr:
		inspectAll(n.Args, f)
	case *CastExpr:
		Inspect(n.X, f)
	case *IndexExpr:
		Inspect(n.X, f)
		inspectAll(n.Args, f)
	case *IdxScalar:
		Inspect(n.X, f)
	case *IdxRange:
		Inspect(n.Lo, f)
		Inspect(n.Hi, f)
	case *RangeExpr:
		Inspect(n.Lo, f)
		Inspect(n.Hi, f)
	case *WithLoop:
		inspectAll(n.Lower, f)
		inspectAll(n.Upper, f)
		Inspect(n.Op, f)
		inspectAll(n.Transforms, f)
	case *GenArrayOp:
		inspectAll(n.Shape, f)
		Inspect(n.Body, f)
	case *FoldOp:
		Inspect(n.Init, f)
		Inspect(n.Body, f)
	case *MatrixMap:
		Inspect(n.Arg, f)
		inspectAll(n.Dims, f)
	case *InitExpr:
		if n.Type != nil {
			Inspect(n.Type, f)
		}
		inspectAll(n.Dims, f)
	case *TupleExpr:
		inspectAll(n.Elems, f)

	case *SplitClause:
		Inspect(n.Factor, f)
	case *TileClause:
		Inspect(n.FactorA, f)
		Inspect(n.FactorB, f)
	case *UnrollClause:
		Inspect(n.Factor, f)
	}
}

func inspectAll[N Node](ns []N, f func(Node) bool) {
	for _, n := range ns {
		Inspect(n, f)
	}
}
