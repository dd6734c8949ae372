// Builtin library functions: the host's dimSize / readMatrix /
// writeMatrix / print and the reference-counting extension's
// rcnew / rcget / rcset / rcrelease.
package interp

import (
	"repro/internal/ast"
	"repro/internal/matrix"
	"repro/internal/sem"
	"repro/internal/types"
)

func (c *ctx) evalBuiltin(e *ast.CallExpr, args []any) (any, error) {
	switch e.Fun {
	case "dimSize":
		m, ok := args[0].(*matrix.Matrix)
		if !ok || m == nil {
			return nil, Errorf(e, "dimSize of a non-matrix or unassigned matrix")
		}
		d, ok := args[1].(int64)
		if !ok {
			return nil, Errorf(e, "dimSize dimension must be int")
		}
		n, err := m.DimSize(int(d))
		if err != nil {
			return nil, WrapError(e, err)
		}
		return int64(n), nil

	case "readMatrix":
		name, ok := args[0].(string)
		if !ok {
			return nil, Errorf(e, "readMatrix expects a file name string")
		}
		return c.i.ReadMatrixFile(e, name, c.pool)

	case "writeMatrix":
		name, _ := args[0].(string)
		m, ok := args[1].(*matrix.Matrix)
		if !ok || m == nil {
			return nil, Errorf(e, "writeMatrix of a non-matrix or unassigned matrix")
		}
		return nil, c.i.WriteMatrixFile(e, name, m)

	case "print":
		c.i.PrintValue(args[0])
		return nil, nil

	case "rcnew":
		cell, h := c.i.RcNew(args[0])
		// The fresh count of 1 is the expression's temporary
		// reference; binding takes its own, and the temporary is
		// dropped when the enclosing statement finishes.
		c.pending = append(c.pending, h)
		return cell, nil

	case "rcget":
		return c.i.RcGet(e, args[0])

	case "rcset":
		return nil, c.i.RcSet(e, args[0], args[1], rcElemType(c.i.info, e.Args[0]))

	case "rcrelease":
		return nil, c.i.RcRelease(e, args[0])
	}
	return nil, Errorf(e, "undeclared function %q", e.Fun)
}

// rcElemType resolves the declared element type of an rc-pointer
// expression, or nil when unrecorded.
func rcElemType(info *sem.Info, e ast.Expr) *types.Type {
	if ty := info.TypeOf(e); ty.Kind == types.RcPtr {
		return ty.Elem
	}
	return nil
}
