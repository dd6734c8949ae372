// Runtime support for the Cilk extension (§VIII): spawn evaluates the
// call's arguments eagerly, takes references on matrix arguments, and
// runs the callee in its own goroutine; sync joins the enclosing
// function's outstanding spawns, assigning targets and propagating the
// first error. Every function performs an implicit sync before
// returning, so spawned work never outlives its parent frame — the
// Cilk discipline.
package interp

import (
	"repro/internal/ast"
)

// spawnFuture is one outstanding spawned call.
type spawnFuture struct {
	done   chan struct{}
	val    any
	err    error
	target *binding
	node   ast.Node
	gctx   *ctx // holds the escape reference of val until consumed
	args   []any
}

func (c *ctx) execSpawn(s *ast.SpawnStmt) error {
	call, ok := s.Call.(*ast.CallExpr)
	if !ok {
		return Errorf(s, "spawn requires a function call")
	}
	sig, ok := c.i.info.Funcs[call.Fun]
	if !ok {
		return Errorf(s, "spawn requires a user-defined function, %q is not one", call.Fun)
	}
	args := make([]any, len(call.Args))
	for k, a := range call.Args {
		v, err := c.evalExpr(a)
		if err != nil {
			return err
		}
		// The goroutine owns a reference to each argument until the
		// call completes (the caller may reassign its variables in the
		// meantime).
		c.i.BindValue(v)
		args[k] = v
	}
	var target *binding
	if s.Target != "" {
		b, found := c.frame.lookup(s.Target)
		if !found {
			return Errorf(s, "spawn target %q is not declared", s.Target)
		}
		target = b
	}
	fut := &spawnFuture{done: make(chan struct{}), target: target, node: s, args: args}
	gctx := &ctx{i: c.i, pool: nil, depth: c.depth}
	fut.gctx = gctx
	go func() {
		defer close(fut.done)
		// A panic in spawned work must not kill the process — this
		// goroutine is outside both the pool's recovery and the
		// interpreter's top-level recover. Convert it to a trap the
		// joining sync propagates like any other spawn failure.
		defer func() {
			if r := recover(); r != nil {
				fut.err = Recovered(s, r)
			}
		}()
		fut.val, fut.err = gctx.callFunction(sig.Decl, args, s)
	}()
	c.futures = append(c.futures, fut)
	return nil
}

// syncFutures joins all outstanding spawns of this context (the
// semantics of `sync;` and of the implicit sync at function exit).
func (c *ctx) syncFutures() error {
	var firstErr error
	for _, fut := range c.futures {
		<-fut.done
		if fut.err != nil {
			if firstErr == nil {
				firstErr = fut.err
			}
		} else if fut.target != nil {
			cv, err := CoerceValue(fut.node, fut.target.ty, fut.val)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				c.i.BindValue(cv)
				c.i.ReleaseValue(fut.target.v)
				fut.target.v = cv
			}
		}
		// Release the call's escaped result and the argument
		// references taken at spawn time.
		fut.gctx.releasePending(0)
		for _, a := range fut.args {
			c.i.ReleaseValue(a)
		}
	}
	c.futures = nil
	return firstErr
}
