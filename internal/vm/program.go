// Package vm executes type-checked extended-CMINUS programs on a
// compact register bytecode instead of walking the AST. The compiler
// (compile.go) lowers each checked function to a proto — typed
// registers for int/float/bool plus a boxed register class for
// matrices, tuples, strings and rc pointers; a constant pool; and
// fused opcode forms for add-immediate, compare-and-branch loop
// headers and rank-1 load/store indexing — and the machine (exec.go)
// runs protos on a switch-dispatch loop.
//
// The VM is an alternate engine behind the tree-walking interpreter's
// contract: every runtime policy — step budgets, cell budgets, typed
// traps with stable codes and source spans, context cancellation, rc
// semantics, kernel and free-list fast paths — is delegated to the
// exported interp engine surface (internal/interp/engine.go), and the
// tree walker remains the differential oracle (vmdiff_test.go at the
// repository root runs every program under both engines).
package vm

import (
	"sync"

	"repro/internal/ast"
	"repro/internal/matrix"
	"repro/internal/sem"
	"repro/internal/types"
)

// class is a register's compile-time storage class, derived from the
// checker's static types: sem guarantees every expression's runtime
// representation matches its static type (the interp-side return and
// rcset promotions close the only historical gaps), which is what
// makes unboxed int/float/bool registers sound.
type class uint8

const (
	clI class = iota // int64 in value.i
	clF              // float64 in value.f
	clB              // bool in value.i (0/1)
	clR              // boxed any in value.r: matrix, tuple, string, rc cell
)

// classOf maps a static type to a register class.
func classOf(ty *types.Type) class {
	if ty == nil {
		return clR
	}
	switch ty.Kind {
	case types.Int:
		return clI
	case types.Float:
		return clF
	case types.Bool:
		return clB
	}
	return clR
}

// value is one register: a 3-word unboxed slot. Exactly one field is
// meaningful per register, fixed at compile time by the class.
type value struct {
	i int64
	f float64
	r any
}

// opcode enumerates the instruction set. See DESIGN.md §11 for the
// full table. The opcodes down to the rank-1 index group are handled in
// exec's switch (register to register, nothing boxed); the ones after
// it, and the rank-1 group's error exits, in execSlow.
type opcode uint8

const (
	opNop opcode = iota

	// Administration.
	opStep  // statement entry: flush pending refs, then a ticks (1 or 2): nd's, then aux's (an ast.Node)
	opFlush // release the frame's pending refs (global-initializer statement boundary)
	opJmp   // pc = c
	opBrFalse
	opBrTrue
	opRet  // return boxed reg a (class b), or nothing when a < 0
	opFail // fail with the prebuilt error in aux (deferred compile-time diagnosis)

	// Fused compare-and-branch: jump to c when the comparison the
	// opcode names does NOT hold (a loop's entry test and an if branch
	// on the source comparison; a rotated loop's bottom test is the
	// complementary opcode, which jumps back while the source
	// comparison holds).
	opBrLtI
	opBrLeI
	opBrGtI
	opBrGeI
	opBrEqI
	opBrNeI
	opBrLtIK // b is an int32 immediate
	opBrLeIK
	opBrGtIK
	opBrGeIK
	opBrEqIK
	opBrNeIK

	// Fused back edge: a(I) = a + 1, then jump to c while a < b
	// (Le: a <= b) holds; K forms compare with the int32 immediate b.
	opIncJLtI
	opIncJLeI
	opIncJLtIK
	opIncJLeIK

	// Constants and moves.
	opConstI // a = int32 immediate b (also bool constants, b in {0,1})
	opLoadK  // a = consts[b]
	opMove   // a = b, scalar classes (the i and f words; boxed registers go through opBindR)

	// Globals.
	opGLoad  // a = globals[b]
	opGStore // globals[a] = b (scalar); c = 1: the global's initializer binds it
	opGBindR // globals[a] = b with rc bind/release (boxed class); c as opGStore

	// Int arithmetic.
	opAddI
	opSubI
	opMulI
	opDivI // traps on zero divisor with the scalar-op error text
	opModI
	opNegI
	opAddIK // a = b op int32 immediate c
	opMulIK
	opDivIK // c != 0, proven at compile time: no zero test
	opModIK

	// Float arithmetic (IEEE, like the scalar ops).
	opAddF
	opSubF
	opMulF
	opDivF
	opNegF

	// Comparisons into bool registers.
	opLtI
	opLeI
	opGtI
	opGeI
	opEqI
	opNeI
	opLtF
	opLeF
	opGtF
	opGeF
	opEqF
	opNeF
	opEqB
	opNeB
	opNotB

	// Scalar conversions (casts and static int→float promotion).
	opI2F
	opF2I
	opB2I
	opI2B
	opF2B
	opB2F
	opToInt // a(I) = b.r with a runtime int check (evalInt parity)

	// Boxed-register traffic that boxes nothing.
	opUnboxI // a = b.r.(int64)
	opUnboxF
	opUnboxB
	opToBool // a(B) = b.r with a runtime bool check (condition parity)
	opBindR  // rebind boxed var reg a to b.r (bind new, release old)

	// Rank-1 indexing of a trusted base: the in-range case is in exec,
	// everything else (an unassigned base, an index out of range) in
	// execSlow. c of opIdxCheck = 1 selects the lvalue error text.
	opIdxCheck // base a non-nil matrix of rank b
	opIdx1F    // fused rank-1 scalar load: a(F) = b[c]
	opIdx1I
	opIdx1B
	opSetIdx1F // fused rank-1 scalar store: a[b] = c
	opSetIdx1I
	opSetIdx1B

	// Handlers that box an operand (execSlow).
	opCastD   // dynamic cast of a boxed operand, aux *castAux
	opCoerce  // a = CoerceValue(nd, aux.(*types.Type), b.r)
	opPromote // a = PromoteScalar(aux.(*types.Type), b.r)
	opSCBool  // a = b.r checked bool (short-circuit RHS with non-bool static type)

	// Matrix / dynamic operators (delegate to interp's exported
	// evaluators so kernel selection and temp recycling are shared).
	opBinM // aux *binDesc
	opUnM  // aux *ast.UnaryExpr; b operand (boxed via desc)

	// General indexing.
	opDimEnd   // a(I) = base b's DimSize(c) - 1  ('end', emitted where one is read)
	opIndex    // a = base b indexed per aux *indexDesc
	opSetIndex // base a set per aux *setIndexDesc

	// Allocation.
	opRange    // a = lo b :: hi c (budget-charged)
	opCheckDim // init dimension b (reg a) must be non-negative
	opInit     // a = zeroed matrix, aux *initDesc
	opTuple    // a = []any per aux []argDesc
	opTupCheck // a must be a []any of len b (destructuring)
	opTupGet   // a(R) = b.r.([]any)[c]
	opRetTup   // the tuple literal aux []argDesc into the return slots, a the first; a bare opRet follows

	// Calls and builtins.
	opCall    // a = call aux *callDesc
	opPrint   // print aux argDesc
	opDimSize // a(I) = dimSize(b, c)
	opReadM   // a = readMatrix(b)
	opWriteM  // writeMatrix(a, b)
	opRcNew   // a = rcnew(aux argDesc)
	opRcGet   // a(R) = rcget(b)
	opRcSet   // rcset(a, aux *rcSetDesc)
	opRcRel   // rcrelease(a)

	// Parallel constructs.
	opWith   // a = with-loop per aux *withDesc
	opMatMap // a = matrixMap per aux *mapDesc
	opSpawn  // spawn per aux *spawnDesc
	opSync

	// Fused elementwise chain (vet.Facts-proven legality), aux *flatPlan.
	opFused

	// Flat-compiled with-loops (vet.Facts-proven bodies): aux is the
	// same *withDesc as opWith with a non-nil flat plan. The handler
	// tries the flat engine and falls back to opWith semantics when the
	// runtime admission declines.
	opWithGen
	opWithFold

	opCount // not an instruction: the number of opcodes
)

// instr is one instruction. nd is the span-table entry: the source
// node every trap raised by this instruction is attributed to.
type instr struct {
	op      opcode
	a, b, c int32
	nd      ast.Node
	aux     any
}

// argDesc locates an operand that must be boxed at execution time.
type argDesc struct {
	reg int32
	cl  class
}

// binDesc drives opBinM.
type binDesc struct {
	e    *ast.BinaryExpr
	l, r argDesc
}

// unDesc drives opUnM.
type unDesc struct {
	e *ast.UnaryExpr
	x argDesc
}

// specPlan is one dimension of a compiled index expression. nd is the
// argument's source node (for the dynamic plan's error).
type specPlan struct {
	kind   uint8
	r1, r2 int32
	nd     ast.Node
}

const (
	spScalar uint8 = iota // r1: I register
	spMask                // r1: R register holding a bool matrix
	spRange               // r1, r2: I registers (inclusive)
	spAll
	spDyn // r1: R register, runtime-dispatched int64 / *Matrix
)

// typeAux carries a static type plus a boxed operand for opCoerce /
// opPromote / opSCBool (op is the operator for the short-circuit
// error text).
type typeAux struct {
	ty  *types.Type
	src argDesc
	op  ast.BinOp
}

// castAux drives opCastD.
type castAux struct {
	to ast.PrimKind
	x  argDesc
}

// indexDesc drives opIndex.
type indexDesc struct {
	e     *ast.IndexExpr
	plans []specPlan
}

// setIndexDesc drives opSetIndex.
type setIndexDesc struct {
	e     *ast.IndexExpr
	plans []specPlan
	val   argDesc
}

// initDesc drives opInit.
type initDesc struct {
	elem matrix.Elem
	dims []int32
}

// callDesc drives opCall. A destructuring assignment's call names in
// rets the registers its callee's tuple elements arrive in, one each, and
// in stmt the assignment (the node of the arity check).
type callDesc struct {
	proto int
	args  []argDesc
	retCl class
	rets  []argDesc
	stmt  ast.Node
}

// rcSetDesc drives opRcSet.
type rcSetDesc struct {
	cell argDesc
	val  argDesc
	elem *types.Type // declared cell element type (nil when unrecorded)
}

// capture copies an enclosing frame's register into a with-loop body
// frame before the loop runs (bodies only read enclosing locals).
type capture struct {
	from, to int32
}

// withDesc drives opWith.
type withDesc struct {
	w        *ast.WithLoop
	fold     bool
	lower    []int32 // I regs
	upper    []int32
	shape    []int32 // genarray
	elem     matrix.Elem
	foldKind matrix.FoldKind
	foldInit argDesc
	body     int // body proto index
	captures []capture
	ids      int // w.Ids occupy body regs [0, ids)
	resCl    class
	flat     *flatPlan // non-nil for opWithGen/opWithFold sites
}

// flatPlan is a vet.WithPlan compiled for this site, a with-loop or
// (opFused's aux) a chain: the strip program (immutable, shared by every
// run of the cached program) and the registers its leaves are read from
// at run time — a local's own, or a temporary a global leaf is loaded
// into at the site's entry.
type flatPlan struct {
	prog   *matrix.WithProg
	mats   []int32    // R regs, by load slot
	sI     []int32    // I regs, by int scalar slot
	sF     []int32    // F regs, by float scalar slot
	inline int        // calls nested in the plan, emitted in place (see execWithFlat)
	nodes  []ast.Node // a chain's admissions: where the tree walker reports each one's error
}

// mapDesc drives opMatMap.
type mapDesc struct {
	e       *ast.MatrixMap
	arg     argDesc
	dims    []int
	proto   int
	elem    matrix.Elem
	general bool
}

// targetRef resolves a spawn target at compile time.
type targetRef struct {
	kind uint8 // 0 none, 1 local, 2 global, 3 undeclared
	reg  int32 // local reg or global index
	cl   class
	ty   *types.Type
}

const (
	tgNone uint8 = iota
	tgLocal
	tgGlobal
	tgUndeclared
)

// spawnDesc drives opSpawn.
type spawnDesc struct {
	s      *ast.SpawnStmt
	proto  int
	args   []argDesc
	target targetRef
	name   string // target name for the undeclared error
}

// paramDef is one compiled parameter.
type paramDef struct {
	reg int32
	ty  *types.Type
	cl  class
}

// proto is one compiled function (or with-loop body, or the global
// initializer).
type proto struct {
	name    string
	decl    *ast.FuncDecl // nil for with-loop bodies and the global init
	code    []instr
	nregs   int
	params  []paramDef
	refRegs []int32 // boxed variable registers released at teardown
	retTy   *types.Type
	rets    int32     // the first return slot: a register an element of a tuple-typed retTy
	frames  sync.Pool // *frame with nregs registers; scratch, not program state
}

// globalDef is one compiled global variable slot.
type globalDef struct {
	name string
	ty   *types.Type
	cl   class
}

// Program is a compiled program: immutable after Compile, shareable
// across concurrent runs (the driver caches it content-addressed by
// source, alongside the artifact caches).
type Program struct {
	prog       *ast.Program
	info       *sem.Info
	protos     []*proto
	consts     []value
	globals    []globalDef
	ginit      *proto
	main       int // proto index of main, -1 when absent
	fusedSites int // opFused sites emitted (facts-proven chains)
	withSites  int // opWithGen/opWithFold sites emitted (facts-proven with-loops)
}

// Funcs reports the number of compiled function protos (for tests).
func (p *Program) Funcs() int { return len(p.protos) }

// FusedSites reports the number of fused-chain sites the compiler
// emitted (each replaces two or more opBinM kernel passes).
func (p *Program) FusedSites() int { return p.fusedSites }

// WithCompiled reports the number of with-loop sites compiled to the
// flat engine (each replaces a per-element body closure with a flat
// kernel loop).
func (p *Program) WithCompiled() int { return p.withSites }
