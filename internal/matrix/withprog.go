// Compiling a proven with-loop plan to its strip program. The plan
// (WithInstr, postfix, two stacks) is what vet proves and what the
// interval analysis reads; what runs is the register program built
// here, once per site at VM compile time. The postfix machine is
// simulated over value descriptors instead of values: every value is
// either uniform along the innermost generated id (one scalar in the
// uniform file), or a strip (one cell per position in a strip register).
// The innermost id itself, plus or minus a uniform offset, is a strip
// kept lazily (wLin): only its first cell is computed, and it becomes a
// real strip when arithmetic consumes it. A load whose indices are all
// uniform or lazy walks its matrix at a fixed stride — the stencil's
// m[i, j-1] is a copy — and never builds an index strip. A stack slot at
// depth d owns uniform temporary d and strip register d of its file, so
// the strip registers number the plan's maximum live depth.
//
// The compiler is also the plan's verifier: a malformed plan (stack
// underflow, bad slot, unbalanced fold brackets, a fold bound that
// varies along the strip) yields no program and the site keeps the
// closure path.
package matrix

import "math"

// The strip width — the cells of the innermost generated dimension
// evaluated per instruction dispatch — is the program's own: its strip
// registers, and one more for the output, share stripCache cells (32 KB,
// an L1 data cache), so the values of one evaluation are still in cache
// when the next instruction reads them. A program of few registers gets
// wide strips and few dispatches; a register-heavy nest gets stripMin.
const (
	stripCache = 4096
	stripMin   = 128
	stripMax   = 1024
)

// WithSpec is one proven plan as CompileWith takes it.
type WithSpec struct {
	Code     []WithInstr
	Rank     int    // generated ids of the loop itself; fold brackets number theirs on from here
	MatElem  []Elem // element type per matrix slot
	ScalarI  int    // int scalar slots
	ScalarF  int    // float scalar slots
	Float    bool   // the body's static type is float
	OutFloat bool   // the cells written, or the fold accumulator, are float
}

// WithProg is a compiled plan: immutable, shared by every execution of
// its site. All mutable state lives in a WithRun and its strip states.
type WithProg struct {
	spec    WithSpec
	code    []wInstr
	load    *withLoadPlan // the body as a single shifted load, or nil
	matRank []int         // arity every load of a slot uses
	uiInit  []int64       // uniform int file image: constants in place
	ufInit  []float64     // uniform float file image
	scalarI int           // first int scalar register (float scalars start their file)
	nSI     int           // int strip registers
	nSF     int           // float strip registers
	width   int           // cells per strip
	ids     int           // id intervals the analysis tracks
	nests   int           // deepest fold bracket nesting
}

type wOp uint8

// The four arithmetic opcodes are Op's: eval hands them to the shared
// slice kernels as they are.
const (
	wAdd = wOp(OpAdd)
	wSub = wOp(OpSub)
	wMul = wOp(OpMul)
	wDiv = wOp(OpDiv) // float quotient
)

const (
	wNeg   = wDiv + 1 + iota // d = -a
	wI2F                     // float d = float64(int a)
	wF2I                     // int d = int64(float a)
	wIota                    // int strip d = uniform a + i
	wBcast                   // strip d = uniform a
	wCopy                    // strip d = strip a
	wLoad                    // d = matrix slot a at idx
	wFoldBegin
	wFoldEnd
	wCmp   // int d = int idx[0] (Op k) int idx[1], 0 or 1
	wCmpF  // int d = float idx[0] (Op k) float idx[1], 0 or 1
	wSel   // d = idx[1] where the mask idx[0] is not 0, else idx[2]
	wLoadB // int d = bool matrix slot a at idx, 0 or 1
	wQuo   // int d = idx[0] / idx[1], failing on a zero divisor
	wRem   // int d = idx[0] % idx[1], failing on a zero divisor
)

// wMode places an instruction's operands: U is the uniform file, S a
// strip register. Unary instructions use wUU or wSS; wLin marks a load
// that walks its matrix at a fixed stride; a compare, a select or a
// division by a value is wUU when it is uniform, wSS otherwise, its
// operands' places in idx.
type wMode uint8

const (
	wUU wMode = iota
	wSS
	wSU
	wUS
	wLin
)

type wInstr struct {
	op   wOp
	mode wMode
	flt  bool // the destination file is float
	out  bool // d is the evaluation's output strip, not a register
	d    int32
	a    int32
	b    int32
	k    int64
	idx  []wIndex // wLoad*: one per dimension; wCmp*, wQuo, wRem: a, b; wSel: mask, then, else
	nest *wNest   // wFoldBegin, wFoldEnd
}

// wIndex is one load index: a uniform register (wUU), the uniform
// register of a lazy strip's first cell (wLin), or an int strip
// register (wSS); or one operand of a compare or a select, uniform or
// a strip.
type wIndex struct {
	kind wMode
	reg  int32
}

// wNest is one fold bracket of the register program. The loop keeps
// its bounds in registers of its own: the temporaries they were
// computed in are reused by the body.
type wNest struct {
	kind  FoldKind
	n     int     // generated ids
	id    int32   // uniform register of the first id
	src   []int32 // uniform registers holding lower, upper per id as computed
	bound int32   // first of the 2n registers the loop keeps them in
	acc   int32   // strip register of the accumulator
	begin int     // pc of the wFoldBegin
	end   int     // pc of the wFoldEnd
}

// wVal describes one value on the simulated stacks.
type wVal struct {
	kind wMode // wUU, wLin or wSS
	reg  int32 // uniform register (wUU; wLin: the value at the strip's first cell) or strip register
	by   int   // wSS: pc of the instruction that produced it, -1 for a fold accumulator
}

// openFold is a fold bracket the pass is inside of.
type openFold struct {
	ns    *wNest
	pc    int // of the opening bracket in the plan
	other int // height of the stack the accumulator is not on
}

type withCompiler struct {
	p      *WithProg
	is, fs []wVal
	tempI  int32 // uniform int temporary of stack depth 0
	tempF  int32
	ids    int // generated ids in scope
	open   []openFold
	constI map[int64]int32
	constF map[uint64]int32 // by bit pattern: -0.0 and NaNs keep their own registers
	offReg bool             // some load gathers through the offsets strip
	bad    bool
}

// CompileWith compiles a proven plan, or reports false when the plan is
// malformed or outside what the strip evaluator runs.
func CompileWith(spec WithSpec) (*WithProg, bool) {
	if spec.Rank < 1 || (spec.Float && !spec.OutFloat) {
		return nil, false
	}
	maxIDs := spec.Rank
	for i := range spec.Code {
		if op := spec.Code[i].Op; op == WFoldI || op == WFoldF {
			if spec.Code[i].A < 1 {
				return nil, false
			}
			maxIDs += int(spec.Code[i].A)
		}
	}
	// Uniform files: ids, scalar leaves, one temporary per possible stack
	// depth, then constants and fold bounds as the pass meets them.
	depth := len(spec.Code) + 1
	p := &WithProg{
		spec:    spec,
		matRank: make([]int, len(spec.MatElem)),
		scalarI: maxIDs,
		uiInit:  make([]int64, maxIDs+spec.ScalarI+depth),
		ufInit:  make([]float64, spec.ScalarF+depth),
		ids:     maxIDs,
	}
	c := &withCompiler{
		p:      p,
		tempI:  int32(maxIDs + spec.ScalarI),
		tempF:  int32(spec.ScalarF),
		ids:    spec.Rank,
		constI: map[int64]int32{},
		constF: map[uint64]int32{},
	}
	for pc := range spec.Code {
		c.instr(pc, &spec.Code[pc])
		if c.bad {
			return nil, false
		}
	}
	if len(c.open) != 0 {
		return nil, false
	}
	if spec.Float {
		if len(c.fs) != 1 || len(c.is) != 0 {
			return nil, false
		}
	} else {
		if len(c.is) != 1 || len(c.fs) != 0 {
			return nil, false
		}
		if spec.OutFloat {
			c.i2f() // an int body stored into float cells promotes per cell
		}
	}
	c.finish(spec.OutFloat)
	if c.offReg {
		// The offsets strip sits past the stack's own registers.
		for i := range p.code {
			if in := &p.code[i]; in.op == wLoad && in.mode == wSS {
				in.b = int32(p.nSI)
			}
		}
		p.nSI++
	}
	// Largest power of two that fits the cache budget.
	p.width = stripMin
	for p.width < stripMax && 2*p.width*(p.nSI+p.nSF+1) <= stripCache {
		p.width *= 2
	}
	p.load = matchSingleLoad(spec.Code)
	return p, true
}

func (c *withCompiler) emit(in wInstr) int {
	c.p.code = append(c.p.code, in)
	return len(c.p.code) - 1
}

func (c *withCompiler) newUI(v int64) int32 {
	c.p.uiInit = append(c.p.uiInit, v)
	return int32(len(c.p.uiInit) - 1)
}

func (c *withCompiler) konstI(v int64) wVal {
	r, ok := c.constI[v]
	if !ok {
		r = c.newUI(v)
		c.constI[v] = r
	}
	return wVal{kind: wUU, reg: r}
}

func (c *withCompiler) konstF(v float64) wVal {
	r, ok := c.constF[math.Float64bits(v)]
	if !ok {
		c.p.ufInit = append(c.p.ufInit, v)
		r = int32(len(c.p.ufInit) - 1)
		c.constF[math.Float64bits(v)] = r
	}
	return wVal{kind: wUU, reg: r}
}

// strip returns the strip register of stack depth d in the named file.
func (c *withCompiler) strip(flt bool, d int) int32 {
	if flt {
		c.p.nSF = max(c.p.nSF, d+1)
	} else {
		c.p.nSI = max(c.p.nSI, d+1)
	}
	return int32(d)
}

// materialize turns a uniform or lazy value at depth d into a strip.
func (c *withCompiler) materialize(flt bool, v wVal, d int) wVal {
	if v.kind == wSS {
		return v
	}
	r := c.strip(flt, d)
	var pc int
	if v.kind == wLin {
		pc = c.emit(wInstr{op: wIota, d: r, a: v.reg})
	} else {
		pc = c.emit(wInstr{op: wBcast, flt: flt, d: r, a: v.reg})
	}
	return wVal{kind: wSS, reg: r, by: pc}
}

// operand prepares v at depth d as a strip-instruction operand: uniform
// values stay in the uniform file, lazy ones become strips.
func (c *withCompiler) operand(flt bool, v wVal, d int) wVal {
	if v.kind == wUU {
		return v
	}
	return c.materialize(flt, v, d)
}

// pop takes the top value off one of the stacks, with its depth.
func (c *withCompiler) pop(st *[]wVal) (wVal, int) {
	n := len(*st)
	if n == 0 {
		c.bad = true
		return wVal{}, 0
	}
	v := (*st)[n-1]
	*st = (*st)[:n-1]
	return v, n - 1
}

func (c *withCompiler) instr(pc int, in *WithInstr) {
	spec := &c.p.spec
	switch in.Op {
	case WPushID:
		switch {
		case in.A < 0 || int(in.A) >= c.ids:
			c.bad = true
		case int(in.A) == spec.Rank-1:
			c.is = append(c.is, wVal{kind: wLin, reg: in.A})
		default:
			c.is = append(c.is, wVal{kind: wUU, reg: in.A})
		}
	case WPushInt:
		c.is = append(c.is, c.konstI(in.K))
	case WPushFloat:
		c.fs = append(c.fs, c.konstF(in.F))
	case WPushScalarI:
		if in.A < 0 || int(in.A) >= spec.ScalarI {
			c.bad = true
			return
		}
		c.is = append(c.is, wVal{kind: wUU, reg: int32(c.p.scalarI) + in.A})
	case WPushScalarF:
		if in.A < 0 || int(in.A) >= spec.ScalarF {
			c.bad = true
			return
		}
		c.fs = append(c.fs, wVal{kind: wUU, reg: in.A})
	case WAddI:
		c.binI(wAdd)
	case WSubI:
		c.binI(wSub)
	case WMulI:
		c.binI(wMul)
	case WDivI, WModI:
		if in.K == 0 {
			c.bad = true
			return
		}
		c.is = append(c.is, c.konstI(in.K))
		c.quo(in.Op == WModI)
	case WQuoI, WRemI:
		c.quo(in.Op == WRemI)
	case WNegI:
		a, d := c.pop(&c.is)
		if c.bad {
			return
		}
		c.is = append(c.is, c.unary(wNeg, false, c.operand(false, a, d), d))
	case WAddF:
		c.binF(wAdd)
	case WSubF:
		c.binF(wSub)
	case WMulF:
		c.binF(wMul)
	case WDivF:
		c.binF(wDiv)
	case WNegF:
		a, d := c.pop(&c.fs)
		if c.bad {
			return
		}
		c.fs = append(c.fs, c.unary(wNeg, true, a, d))
	case WI2F:
		c.i2f()
	case WF2I:
		a, _ := c.pop(&c.fs)
		if c.bad {
			return
		}
		d := len(c.is)
		if a.kind == wUU {
			t := c.tempI + int32(d)
			c.emit(wInstr{op: wF2I, mode: wUU, d: t, a: a.reg})
			c.is = append(c.is, wVal{kind: wUU, reg: t})
			return
		}
		r := c.strip(false, d)
		c.is = append(c.is, wVal{kind: wSS, reg: r,
			by: c.emit(wInstr{op: wF2I, mode: wSS, d: r, a: a.reg})})
	case WLoadI, WLoadF:
		c.load(in)
	case WFoldI, WFoldF:
		c.foldBegin(pc, in)
	case WFoldEnd:
		c.foldEnd(pc, in)
	case WCmpI, WCmpF:
		c.cmp(in.Op == WCmpF, Op(in.A))
	case WSelI, WSelF:
		c.sel(in.Op == WSelF)
	default:
		c.bad = true
	}
}

// unary emits d = op a for a uniform or strip operand at depth d.
func (c *withCompiler) unary(op wOp, flt bool, a wVal, d int) wVal {
	if a.kind == wUU {
		t := c.tempI + int32(d)
		if flt {
			t = c.tempF + int32(d)
		}
		c.emit(wInstr{op: op, mode: wUU, flt: flt, d: t, a: a.reg})
		return wVal{kind: wUU, reg: t}
	}
	r := c.strip(flt, d)
	return wVal{kind: wSS, reg: r, by: c.emit(wInstr{op: op, mode: wSS, flt: flt, d: r, a: a.reg})}
}

// binI compiles an int +, - or *. The innermost id plus or minus a
// uniform stays lazy: one uniform op moves its first cell.
func (c *withCompiler) binI(op wOp) {
	b, _ := c.pop(&c.is)
	a, d := c.pop(&c.is)
	if c.bad {
		return
	}
	lazy := (op == wAdd && (a.kind == wLin && b.kind == wUU || a.kind == wUU && b.kind == wLin)) ||
		(op == wSub && a.kind == wLin && b.kind == wUU)
	if lazy || (a.kind == wUU && b.kind == wUU) {
		t := c.tempI + int32(d)
		c.emit(wInstr{op: op, mode: wUU, d: t, a: a.reg, b: b.reg})
		v := wVal{kind: wUU, reg: t}
		if lazy {
			v.kind = wLin
		}
		c.is = append(c.is, v)
		return
	}
	c.is = append(c.is, c.stripArith(op, false, a, b, d))
}

func (c *withCompiler) binF(op wOp) {
	b, _ := c.pop(&c.fs)
	a, d := c.pop(&c.fs)
	if c.bad {
		return
	}
	if a.kind == wUU && b.kind == wUU {
		t := c.tempF + int32(d)
		c.emit(wInstr{op: op, mode: wUU, flt: true, d: t, a: a.reg, b: b.reg})
		c.fs = append(c.fs, wVal{kind: wUU, reg: t})
		return
	}
	c.fs = append(c.fs, c.stripArith(op, true, a, b, d))
}

// stripArith emits d = a op b with at least one strip operand; a sits
// at depth d, b at d+1, and the result replaces a.
func (c *withCompiler) stripArith(op wOp, flt bool, a, b wVal, d int) wVal {
	a = c.operand(flt, a, d)
	b = c.operand(flt, b, d+1)
	mode := wSS
	switch {
	case a.kind == wUU:
		mode = wUS
	case b.kind == wUU:
		mode = wSU
	}
	r := c.strip(flt, d)
	return wVal{kind: wSS, reg: r,
		by: c.emit(wInstr{op: op, mode: mode, flt: flt, d: r, a: a.reg, b: b.reg})}
}

// quo compiles an int / or % (rem) of the top two int values.
func (c *withCompiler) quo(rem bool) {
	b, _ := c.pop(&c.is)
	a, d := c.pop(&c.is)
	if c.bad {
		return
	}
	a, b = c.operand(false, a, d), c.operand(false, b, d+1)
	op := wQuo
	if rem {
		op = wRem
	}
	c.is = append(c.is, c.mixed(wInstr{op: op, idx: []wIndex{{a.kind, a.reg}, {b.kind, b.reg}}}, d))
}

func (c *withCompiler) i2f() {
	a, da := c.pop(&c.is)
	if c.bad {
		return
	}
	d := len(c.fs)
	if a.kind == wUU {
		t := c.tempF + int32(d)
		c.emit(wInstr{op: wI2F, mode: wUU, flt: true, d: t, a: a.reg})
		c.fs = append(c.fs, wVal{kind: wUU, reg: t})
		return
	}
	a = c.materialize(false, a, da)
	r := c.strip(true, d)
	c.fs = append(c.fs, wVal{kind: wSS, reg: r,
		by: c.emit(wInstr{op: wI2F, mode: wSS, flt: true, d: r, a: a.reg})})
}

func (c *withCompiler) load(in *WithInstr) {
	spec := &c.p.spec
	ar := int(in.B)
	flt := in.Op == WLoadF
	want := Int
	if flt {
		want = Float
	}
	op := wLoad
	if !flt && in.A >= 0 && int(in.A) < len(spec.MatElem) && spec.MatElem[in.A] == Bool {
		op, want = wLoadB, Bool
	}
	if in.A < 0 || int(in.A) >= len(spec.MatElem) || spec.MatElem[in.A] != want ||
		ar < 1 || len(c.is) < ar {
		c.bad = true
		return
	}
	if r := c.p.matRank[in.A]; r != 0 && r != ar {
		c.bad = true
		return
	}
	c.p.matRank[in.A] = ar
	base := len(c.is) - ar
	args := c.is[base:]
	mode := wUU
	for _, v := range args {
		if v.kind == wSS {
			mode = wSS
			break
		}
		if v.kind == wLin {
			mode = wLin
		}
	}
	idx := make([]wIndex, ar)
	for k, v := range args {
		if mode == wSS {
			v = c.operand(false, v, base+k)
		}
		idx[k] = wIndex{kind: v.kind, reg: v.reg}
	}
	c.is = c.is[:base]
	if op == wLoadB && mode != wLin {
		c.bad = true // a mask is read as a strip at a fixed stride
		return
	}
	if mode == wSS {
		c.offReg = true
	}
	d := len(c.fs)
	if !flt {
		d = base
	}
	var v wVal
	if mode == wUU {
		t := c.tempI + int32(d)
		if flt {
			t = c.tempF + int32(d)
		}
		c.emit(wInstr{op: op, mode: wUU, flt: flt, d: t, a: in.A, idx: idx})
		v = wVal{kind: wUU, reg: t}
	} else {
		r := c.strip(flt, d)
		v = wVal{kind: wSS, reg: r,
			by: c.emit(wInstr{op: op, mode: mode, flt: flt, d: r, a: in.A, idx: idx})}
	}
	if flt {
		c.fs = append(c.fs, v)
	} else {
		c.is = append(c.is, v)
	}
}

// foldBegin opens a fold bracket: the base is on its stack under the
// 2n bounds. Bounds must be uniform — every cell of a strip runs the
// same inner trips in lockstep — and the base becomes the accumulator
// strip in place.
func (c *withCompiler) foldBegin(pc int, in *WithInstr) {
	n := int(in.A)
	flt := in.Op == WFoldF
	if n < 1 || int(in.B) != c.ids || len(c.is) < 2*n ||
		in.Kind < FoldAdd || in.Kind > FoldMax || int(in.K) <= pc || int(in.K) >= len(c.p.spec.Code) ||
		c.p.spec.Code[in.K].Op != WFoldEnd {
		c.bad = true
		return
	}
	ns := &wNest{kind: in.Kind, n: n, id: in.B, src: make([]int32, 2*n)}
	bounds := c.is[len(c.is)-2*n:]
	for k, v := range bounds {
		if v.kind != wUU {
			c.bad = true
			return
		}
		ns.src[k] = v.reg
	}
	c.is = c.is[:len(c.is)-2*n]
	ns.bound = c.newUI(0)
	for k := 1; k < 2*n; k++ {
		c.newUI(0)
	}
	st, other := &c.is, len(c.fs)
	if flt {
		st, other = &c.fs, len(c.is)
	}
	d := len(*st) - 1
	if d < 0 {
		c.bad = true
		return
	}
	acc := c.materialize(flt, (*st)[d], d)
	if by := acc.by; by >= 0 && c.p.code[by].op == wLoad && c.p.code[by].mode == wLin {
		// A strip loaded at a fixed stride may be its matrix's own cells;
		// the accumulator is combined into in place.
		c.emit(wInstr{op: wCopy, flt: flt, d: acc.reg, a: acc.reg})
	}
	ns.acc = acc.reg
	(*st)[d] = wVal{kind: wSS, reg: acc.reg, by: -1}
	ns.begin = c.emit(wInstr{op: wFoldBegin, flt: flt, nest: ns})
	c.open = append(c.open, openFold{ns: ns, pc: pc, other: other})
	c.p.nests = max(c.p.nests, len(c.open))
	c.ids += n
}

// foldEnd closes the innermost bracket: the body's value, one slot
// above the accumulator, is combined into it.
func (c *withCompiler) foldEnd(pc int, in *WithInstr) {
	if len(c.open) == 0 {
		c.bad = true
		return
	}
	o := c.open[len(c.open)-1]
	ns := o.ns
	flt := c.p.code[ns.begin].flt
	if int(in.A) != o.pc || int(c.p.spec.Code[o.pc].K) != pc {
		c.bad = true
		return
	}
	st, other := &c.is, len(c.fs)
	if flt {
		st, other = &c.fs, len(c.is)
	}
	v, d := c.pop(st)
	if c.bad || d != int(ns.acc)+1 || other != o.other {
		c.bad = true
		return
	}
	v = c.operand(flt, v, d)
	mode := wSS
	if v.kind == wUU {
		mode = wSU
	}
	ns.end = c.emit(wInstr{op: wFoldEnd, mode: mode, flt: flt, a: v.reg, nest: ns})
	c.open = c.open[:len(c.open)-1]
	c.ids -= ns.n
}

// cmp compiles a comparison of the top two values of one stack into a
// 0/1 mask on the int stack.
func (c *withCompiler) cmp(flt bool, op Op) {
	st, wop := &c.is, wCmp
	if flt {
		st, wop = &c.fs, wCmpF
	}
	b, _ := c.pop(st)
	a, da := c.pop(st)
	if c.bad || !op.isComparison() {
		c.bad = true
		return
	}
	a, b = c.operand(flt, a, da), c.operand(flt, b, da+1)
	if op >= OpGt {
		a, b, op = b, a, op-2 // a > b is b < a, a >= b is b <= a: NaNs too
	}
	c.is = append(c.is, c.mixed(wInstr{op: wop, k: int64(op), idx: []wIndex{{a.kind, a.reg}, {b.kind, b.reg}}}, len(c.is)))
}

// sel compiles a select. The result takes the mask's place on the int
// stack, or the then arm's on the float stack.
func (c *withCompiler) sel(flt bool) {
	st := &c.is
	if flt {
		st = &c.fs
	}
	e, _ := c.pop(st)
	t, dt := c.pop(st)
	m, dm := c.pop(&c.is)
	if c.bad {
		return
	}
	m, t, e = c.operand(false, m, dm), c.operand(flt, t, dt), c.operand(flt, e, dt+1)
	d := dt
	if !flt {
		d = dm
	}
	*st = append(*st, c.mixed(wInstr{op: wSel, flt: flt, idx: []wIndex{{m.kind, m.reg}, {t.kind, t.reg}, {e.kind, e.reg}}}, d))
}

// mixed emits an instruction whose idx operands are each uniform or a
// strip: into uniform temporary d when all are uniform, else strip d.
func (c *withCompiler) mixed(in wInstr, d int) wVal {
	in.mode, in.d = wUU, c.tempI+int32(d)
	if in.flt {
		in.d = c.tempF + int32(d)
	}
	for _, x := range in.idx {
		if x.kind == wSS {
			in.mode, in.d = wSS, c.strip(in.flt, d)
		}
	}
	return wVal{kind: in.mode, reg: in.d, by: c.emit(in)}
}

// finish routes the one remaining value to the evaluation's output
// strip: the instruction that produced it writes there directly when it
// is the program's last, anything else is copied.
func (c *withCompiler) finish(flt bool) {
	st := c.is
	if flt {
		st = c.fs
	}
	v := st[0]
	code := c.p.code
	switch {
	case v.kind == wSS && v.by == len(code)-1:
		code[v.by].out = true
	case v.kind == wSS:
		c.emit(wInstr{op: wCopy, flt: flt, out: true, a: v.reg})
	case v.kind == wLin:
		c.emit(wInstr{op: wIota, out: true, a: v.reg})
	default:
		c.emit(wInstr{op: wBcast, flt: flt, out: true, a: v.reg})
	}
}
