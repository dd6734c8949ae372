// The strip evaluator: runs a compiled with-loop program over a
// generator box one strip of the innermost dimension at a time, one
// dispatch per instruction per strip. Nothing here can fail but on a
// cancelled context or an int divisor of zero that is a value — loads
// are proven in bounds before the first strip — and nothing allocates:
// states come from a pool and are sized once per chunk of the box, and
// strides are derived on the stack (above InlineRank, on the heap).
package matrix

import (
	"errors"
	"slices"
	"sync"
)

// wFile is one typed half of a strip state: the uniform registers and
// the strip registers of one element type. A strip register has w cells
// of storage of its own in s, and v[r] is what it holds right now: those
// cells, or — after a load that walks its matrix at stride 1 — the
// matrix's own cells, which nothing may write. So every instruction
// fetches its operands (strip) before it takes its destination (dst),
// which points the register back at its own storage; what is written in
// place without being a destination (a fold accumulator, the gather
// offsets) is given own storage first.
type wFile[T int64 | float64] struct {
	u   []T
	s   []T
	v   [][]T
	out []T // where the program's flagged last instruction writes
	w   int
}

// strip returns the n cells register r holds, to read.
func (f *wFile[T]) strip(r int32, n int) []T {
	return f.v[r][:n]
}

// own returns the first n cells of register r's own storage.
func (f *wFile[T]) own(r int32, n int) []T {
	o := int(r) * f.w
	return f.s[o : o+n]
}

// dst returns the n cells the instruction writes; a register then holds
// its own storage.
func (f *wFile[T]) dst(in *wInstr, n int) []T {
	if in.out {
		return f.out[:n]
	}
	d := f.own(in.d, n)
	f.v[in.d] = d
	return d
}

// operand returns what a compare's or a select's operand x reads, as
// x[i&mask]: a strip's n cells and -1, or a uniform as one cell and 0.
// Each cell is read before it is written: the destination may alias.
func (f *wFile[T]) operand(x wIndex, n int) ([]T, int) {
	if x.kind == wUU {
		return f.u[x.reg : x.reg+1], 0
	}
	return f.strip(x.reg, n), -1
}

// target is what a compare or a select writes: one uniform cell, or the
// strip dst returns.
func (f *wFile[T]) target(in *wInstr, n int) []T {
	if in.mode == wUU {
		return f.u[in.d : in.d+1]
	}
	return f.dst(in, n)
}

// size readies the file for a program: the uniform image copied in
// and room for strips strip registers of w cells.
func (f *wFile[T]) size(image []T, strips, w int) {
	f.u = append(f.u[:0], image...)
	f.s = grow(f.s, strips*w)
	f.v = grow(f.v, strips)
	f.w = w
}

// wState is the mutable state of one serial execution or one parallel
// chunk.
type wState struct {
	i    wFile[int64]
	f    wFile[float64]
	mats []*Matrix
	poll int // cells a nested fold may still accumulate before the next context poll
}

// wPollCells is the work a nested fold does between two context polls,
// in accumulated cells: a strip with a long inner range polls on its
// back edge, not only between strips.
const wPollCells = 8192

var wStatePool = sync.Pool{New: func() any { return new(wState) }}

// newState returns a state for strips of w cells, uniform files
// initialised from the run's (constants and scalar leaves in place),
// with one strip register more per file than the program numbers: the
// fold engines' own output strip.
func (r *WithRun) newState(w int) *wState {
	st := wStatePool.Get().(*wState)
	p := r.prog
	st.i.size(r.ui, p.nSI+1, w)
	st.f.size(r.uf, p.nSF+1, w)
	st.mats = r.Mats
	st.poll = wPollCells
	return st
}

func (st *wState) release() {
	st.mats = nil
	st.i.out, st.f.out = nil, nil
	clear(st.i.v) // a pooled state must not keep a run's matrices alive
	clear(st.f.v)
	wStatePool.Put(st)
}

// ownOut points the output strip at the state's spare register: the
// fold engines reduce it after every evaluation.
func (st *wState) ownOut(p *WithProg) {
	st.i.out = st.i.own(int32(p.nSI), st.i.w)
	st.f.out = st.f.own(int32(p.nSF), st.f.w)
}

// walk evaluates the program over rows [r0, r1) of the outermost
// generated dimension — for a rank-1 loop, over cells [r0, r1) — in
// ascending row-major order, a strip at a time. With out non-nil each
// strip is written to its cells of out — a bool out from the 0/1 mask
// the program leaves in the state's own output strip; otherwise each(n)
// runs after every strip with the values in that strip. The context is
// polled before every strip, and inside a strip every wPollCells
// accumulations of a nested fold.
func (st *wState) walk(r *WithRun, r0, r1 int, x Exec, out *Matrix, each func(n int)) error {
	p := r.prog
	last := len(r.Lower) - 1
	u := st.i.u
	jlo, jhi := r.Lower[last], r.Upper[last]
	if last == 0 {
		jlo, jhi = r0, r1
		r0, r1 = 0, 1
	}
	var s [InlineRank]int
	var strides []int // out's, of the dimensions a row does not walk
	if out != nil {
		strides = out.strides(&s)[:last]
		if out.elem == Bool {
			st.ownOut(p)
		}
	}
	for i0 := r0; i0 < r1; i0++ {
		if last > 0 {
			u[0] = int64(i0)
		}
		for d := 1; d < last; d++ {
			u[d] = int64(r.Lower[d])
		}
		for {
			row := 0
			for d, stride := range strides {
				row += int(u[d]) * stride
			}
			for j0 := jlo; j0 < jhi; j0 += st.i.w {
				if err := x.cancelled(); err != nil {
					return err
				}
				n := min(st.i.w, jhi-j0)
				u[last] = int64(j0)
				if out != nil {
					switch out.elem {
					case Float:
						st.f.out = out.floats()[row+j0 : row+j0+n]
					case Int:
						st.i.out = out.ints()[row+j0 : row+j0+n]
					}
				}
				if err := st.eval(p, n, x); err != nil {
					return err
				}
				if out != nil && out.elem == Bool {
					d := out.bools()[row+j0 : row+j0+n]
					for i, v := range st.i.out[:n] {
						d[i] = v != 0
					}
				}
				if each != nil {
					each(n)
				}
			}
			d := last - 1
			for ; d >= 1; d-- {
				u[d]++
				if u[d] < int64(r.Upper[d]) {
					break
				}
				u[d] = int64(r.Lower[d])
			}
			if d < 1 {
				break
			}
		}
	}
	return nil
}

// eval runs the program once over n cells starting at the innermost id
// already in its register. The only error is the context's.
func (st *wState) eval(p *WithProg, n int, x Exec) error {
	code := p.code
	ui, uf := st.i.u, st.f.u
	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		switch in.op {
		case wCmp:
			stripCmp(in, &st.i, &st.i, n)
		case wCmpF:
			stripCmp(in, &st.f, &st.i, n)
		case wSel:
			if in.flt {
				stripSel(in, &st.f, &st.i, n)
			} else {
				stripSel(in, &st.i, &st.i, n)
			}
		case wAdd, wSub, wMul, wDiv:
			if in.flt {
				stripArith(in, &st.f, n)
			} else {
				stripArith(in, &st.i, n)
			}
		case wFused:
			if in.flt {
				stripFused(in, code, st, (*Matrix).floats, &st.f, n)
			} else {
				stripFused(in, code, st, (*Matrix).ints, &st.i, n)
			}
		case wNeg:
			if in.flt {
				stripNeg(in, &st.f, n)
			} else {
				stripNeg(in, &st.i, n)
			}
		case wI2F:
			if in.mode == wUU {
				uf[in.d] = float64(ui[in.a])
				continue
			}
			a, d := st.i.strip(in.a, n), st.f.dst(in, n)
			for i := range d {
				d[i] = float64(a[i])
			}
		case wF2I:
			if in.mode == wUU {
				ui[in.d] = int64(uf[in.a])
				continue
			}
			a, d := st.f.strip(in.a, n), st.i.dst(in, n)
			for i := range d {
				d[i] = int64(a[i])
			}
		case wIota:
			if in.flt {
				stripIota(st.f.dst(in, n), ui[in.a])
			} else {
				stripIota(st.i.dst(in, n), ui[in.a])
			}
		case wBcast:
			if in.flt {
				stripFill(st.f.dst(in, n), uf[in.a])
			} else {
				stripFill(st.i.dst(in, n), ui[in.a])
			}
		case wCopy:
			if in.flt {
				a := st.f.strip(in.a, n)
				copy(st.f.dst(in, n), a)
			} else {
				a := st.i.strip(in.a, n)
				copy(st.i.dst(in, n), a)
			}
		case wLoad:
			m := st.mats[in.a]
			var s [InlineRank]int
			strides := m.strides(&s)
			if in.flt {
				stripLoad(in, m.floats(), strides, &st.f, &st.i, n)
			} else {
				stripLoad(in, m.ints(), strides, &st.i, &st.i, n)
			}
		case wLoadB:
			m := st.mats[in.a]
			var s [InlineRank]int
			stripLoadMask(in, m.bools(), m.strides(&s), &st.i, n)
		case wQuo, wRem:
			if err := stripQuo(in, &st.i, n); err != nil {
				return err
			}
		case wFoldBegin:
			ns := in.nest
			skip := false
			for d := 0; d < ns.n; d++ {
				lo, hi := ui[ns.src[2*d]], ui[ns.src[2*d+1]]
				b := int(ns.bound) + 2*d
				ui[b], ui[b+1] = lo, hi
				ui[int(ns.id)+d] = lo
				if hi <= lo {
					skip = true // an empty range: the accumulator keeps the base
				}
			}
			if ns.rows && !skip {
				if err := st.runRowFold(in, code, n, x); err != nil {
					return err
				}
				skip = true // the accumulator holds the whole fold
			}
			if skip {
				pc = ns.end
			}
		case wFoldEnd:
			ns := in.nest
			if in.flt {
				stripFold(in, code, st, (*Matrix).floats, &st.f, n)
			} else {
				stripFold(in, code, st, (*Matrix).ints, &st.i, n)
			}
			// Next inner index, last id fastest: the ascending order
			// the sequential inner fold combines in.
			d := ns.n - 1
			for ; d >= 0; d-- {
				id, b := int(ns.id)+d, int(ns.bound)+2*d
				ui[id]++
				if ui[id] < ui[b+1] {
					break
				}
				ui[id] = ui[b]
			}
			if d >= 0 {
				pc = ns.begin
				if st.poll -= n; st.poll <= 0 {
					st.poll = wPollCells
					if err := x.cancelled(); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

func stripFill[T int64 | float64](d []T, v T) {
	for i := range d {
		d[i] = v
	}
}

// stripIota writes the range from v, in the strip's type.
func stripIota[T int64 | float64](d []T, v int64) {
	for i := range d {
		d[i] = T(v + int64(i))
	}
}

func stripNeg[T int64 | float64](in *wInstr, f *wFile[T], n int) {
	if in.mode == wUU {
		f.u[in.d] = -f.u[in.a]
		return
	}
	a, d := f.strip(in.a, n), f.dst(in, n)
	for i := range d {
		d[i] = -a[i]
	}
}

// stripArith runs one binary arithmetic instruction on the shared
// slice kernels (arith.go).
func stripArith[T int64 | float64](in *wInstr, f *wFile[T], n int) {
	op := Op(in.op)
	switch in.mode {
	case wUU:
		a, b := f.u[in.a], f.u[in.b]
		switch op {
		case OpAdd:
			f.u[in.d] = a + b
		case OpSub:
			f.u[in.d] = a - b
		case OpMul:
			f.u[in.d] = a * b
		default:
			f.u[in.d] = a / b
		}
	case wSS:
		a, b := f.strip(in.a, n), f.strip(in.b, n)
		arithSS(op, f.dst(in, n), a, b)
	case wSU:
		a := f.strip(in.a, n)
		arithSU(op, f.dst(in, n), a, f.u[in.b])
	default: // wUS
		b := f.strip(in.b, n)
		arithUS(op, f.dst(in, n), f.u[in.a], b)
	}
}

// stripCmp writes the 0/1 mask of one comparison into the int file.
func stripCmp[T int64 | float64](in *wInstr, f *wFile[T], ints *wFile[int64], n int) {
	a, am := f.operand(in.idx[0], n)
	b, bm := f.operand(in.idx[1], n)
	d := ints.target(in, n)
	op := Op(in.k)
	ne := mask(op == OpNe)
	switch op { // the compiler turns > and >= around
	case OpLt:
		for i := range d {
			d[i] = mask(a[i&am] < b[i&bm])
		}
	case OpLe:
		for i := range d {
			d[i] = mask(a[i&am] <= b[i&bm])
		}
	default: // a != b is !(a == b), NaNs too
		for i := range d {
			d[i] = ne ^ mask(a[i&am] == b[i&bm])
		}
	}
}

// mask is a comparison's cell: 1 where it holds.
func mask(c bool) int64 {
	if c {
		return 1
	}
	return 0
}

// stripSel blends a select's arms by its mask, cell by cell.
func stripSel[T int64 | float64](in *wInstr, f *wFile[T], ints *wFile[int64], n int) {
	c, cm := ints.operand(in.idx[0], n)
	t, tm := f.operand(in.idx[1], n)
	e, em := f.operand(in.idx[2], n)
	d := f.target(in, n)
	for i := range d {
		v := e[i&em]
		if c[i&cm] != 0 {
			v = t[i&tm]
		}
		d[i] = v
	}
}

// stripLoad reads one matrix element per cell. Every index was proven
// inside the matrix for the whole box before the first strip.
func stripLoad[T int64 | float64](in *wInstr, data []T, strides []int, f *wFile[T], ints *wFile[int64], n int) {
	ui := ints.u
	switch in.mode {
	case wUU:
		off := 0
		for d, ix := range in.idx {
			off += int(ui[ix.reg]) * strides[d]
		}
		f.u[in.d] = data[off]
	case wLin:
		base, step := linear(in.idx, ui, strides)
		if step == 1 {
			// The matrix's own cells are the strip: no copy, unless they
			// are the evaluation's output.
			if in.out {
				copy(f.out[:n], data[base:base+n])
			} else {
				f.v[in.d] = data[base : base+n]
			}
			return
		}
		dst := f.dst(in, n)
		for i := range dst {
			dst[i] = data[base]
			base += step
		}
	default:
		// Gather: offsets accumulate in the spare int strip, so an index
		// strip may share its register with the destination.
		off := ints.own(in.b, n)
		base, first := 0, true
		for d, ix := range in.idx {
			if ix.kind == wUU {
				base += int(ui[ix.reg]) * strides[d]
				continue
			}
			src, s := ints.strip(ix.reg, n), int64(strides[d])
			if first {
				for i := range off {
					off[i] = src[i] * s
				}
				first = false
			} else {
				for i := range off {
					off[i] += src[i] * s
				}
			}
		}
		dst := f.dst(in, n)
		for i := range dst {
			dst[i] = data[base+int(off[i])]
		}
	}
}

// linear is a fixed-stride load's first cell and step.
func linear(idx []wIndex, ui []int64, strides []int) (base, step int) {
	for d, ix := range idx {
		base += int(ui[ix.reg]) * strides[d]
		if ix.kind == wLin {
			step += strides[d]
		}
	}
	return base, step
}

// inPlace returns the cells the load ld reads for n cells, from its
// first, and the step between them.
func inPlace[T int64 | float64](ld *wInstr, st *wState, cells func(*Matrix) []T, n int) ([]T, int) {
	m := st.mats[ld.a]
	var s [InlineRank]int
	base, step := linear(ld.idx, st.i.u, m.strides(&s))
	return cells(m)[base : base+(n-1)*step+1], step
}

// stripFused runs a selected tree: its operands — loads at stride 1
// read in place — are fetched before its destination is taken.
func stripFused[T int64 | float64](in *wInstr, code []wInstr, st *wState, cells func(*Matrix) []T, f *wFile[T], n int) {
	var a [3][]T
	for k, x := range in.idx {
		if x.kind == wLin {
			a[k], _ = inPlace(&code[x.reg], st, cells, n)
		} else {
			a[k], _ = f.operand(x, n)
		}
	}
	fusedStrips(int(in.k), f.dst(in, n), a[0], a[1], a[2])
}

// stripLoadMask reads a strip of a bool matrix, at a fixed stride, as
// 0/1 int cells.
func stripLoadMask(in *wInstr, data []bool, strides []int, ints *wFile[int64], n int) {
	base, step := linear(in.idx, ints.u, strides)
	dst := ints.dst(in, n)
	for i := range dst {
		dst[i] = mask(data[base])
		base += step
	}
}

var (
	errDivZero = errors.New("matrix: integer division by zero")
	errModZero = errors.New("matrix: integer modulo by zero")
)

// byZero is the error of an int / by zero, or of a % (rem).
func byZero(rem bool) error {
	if rem {
		return errModZero
	}
	return errDivZero
}

// stripQuo divides int cells by a value: the divisor's cells are
// scanned before a quotient is written, and a zero fails the run.
func stripQuo(in *wInstr, f *wFile[int64], n int) error {
	a, am := f.operand(in.idx[0], n)
	b, bm := f.operand(in.idx[1], n)
	if slices.Contains(b, 0) {
		return byZero(in.op == wRem)
	}
	d := f.target(in, n)
	if in.op == wRem {
		for i := range d {
			d[i] = a[i&am] % b[i&bm]
		}
		return nil
	}
	for i := range d {
		d[i] = a[i&am] / b[i&bm]
	}
	return nil
}

// stripFold combines a fold body's value — a strip, a uniform at step
// 0, or a load read in place — into the accumulator strip, cell by
// cell, with combine's exact min/max rules.
func stripFold[T int64 | float64](in *wInstr, code []wInstr, st *wState, cells func(*Matrix) []T, f *wFile[T], n int) {
	ns := in.nest
	acc := f.strip(ns.acc, n)
	var v []T
	step := 1
	switch in.mode {
	case wSU:
		v, step = f.u[in.a:in.a+1], 0
	case wSS:
		v = f.strip(in.a, n)
	default:
		v, step = inPlace(&code[in.a], st, cells, n)
	}
	o := 0
	switch ns.kind {
	case FoldAdd:
		for i := range acc {
			acc[i] += v[o]
			o += step
		}
	case FoldMul:
		for i := range acc {
			acc[i] *= v[o]
			o += step
		}
	case FoldMin:
		for i := range acc {
			acc[i] = combine(FoldMin, acc[i], v[o])
			o += step
		}
	default:
		for i := range acc {
			acc[i] = combine(FoldMax, acc[i], v[o])
			o += step
		}
	}
}

// foldRows runs a row fold's whole inner range (wNest.rows): each of
// the n cells folds its own contiguous run of the body's matrix in
// ascending order, stripFold's combine, four cells interleaved. The
// context is polled every wPollCells accumulations, as on the back edge.
func foldRows[T int64 | float64](st *wState, cells func(*Matrix) []T, f *wFile[T], end *wInstr, code []wInstr, n int, x Exec) error {
	ns, ld := end.nest, &code[end.a]
	m := st.mats[ld.a]
	var s [InlineRank]int
	base, step := linear(ld.idx, st.i.u, m.strides(&s))
	data, acc := cells(m)[base:], f.strip(ns.acc, n)
	trips := int(st.i.u[ns.bound+1] - st.i.u[ns.bound])
	for c := 0; c < n; c += 4 {
		g := min(4, n-c) // a short last group repeats its last run in the spare lanes
		for k0 := 0; k0 < trips; {
			k1 := min(trips, k0+max(1, st.poll/g))
			run := data[c*step+k0:]
			foldRuns4(ns.kind, acc[c:c+g], run[:k1-k0], run[min(1, g-1)*step:], run[min(2, g-1)*step:], run[min(3, g-1)*step:])
			if st.poll -= g * (k1 - k0); st.poll <= 0 {
				st.poll = wPollCells
				if err := x.cancelled(); err != nil {
					return err
				}
			}
			k0 = k1
		}
	}
	return nil
}

// runRowFold runs the row fold that wFoldBegin in opens, in the file of
// its accumulator.
func (st *wState) runRowFold(in *wInstr, code []wInstr, n int, x Exec) error {
	if in.flt {
		return foldRows(st, (*Matrix).floats, &st.f, &code[in.nest.end], code, n, x)
	}
	return foldRows(st, (*Matrix).ints, &st.i, &code[in.nest.end], code, n, x)
}

// foldRuns4 folds four runs of r0's length into acc's cells, four or
// fewer, each in ascending order with combine's step: four chains in
// flight.
func foldRuns4[T int64 | float64](kind FoldKind, acc, r0, r1, r2, r3 []T) {
	r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
	var a [4]T
	copy(a[:], acc)
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	switch kind {
	case FoldAdd:
		for k, v := range r0 {
			a0, a1, a2, a3 = a0+v, a1+r1[k], a2+r2[k], a3+r3[k]
		}
	case FoldMul:
		for k, v := range r0 {
			a0, a1, a2, a3 = a0*v, a1*r1[k], a2*r2[k], a3*r3[k]
		}
	case FoldMin:
		for k, v := range r0 {
			a0, a1, a2, a3 = combine(FoldMin, a0, v), combine(FoldMin, a1, r1[k]), combine(FoldMin, a2, r2[k]), combine(FoldMin, a3, r3[k])
		}
	default:
		for k, v := range r0 {
			a0, a1, a2, a3 = combine(FoldMax, a0, v), combine(FoldMax, a1, r1[k]), combine(FoldMax, a2, r2[k]), combine(FoldMax, a3, r3[k])
		}
	}
	a = [4]T{a0, a1, a2, a3}
	copy(acc, a[:])
}

// foldSlice folds v into acc in ascending element order — the order,
// and per element the combine, of the closure path's accumulator.
func foldSlice[T int64 | float64](kind FoldKind, acc T, v []T) T {
	switch kind {
	case FoldAdd:
		for _, x := range v {
			acc += x
		}
	case FoldMul:
		for _, x := range v {
			acc *= x
		}
	case FoldMin:
		for _, x := range v {
			if !(acc < x) {
				acc = x
			}
		}
	default:
		for _, x := range v {
			if acc < x {
				acc = x
			}
		}
	}
	return acc
}
