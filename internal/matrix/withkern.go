// Flat with-loop execution — the kernel half of compiled with-loops.
// vet proves a genarray/fold body is an effect-free index expression
// and writes it in the small postfix plan language below; the VM has
// CompileWith turn each plan into a strip program once, binds the
// leaves per execution in a WithRun, and calls GenArrayFlat/FoldFlat,
// which evaluate the body over the backing slices a strip of the
// innermost dimension at a time (withstrip.go) instead of calling back
// into tree evaluation per element.
//
// The contract with the closure path is byte-exactness: GenArrayFlat
// admits its result through the closure path's own admitGenArray, both
// flat entry points combine float folds in the closure path's order,
// and both refuse — returning handled=false, having done nothing — any
// body the flat engine cannot run. An up-front interval analysis over
// the generator box, fold brackets included, proves every matrix load
// in bounds before the first element is touched; anything it cannot
// bound falls back.
package matrix

import (
	"math"
	"sync"

	"repro/internal/par"
)

// WithOp is one opcode of the flat with-loop plan language: a postfix
// expression machine with separate int and float stacks, no branches
// and one failure path (loads are proven in bounds; an int division or
// remainder by a value, not a literal, fails on a zero divisor). A
// condition is a 0/1 mask on the int stack, and a conditional evaluates
// both arms and selects by it.
type WithOp uint8

// Plan opcodes. *I opcodes work the int stack, *F the float stack;
// WI2F/WF2I move a value between them (WF2I truncates like the (int)
// cast). WLoadI/WLoadF pop B int indices and push the element of
// matrix slot A; WLoadI reads a bool slot as 0/1, a strip at a fixed
// stride (the innermost id walks it) or not at all. WDivI/WModI divide
// the top of the int stack by the literal K; WQuoI/WRemI divide the
// value under the top by the top, failing on a zero divisor (vet writes
// neither: they run a lone int / or %). WCmpI/WCmpF compare the top two
// values of their stack by the Op A (OpEq..OpGe) into a 0/1 mask on the
// int stack. WSelI/WSelF pop else, then then, from their stack and the
// mask from the int stack, and push then where the mask is not 0, else
// elsewhere.
//
// WFoldI/WFoldF ... WFoldEnd bracket a nested fold. Before the opening
// bracket the code leaves the base (already of the accumulator's type)
// and then, above it on the int stack, lower and upper for each of the
// fold's A generated ids, which are numbered from B; K is the pc of the
// closing bracket and Kind the operator. The bracketed code is the
// fold's body: it may push ids B..B+A-1 and leaves one value of the
// accumulator's type, which WFoldEnd (A = pc of its opening bracket)
// combines into the base, once per inner index in ascending row-major
// order. After the bracket the fold's value sits where the base was.
const (
	WPushID      WithOp = iota // push generated id A
	WPushInt                   // push constant K
	WPushFloat                 // push constant F
	WPushScalarI               // push int scalar slot A
	WPushScalarF               // push float scalar slot A
	WAddI
	WSubI
	WMulI
	WDivI
	WModI
	WNegI
	WAddF
	WSubF
	WMulF
	WDivF
	WNegF
	WI2F
	WF2I
	WLoadI
	WLoadF
	WFoldI
	WFoldF
	WFoldEnd
	WCmpI
	WCmpF
	WSelI
	WSelF
	WQuoI
	WRemI
)

// WithInstr is one plan instruction.
type WithInstr struct {
	Op   WithOp
	A    int32    // id / scalar slot / matrix slot / fold id count / pc of the opening bracket / comparison
	B    int32    // load arity / first fold id
	K    int64    // int constant / literal divisor / pc of the closing bracket
	F    float64  // float constant
	Kind FoldKind // WFoldI, WFoldF
}

// WithRun is one execution of a compiled plan: the generator box, the
// result shape and the runtime leaves, which the caller fills in, plus
// the per-execution scratch the engines need. Runs are pooled; Release
// hands one back.
type WithRun struct {
	Lower, Upper []int     // the generator box
	Shape        []int     // the result shape (genarray only)
	Mats         []*Matrix // matrix leaves, by load slot
	ScalarI      []int64   // int scalar leaves, by slot
	ScalarF      []float64 // float scalar leaves, by slot
	// Keep, when the caller sets it, is where the run's result comes
	// from: a frame-local site's (see Keep). Release clears it.
	Keep *Keep

	prog  *WithProg
	ints  []int      // backs Lower, Upper, Shape
	ui    []int64    // uniform int file image; ScalarI is a window of it
	uf    []float64  // uniform float file image; ScalarF is a window of it
	ivals []wival    // interval analysis: ids, then the int stack
	mults []int64    // interval analysis: trip products of the open brackets
	chain []chainVal // chain admission: the operand stack
	dims  []int      // chain admission: the range leaves' cell counts
	views []Matrix   // chain execution: the leaves as flat views
}

var withRunPool = sync.Pool{New: func() any { return new(WithRun) }}

// grow returns s with length n, reallocating only when it must. The
// contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NewRun returns a run of p with every leaf slice sized and zero
// matrices bound.
func (p *WithProg) NewRun() *WithRun {
	r := withRunPool.Get().(*WithRun)
	r.prog = p
	rank := p.spec.Rank
	r.ints = grow(r.ints, 3*rank)
	r.Lower, r.Upper, r.Shape = r.ints[:rank:rank], r.ints[rank:2*rank:2*rank], r.ints[2*rank:]
	r.Mats = grow(r.Mats, len(p.spec.MatElem))
	r.ui = append(r.ui[:0], p.uiInit...)
	r.uf = append(r.uf[:0], p.ufInit...)
	r.ScalarI = r.ui[p.scalarI : p.scalarI+p.spec.ScalarI]
	r.ScalarF = r.uf[:p.spec.ScalarF]
	r.ivals = grow(r.ivals, p.ids+len(p.spec.Code)+1)
	r.mults = grow(r.mults, p.nests)
	return r
}

// Release returns the run to the pool; it must not be used afterwards.
func (r *WithRun) Release() {
	clear(r.Mats)
	clear(r.views)
	r.prog, r.Keep = nil, nil
	withRunPool.Put(r)
}

// withIvalMax bounds the interval analysis: a value whose magnitude
// may exceed it becomes unknown, and unknown values cannot feed a
// load. Loop ids and their constant offsets stay far below it. It also caps the
// per-cell cost the analysis reports.
const withIvalMax = int64(1) << 40

type wival struct {
	lo, hi int64
	known  bool
}

func wivalConst(v int64) wival {
	if v > withIvalMax || v < -withIvalMax {
		return wival{}
	}
	return wival{lo: v, hi: v, known: true}
}

func wivalClamp(w wival) wival {
	if !w.known || w.lo > withIvalMax || w.lo < -withIvalMax || w.hi > withIvalMax || w.hi < -withIvalMax {
		return wival{}
	}
	return w
}

// satMul multiplies two positive costs, saturating at withIvalMax.
func satMul(a, b int64) int64 {
	if a > withIvalMax/b {
		return withIvalMax
	}
	return a * b
}

// wivalMod bounds a % k: the remainder takes the dividend's sign and
// stays below |k|, whatever the dividend.
func wivalMod(a wival, k int64) wival {
	if k == math.MinInt64 {
		return wival{}
	}
	m := max(k, -k) - 1
	r := wival{lo: -m, hi: m, known: true}
	if a.known {
		r.lo, r.hi = max(a.lo, -m), min(a.hi, m)
		if a.lo >= 0 {
			r.lo = 0
			if a.hi <= m {
				r.lo = a.lo
			}
		}
		if a.hi <= 0 {
			r.hi = 0
			if a.lo >= -m {
				r.hi = a.hi
			}
		}
	}
	return wivalClamp(r)
}

// feasible runs the plan once over intervals — each id spanning its
// generator range, a nested fold's ids the widest range their bounds
// allow — and proves every load index lands inside its matrix for every
// index in the box. Sound over-approximation: an interval it cannot
// bound (scalar too large, truncated float, non-monotone product
// growth) makes the load infeasible and the whole loop falls back to
// the closure path. A nested fold whose range is empty for every cell
// never runs its body, so its loads are not checked; both arms of a
// select run, so the loads of each are. The box must be
// non-empty, and every matrix leaf bound: an unassigned one is
// infeasible too (element types and ranks are the checker's — binding
// coerces to them). The second result is the plan's cost per cell in
// plan instructions, a nested body counted once per inner trip.
func (r *WithRun) feasible() (int64, bool) {
	for _, m := range r.Mats {
		if m == nil {
			return 0, false
		}
	}
	p := r.prog
	code := p.spec.Code
	ids := r.ivals[:p.ids]
	is := r.ivals[p.ids:p.ids]
	mults := r.mults[:0]
	for k := range r.Lower {
		ids[k] = wivalClamp(wival{lo: int64(r.Lower[k]), hi: int64(r.Upper[k] - 1), known: true})
	}
	cost, mult := int64(0), int64(1)
	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		cost = min(cost+mult, withIvalMax)
		switch in.Op {
		case WPushID:
			is = append(is, ids[in.A])
		case WPushInt:
			is = append(is, wivalConst(in.K))
		case WPushScalarI:
			is = append(is, wivalConst(r.ScalarI[in.A]))
		case WAddI, WSubI:
			n := len(is)
			a, b := is[n-2], is[n-1]
			var v wival
			if a.known && b.known {
				if in.Op == WAddI {
					v = wival{lo: a.lo + b.lo, hi: a.hi + b.hi, known: true}
				} else {
					v = wival{lo: a.lo - b.hi, hi: a.hi - b.lo, known: true}
				}
			}
			is = append(is[:n-2], wivalClamp(v))
		case WMulI:
			n := len(is)
			a, b := is[n-2], is[n-1]
			var v wival
			const mulMax = int64(1) << 31
			if a.known && b.known &&
				a.lo >= -mulMax && a.hi <= mulMax && b.lo >= -mulMax && b.hi <= mulMax {
				p1, p2, p3, p4 := a.lo*b.lo, a.lo*b.hi, a.hi*b.lo, a.hi*b.hi
				v = wival{lo: min(p1, p2, p3, p4), hi: max(p1, p2, p3, p4), known: true}
			}
			is = append(is[:n-2], wivalClamp(v))
		case WDivI:
			// Truncating division by a constant is monotone.
			if a := &is[len(is)-1]; a.known {
				lo, hi := a.lo/in.K, a.hi/in.K
				a.lo, a.hi = min(lo, hi), max(lo, hi)
			}
		case WModI:
			is[len(is)-1] = wivalMod(is[len(is)-1], in.K)
		case WNegI:
			if a := &is[len(is)-1]; a.known {
				a.lo, a.hi = -a.hi, -a.lo
			}
		case WI2F:
			is = is[:len(is)-1]
		case WF2I:
			is = append(is, wival{})
		case WLoadI, WLoadF:
			m := r.Mats[in.A]
			base := len(is) - int(in.B)
			for d, w := range is[base:] {
				if !w.known || w.lo < 0 || w.hi >= int64(m.shape()[d]) {
					return 0, false
				}
			}
			is = is[:base]
			if in.Op == WLoadI {
				is = append(is, wival{})
			}
		case WFoldI, WFoldF:
			n := int(in.A)
			base := len(is) - 2*n
			trips, empty := int64(1), false
			for d := 0; d < n; d++ {
				lo, hi := is[base+2*d], is[base+2*d+1]
				if !lo.known || !hi.known {
					return 0, false
				}
				if hi.hi <= lo.lo {
					empty = true
					continue
				}
				ids[int(in.B)+d] = wival{lo: lo.lo, hi: hi.hi - 1, known: true}
				trips = satMul(trips, hi.hi-lo.lo)
			}
			is = is[:base]
			if in.Op == WFoldI {
				is[base-1] = wival{} // the fold's value
			}
			if empty {
				pc = int(in.K)
				continue
			}
			mults = append(mults, mult)
			mult = satMul(mult, trips)
		case WFoldEnd:
			if code[in.A].Op == WFoldI {
				is = is[:len(is)-1]
			}
			mult = mults[len(mults)-1]
			mults = mults[:len(mults)-1]
		case WCmpI:
			is = append(is[:len(is)-2], wival{lo: 0, hi: 1, known: true})
		case WCmpF:
			is = append(is, wival{lo: 0, hi: 1, known: true})
		case WSelI:
			is = append(is[:len(is)-3], wival{}) // no index is a select
		case WSelF:
			is = is[:len(is)-1]
		case WQuoI, WRemI:
			is = append(is[:len(is)-2], wival{})
		}
	}
	return cost, true
}

// withLoadPlan is a body that is exactly one matrix load indexed by the
// bare generated ids: index d of matrix slot mat is id perm[d].
type withLoadPlan struct {
	mat  int
	perm []int
}

// matchSingleLoad returns the body's withLoadPlan, or nil when it has
// any other shape.
func matchSingleLoad(code []WithInstr) *withLoadPlan {
	last := len(code) - 1
	if last < 1 || (code[last].Op != WLoadI && code[last].Op != WLoadF) || int(code[last].B) != last {
		return nil
	}
	p := &withLoadPlan{mat: int(code[last].A)}
	for _, in := range code[:last] {
		if in.Op != WPushID {
			return nil
		}
		p.perm = append(p.perm, int(in.A))
	}
	return p
}

// GenArrayFlat is the flat engine for a proven genarray body, its
// cells the program's output type. handled=false — with nothing
// allocated and no hook fired — means only that this box cannot run flat
// (an unbound leaf, an index the interval analysis cannot bound); the
// closure path runs it. Otherwise the result (matrix, budget charges,
// alloc-hook firings, error) is observably identical to GenArrayExec
// with a closure of the same body: both admit through admitGenArray.
func GenArrayFlat(r *WithRun, x Exec) (*Matrix, bool, error) {
	p := r.prog
	lower, upper, shape := r.Lower, r.Upper, r.Shape
	elem := Int
	if p.spec.OutFloat {
		elem = Float
	}
	empty := false
	for d := range lower {
		empty = empty || upper[d] <= lower[d]
	}
	cost := int64(0)
	if !empty {
		var ok bool
		if cost, ok = r.feasible(); !ok {
			return nil, false, nil
		}
	}
	out, err := admitGenArray(elem, lower, upper, shape, x, r.Keep)
	if err != nil {
		return nil, true, err
	}
	if empty {
		return out, true, nil
	}
	rank := len(shape)

	// Transpose pattern: out[i,j] = m[j,i] over the whole matrix runs
	// the panel transpose kernel.
	if lp := p.load; lp != nil && covers(lower, upper, shape) && rank == 2 && len(lp.perm) == 2 && lp.perm[0] == 1 && lp.perm[1] == 0 {
		m := r.Mats[lp.mat]
		if m.elem == elem && m.shape()[0] == shape[1] && m.shape()[1] == shape[0] {
			kernelTransposeCount.Add(1)
			if err := transposeInto(out, m, x, true); err != nil {
				out.Recycle()
				return nil, true, err
			}
			return out, true, nil
		}
	}

	// General path: rows distributed over the pool, each row walked in
	// strips. The grain counts plan instructions per row, nested bodies
	// once per inner trip; a rank-1 box has no rows and is cut by cells,
	// like the elementwise kernels.
	grain := ParallelGrain
	if rank > 1 {
		grain = 1
		rowCost := int(cost)
		for d := 1; d < rank; d++ {
			rowCost *= upper[d] - lower[d]
		}
		if cost < int64(ParallelGrain) && rowCost > 0 {
			grain = (ParallelGrain + rowCost - 1) / rowCost
		}
	}
	if err := r.fill(out, poolGrain(x, upper[0]-lower[0], grain), x); err != nil {
		out.Recycle()
		return nil, true, err
	}
	return out, true, nil
}

// fill evaluates the program over the run's box into out: the outermost
// dimension goes through runKernel in chunks of at least grain, and
// every chunk is walked in strips on a state of its own — the pool's
// chunks run concurrently. A box runKernel would not fork for is one
// chunk, walked on the caller with nothing made for it.
func (r *WithRun) fill(out *Matrix, grain int, x Exec) error {
	c := boxChunk{r: r, out: out, x: x, w: r.stripWidth(), lo: r.Lower[0], hi: r.Upper[0]}
	if x.Pool.Workers() == 1 || c.hi-c.lo < 2*grain {
		kernelSerialCount.Add(stackStripe(), 1)
		_, err := par.Solo(c, boxChunk.walk)
		return err
	}
	return runKernel(x, c.hi-c.lo, grain, func(lo, hi int) error {
		c := c
		c.lo, c.hi = r.Lower[0]+lo, r.Lower[0]+hi
		_, err := c.walk()
		return err
	})
}

// boxChunk is rows [lo, hi) of a fill.
type boxChunk struct {
	r         *WithRun
	out       *Matrix
	x         Exec
	w, lo, hi int
}

func (c boxChunk) walk() (struct{}, error) {
	st := c.r.newState(c.w)
	defer st.release()
	return struct{}{}, st.walk(c.r, c.lo, c.hi, c.x, c.out, nil)
}

// stripWidth is the program's strip width, or the innermost extent of
// the box when that is narrower.
func (r *WithRun) stripWidth() int {
	last := len(r.Lower) - 1
	return min(r.prog.width, r.Upper[last]-r.Lower[last])
}

// poolGrain is the grain a genarray hands runKernel: grain, lowered
// when that is what it takes to fork whenever GenArrayExec would (more
// than one worker, two or more rows) — pool-worker observables —
// injected test panics, traps attributed to workers — must be identical
// across engines, and the closure path forks every loop of two rows
// regardless of size.
func poolGrain(x Exec, n, grain int) int {
	if x.Pool.Workers() > 1 && n >= 2 && n < 2*grain {
		return n / 2 // force runKernel's parallel branch
	}
	return grain
}

// FoldFlat is the flat engine for a proven fold body: par.Fold over the
// rows of the outermost dimension, as FoldExec, with a row folded a
// strip at a time — and every strip reduced in ascending element order,
// so float results are bit-identical to the closure path.
// The base has the fold's static type, and so does what the program
// outputs: an int body is promoted as it is folded into a float.
// handled=false defers to the closure path, as GenArrayFlat's does.
func FoldFlat(kind FoldKind, base FoldValue, r *WithRun, x Exec) (FoldValue, bool, error) {
	p := r.prog
	lower, upper := r.Lower, r.Upper
	rank := len(lower)
	for d := range lower {
		if upper[d] <= lower[d] {
			return base, true, nil
		}
	}
	if _, ok := r.feasible(); !ok {
		return base, false, nil
	}

	// A fold of a whole matrix, cell for cell, reduces its rows where
	// they lie, a step's rows in one call; any other body is evaluated a
	// strip at a time. The strips of such a fold would be views of the
	// same cells (a stride-1 load copies nothing), but what is paid per
	// strip — the poll, the dispatch, the call — is not nothing beside
	// one add a cell: without this branch BenchmarkFoldWholeMatrix takes
	// 1.2x to 1.4x the time, at 256² and 1024², on one thread and on two
	// (EXPERIMENTS.md E19). Both combine in ascending element order.
	var whole *Matrix
	if lp := p.load; lp != nil {
		m := r.Mats[lp.mat]
		match := m.Rank() == rank
		for d := 0; match && d < rank; d++ {
			match = lp.perm[d] == d && lower[d] == 0 && upper[d] == m.shape()[d]
		}
		if match {
			whole = m
		}
	}
	rowLen := 1
	for d := 1; d < rank; d++ {
		rowLen *= upper[d] - lower[d]
	}
	j := flatFold{r: r, x: x, kind: kind, whole: whole, rowLen: rowLen,
		w: r.stripWidth(), start: base, lo: lower[0], hi: upper[0], step: 1}
	// A rank-1 box has one-cell rows: it is stepped through a strip's
	// worth of cells at a time instead.
	if rank == 1 {
		j.step = j.w
	}
	var total FoldValue
	var err error
	if x.Pool.Workers() == 1 || j.hi-j.lo == 1 {
		// par.Fold's lone run, with nothing made for it.
		if whole == nil {
			j.st = r.newState(j.w)
			j.st.ownOut(p)
			defer j.st.release()
		}
		total, err = par.Solo(j, flatFold.lone)
	} else {
		// states[k] is worker k's strip state, made by its first step.
		j.states = make([]*wState, x.Pool.Workers())
		defer func() {
			for _, st := range j.states {
				if st != nil {
					st.release()
				}
			}
		}()
		total, err = par.Fold(x.Pool, x.Ctx, j.lo, j.hi, j.step, base, base.identity(kind), j.rows, kind.merge)
	}
	return total, true, err
}

// flatFold is one FoldFlat execution: what folding rows [lo, hi) of the
// outermost dimension takes.
type flatFold struct {
	r            *WithRun
	x            Exec
	kind         FoldKind
	whole        *Matrix // folded where it lies, or nil: evaluated in strips
	rowLen, w    int
	start        FoldValue
	lo, hi, step int
	st           *wState   // the lone run's strip state
	states       []*wState // or one a worker
}

// lone folds the whole range from the base on the caller, a step at a
// time like par.Fold's lone run.
func (j flatFold) lone() (a FoldValue, err error) {
	a = j.start
	for i := j.lo; i < j.hi && err == nil; i += j.step {
		if err = j.x.cancelled(); err == nil {
			a, err = j.rows(0, a, i, min(i+j.step, j.hi))
		}
	}
	return a, err
}

// rows combines rows [r0, r1) into a.
func (j flatFold) rows(worker int, a FoldValue, r0, r1 int) (FoldValue, error) {
	kind, whole := j.kind, j.whole
	switch {
	case whole == nil:
		st := j.st
		if st == nil {
			if st = j.states[worker]; st == nil {
				st = j.r.newState(j.w)
				st.ownOut(j.r.prog)
				j.states[worker] = st
			}
		}
		err := st.walk(j.r, r0, r1, j.x, nil, func(n int) {
			if a.Float {
				a.F = foldSlice(kind, a.F, st.f.out[:n])
			} else {
				a.I = foldSlice(kind, a.I, st.i.out[:n])
			}
		})
		return a, err
	case !a.Float:
		a.I = foldSlice(kind, a.I, whole.ints()[r0*j.rowLen:r1*j.rowLen])
	case whole.elem == Float:
		a.F = foldSlice(kind, a.F, whole.floats()[r0*j.rowLen:r1*j.rowLen])
	default:
		for _, v := range whole.ints()[r0*j.rowLen : r1*j.rowLen] {
			a.F = combine(kind, a.F, float64(v))
		}
	}
	return a, nil
}
