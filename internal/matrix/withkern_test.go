// Tests for the strip evaluator. The oracle is refPlan: the plan
// language evaluated one cell at a time, the obvious way — a postfix
// machine over two stacks with a nested fold run as a plain loop. Every
// result of GenArrayFlat/FoldFlat must match it bit for bit, serial and
// pooled, at every row width around the strip width.
package matrix

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/par"
)

// refPlan evaluates code[pc:end) at one cell. ids holds every generated
// id in scope (the loop's, then open folds').
func refPlan(code []WithInstr, pc, end int, ids []int64, mats []*Matrix, sI []int64, sF []float64, is []int64, fs []float64) ([]int64, []float64) {
	for ; pc < end; pc++ {
		in := &code[pc]
		ni, nf := len(is), len(fs)
		switch in.Op {
		case WPushID:
			is = append(is, ids[in.A])
		case WPushInt:
			is = append(is, in.K)
		case WPushFloat:
			fs = append(fs, in.F)
		case WPushScalarI:
			is = append(is, sI[in.A])
		case WPushScalarF:
			fs = append(fs, sF[in.A])
		case WAddI:
			is = append(is[:ni-2], is[ni-2]+is[ni-1])
		case WSubI:
			is = append(is[:ni-2], is[ni-2]-is[ni-1])
		case WMulI:
			is = append(is[:ni-2], is[ni-2]*is[ni-1])
		case WDivI:
			is[ni-1] /= in.K
		case WModI:
			is[ni-1] %= in.K
		case WNegI:
			is[ni-1] = -is[ni-1]
		case WAddF:
			fs = append(fs[:nf-2], fs[nf-2]+fs[nf-1])
		case WSubF:
			fs = append(fs[:nf-2], fs[nf-2]-fs[nf-1])
		case WMulF:
			fs = append(fs[:nf-2], fs[nf-2]*fs[nf-1])
		case WDivF:
			fs = append(fs[:nf-2], fs[nf-2]/fs[nf-1])
		case WNegF:
			fs[nf-1] = -fs[nf-1]
		case WI2F:
			fs = append(fs, float64(is[ni-1]))
			is = is[:ni-1]
		case WF2I:
			is = append(is, int64(fs[nf-1]))
			fs = fs[:nf-1]
		case WLoadI, WLoadF:
			m := mats[in.A]
			base := ni - int(in.B)
			off := 0
			for d := 0; d < int(in.B); d++ {
				off += int(is[base+d]) * rowMajorStride(m.shape(), d)
			}
			is = is[:base]
			if in.Op == WLoadI {
				is = append(is, m.ints()[off])
			} else {
				fs = append(fs, m.floats()[off])
			}
		case WFoldI, WFoldF:
			n := int(in.A)
			bounds := append([]int64(nil), is[ni-2*n:]...)
			is = is[:ni-2*n]
			inner := append(append([]int64(nil), ids[:in.B]...), make([]int64, n)...)
			empty := false
			for d := 0; d < n; d++ {
				inner[int(in.B)+d] = bounds[2*d]
				if bounds[2*d+1] <= bounds[2*d] {
					empty = true
				}
			}
			for !empty {
				bi, bf := refPlan(code, pc+1, int(in.K), inner, mats, sI, sF, nil, nil)
				if in.Op == WFoldI {
					is[len(is)-1] = combine(in.Kind, is[len(is)-1], bi[0])
				} else {
					fs[len(fs)-1] = combine(in.Kind, fs[len(fs)-1], bf[0])
				}
				d := n - 1
				for ; d >= 0; d-- {
					k := int(in.B) + d
					inner[k]++
					if inner[k] < bounds[2*d+1] {
						break
					}
					inner[k] = bounds[2*d]
				}
				empty = d < 0
			}
			pc = int(in.K)
		case WCmpI, WCmpF:
			var c any
			if in.Op == WCmpI {
				c, _ = scalarOp(Op(in.A), is[ni-2], is[ni-1])
				is = is[:ni-2]
			} else {
				c, _ = scalarOp(Op(in.A), fs[nf-2], fs[nf-1])
				fs = fs[:nf-2]
			}
			is = append(is, 0)
			if c.(bool) {
				is[len(is)-1] = 1
			}
		case WSelI:
			v := is[ni-1]
			if is[ni-3] != 0 {
				v = is[ni-2]
			}
			is = append(is[:ni-3], v)
		case WSelF:
			v := fs[nf-1]
			if is[ni-1] != 0 {
				v = fs[nf-2]
			}
			is, fs = is[:ni-1], append(fs[:nf-2], v)
		}
	}
	return is, fs
}

// planGen writes random plans: every value shape the compiler
// distinguishes (uniform, lazy id strip, strip), both load addressings, literal
// divisors of both signs, fold brackets to depth two, and comparisons,
// logic over their masks and selects between arms of any shape.
type planGen struct {
	r     *rand.Rand
	code  []WithInstr
	rank  int // the loop's ids
	ids   int // ids in scope
	depth int // open brackets
}

func (g *planGen) emit(in WithInstr) { g.code = append(g.code, in) }

// testDim and testLong are the extents of the test matrices'
// dimensions: a long one takes a loop id directly (a lazy strip), a
// short one only an index reduced into range.
const (
	testDim  = 7
	testLong = 2*stripMax + 16
)

// index emits an int expression proven inside [0, extent): a loop id
// plus a small offset, or its mirror image, when the dimension is long
// enough for any box the tests use, else a double remainder, which
// bounds whatever the inner expression is.
func (g *planGen) index(extent int) {
	if extent == testLong && g.r.Intn(2) == 0 {
		id := WithInstr{Op: WPushID, A: int32(g.r.Intn(g.rank))} // never negative, unlike a fold's
		switch g.r.Intn(3) {
		case 0:
			g.emit(id)
		case 1:
			g.emit(id)
			g.emit(WithInstr{Op: WPushInt, K: int64(g.r.Intn(4))})
			g.emit(WithInstr{Op: WAddI})
		default:
			g.emit(WithInstr{Op: WPushInt, K: testLong - 1})
			g.emit(id)
			g.emit(WithInstr{Op: WSubI})
		}
		return
	}
	g.intExpr(2, false)
	g.emit(WithInstr{Op: WModI, K: testDim})
	g.emit(WithInstr{Op: WPushInt, K: testDim})
	g.emit(WithInstr{Op: WAddI})
	g.emit(WithInstr{Op: WModI, K: testDim})
}

// pushID pushes a generated id; uniform excludes the strip id.
func (g *planGen) pushID(uniform bool) {
	k := g.r.Intn(g.ids)
	if uniform && k == g.rank-1 {
		if g.rank == 1 && g.ids == 1 {
			g.emit(WithInstr{Op: WPushInt, K: 2})
			return
		}
		k = (k + 1) % g.ids
	}
	g.emit(WithInstr{Op: WPushID, A: int32(k)})
}

func (g *planGen) intExpr(depth int, uniform bool) {
	if depth == 0 {
		switch g.r.Intn(3) {
		case 0:
			g.pushID(uniform)
		case 1:
			g.emit(WithInstr{Op: WPushInt, K: int64(g.r.Intn(9) - 4)})
		default:
			g.emit(WithInstr{Op: WPushScalarI, A: int32(g.r.Intn(2))})
		}
		return
	}
	switch g.r.Intn(12) {
	case 10, 11:
		if uniform {
			g.intExpr(depth-1, uniform)
			return
		}
		g.shape(false, depth)
	case 0, 1, 2:
		g.intExpr(depth-1, uniform)
		g.intExpr(depth-1, uniform)
		g.emit(WithInstr{Op: []WithOp{WAddI, WSubI, WMulI}[g.r.Intn(3)]})
	case 3:
		g.intExpr(depth-1, uniform)
		g.emit(WithInstr{Op: []WithOp{WDivI, WModI}[g.r.Intn(2)], K: []int64{1, -1, 2, 3, -3, 5}[g.r.Intn(6)]})
	case 4:
		g.intExpr(depth-1, uniform)
		g.emit(WithInstr{Op: WNegI})
	case 5:
		if uniform {
			g.intExpr(depth-1, uniform)
			return
		}
		g.index(testLong)
		g.index(testDim)
		g.emit(WithInstr{Op: WLoadI, A: 0, B: 2})
	case 6:
		if uniform {
			g.intExpr(depth-1, uniform)
			return
		}
		g.floatExpr(depth - 1)
		// Keep the truncation defined: |x| stays far below 2^63.
		g.emit(WithInstr{Op: WF2I})
		g.emit(WithInstr{Op: WModI, K: 1000})
	case 7:
		if uniform || g.depth >= 2 {
			g.intExpr(depth-1, uniform)
			return
		}
		g.fold(false, depth)
	case 8:
		if uniform {
			g.intExpr(depth-1, uniform)
			return
		}
		g.mask(depth - 1)
		if g.r.Intn(3) == 0 {
			return // the mask itself, as (int) of the bool
		}
		g.intExpr(depth-1, false)
		g.intExpr(depth-1, false)
		g.emit(WithInstr{Op: WSelI})
	default:
		g.intExpr(0, uniform)
	}
}

// mask emits a 0/1 condition as vet writes one: a comparison of two
// ints or two floats, or && (a product), || (a sum compared with 0) and
// ! (compared equal to 0) over conditions.
func (g *planGen) mask(depth int) {
	cmp := WithInstr{Op: WCmpI, A: int32(OpEq) + int32(g.r.Intn(6))}
	switch g.r.Intn(5) {
	case 0, 1:
		g.intExpr(depth, false)
		g.intExpr(depth, false)
	case 2:
		g.floatExpr(depth)
		g.floatExpr(depth)
		cmp.Op = WCmpF
	case 3:
		if depth == 0 {
			g.mask(0)
			return
		}
		g.mask(depth - 1)
		g.mask(depth - 1)
		if g.r.Intn(2) == 0 {
			g.emit(WithInstr{Op: WMulI})
			return
		}
		g.emit(WithInstr{Op: WAddI})
		g.emit(WithInstr{Op: WPushInt})
		cmp.A = int32(OpNe)
	default:
		if depth == 0 {
			g.mask(0)
			return
		}
		g.mask(depth - 1)
		g.emit(WithInstr{Op: WPushInt})
		cmp.A = int32(OpEq)
	}
	g.emit(cmp)
}

func (g *planGen) floatExpr(depth int) {
	if depth == 0 {
		switch g.r.Intn(3) {
		case 0:
			g.emit(WithInstr{Op: WPushFloat, F: float64(g.r.Intn(17)-8) * 0.37})
		case 1:
			g.emit(WithInstr{Op: WPushScalarF, A: 0})
		default:
			g.intExpr(0, false)
			g.emit(WithInstr{Op: WI2F})
		}
		return
	}
	switch g.r.Intn(12) {
	case 9, 10, 11:
		g.shape(true, depth)
	case 0, 1, 2:
		g.floatExpr(depth - 1)
		g.floatExpr(depth - 1)
		g.emit(WithInstr{Op: []WithOp{WAddF, WSubF, WMulF, WDivF}[g.r.Intn(4)]})
	case 3:
		g.floatExpr(depth - 1)
		g.emit(WithInstr{Op: WNegF})
	case 4:
		g.intExpr(depth-1, false)
		g.emit(WithInstr{Op: WI2F})
	case 5:
		g.index(testDim)
		g.index(testDim)
		g.index(testLong)
		g.emit(WithInstr{Op: WLoadF, A: 1, B: 3})
	case 6:
		if g.depth >= 2 {
			g.floatExpr(depth - 1)
			return
		}
		g.fold(true, depth)
	case 7:
		g.mask(depth - 1)
		g.floatExpr(depth - 1)
		g.floatExpr(depth - 1)
		g.emit(WithInstr{Op: WSelF})
	default:
		g.floatExpr(0)
	}
}

// shapeOps are the plan opcodes of a table tree's operators, int then
// float.
var shapeOps = map[wOp][2]WithOp{wAdd: {WAddI, WAddF}, wSub: {WSubI, WSubF}, wMul: {WMulI, WMulF}, wDiv: {WDivI, WDivF}}

// Operand kinds selection tells apart, as planGen.leaf emits them.
const (
	leafUniform = iota
	leafStrip   // computed
	leafLoad    // a load at stride 1, read in place
	leafStrided // a load at another stride, copied into a strip
)

// leaf emits one operand of the kind named.
func (g *planGen) leaf(float bool, kind, depth int) {
	pick := g.r.Intn(2)
	switch {
	case kind == leafUniform && float:
		g.emit([]WithInstr{{Op: WPushFloat, F: float64(g.r.Intn(9)-4) * 0.75}, {Op: WPushScalarF}}[pick])
	case kind == leafUniform:
		g.emit([]WithInstr{{Op: WPushInt, K: int64(g.r.Intn(9) - 4)}, {Op: WPushScalarI, A: int32(g.r.Intn(2))}}[pick])
	case kind == leafStrip && float:
		g.floatExpr(depth)
	case kind == leafStrip:
		g.intExpr(depth, false)
	default:
		// The strip id, at times plus a few cells, indexes the long
		// dimension of a matrix that is long last (stride 1) or long first
		// (stride testDim). An offset is computed in a temporary the next
		// index may reuse, and a load whose index is gone is not read
		// again in place.
		c := WithInstr{Op: WPushInt, K: int64(g.r.Intn(testDim))}
		id := []WithInstr{{Op: WPushID, A: int32(g.rank - 1)}, {Op: WPushInt, K: int64(g.r.Intn(4))}, {Op: WAddI}}[:1+2*(g.r.Intn(4)/3)]
		switch {
		case float && kind == leafStrided:
			g.code = append(append(g.code, id...), c, WithInstr{Op: WLoadF, A: 2, B: 2})
		case float:
			g.code = append(append(g.code, c, c), id...)
			g.emit(WithInstr{Op: WLoadF, A: 1, B: 3})
		case kind == leafStrided:
			g.code = append(append(g.code, id...), c, WithInstr{Op: WLoadI, A: 0, B: 2})
		default:
			g.code = append(append(g.code, c), id...)
			g.emit(WithInstr{Op: WLoadI, A: 3, B: 2})
		}
	}
}

// shape emits a tree of the selection table, each operand of a random
// kind (uniform where the entry reads one).
func (g *planGen) shape(float bool, depth int) {
	g.tree(wShapes[g.r.Intn(len(wShapes))], float, -1, depth)
}

// tree emits the table's tree s, its operands of the kind named where
// the entry does not read a uniform, or each of a random kind.
func (g *planGen) tree(s wShape, float bool, kind, depth int) {
	f := 0
	if float {
		f = 1
	}
	leaf := func(uniform bool) {
		k := kind
		switch {
		case uniform:
			k = leafUniform
		case k < 0:
			k = leafStrip + g.r.Intn(3)
		}
		g.leaf(float, k, depth-1)
	}
	inner := func() {
		leaf(s.m1 == wUS)
		leaf(s.m1 == wSU)
		g.emit(WithInstr{Op: shapeOps[s.op1][f]})
	}
	if s.right {
		leaf(false)
		inner()
	} else {
		inner()
		leaf(false)
	}
	g.emit(WithInstr{Op: shapeOps[s.op2][f]})
}

// fold emits one bracket: base, uniform bounds a few cells apart
// (sometimes empty), then the bracketed body.
func (g *planGen) fold(float bool, depth int) {
	if float {
		g.floatExpr(depth - 1)
	} else {
		g.intExpr(depth-1, false)
	}
	n := 1 + g.r.Intn(3)
	for d := 0; d < n; d++ {
		g.intExpr(1, true)
		g.emit(WithInstr{Op: WModI, K: 3})
		g.intExpr(1, true)
		g.emit(WithInstr{Op: WModI, K: 3})
		g.emit(WithInstr{Op: WPushInt, K: int64(g.r.Intn(4))})
		g.emit(WithInstr{Op: WAddI})
	}
	begin := len(g.code)
	op := WFoldI
	if float {
		op = WFoldF
	}
	g.emit(WithInstr{Op: op, A: int32(n), B: int32(g.ids), Kind: FoldKind(g.r.Intn(4))})
	g.ids += n
	g.depth++
	switch {
	case g.r.Intn(3) == 0:
		// A body that is one load: the fold reads its matrix in place.
		g.leaf(float, leafLoad+g.r.Intn(2), 0)
	case float:
		g.floatExpr(depth - 1)
	default:
		g.intExpr(depth-1, false)
	}
	g.depth--
	g.ids -= n
	g.code[begin].K = int64(len(g.code))
	g.emit(WithInstr{Op: WFoldEnd, A: int32(begin)})
}

// rowFold emits a fold whose body is one load read along its last
// dimension — the fold's one id indexes it, the strip id the first —
// which runs a cell at a time (foldRows): of kind, from a base that is
// computed or a stride-1 load, over 0, 1, 3, 4, 5, 64 or 65 trips.
func (g *planGen) rowFold(kind FoldKind, float, loadBase bool) {
	base := leafStrip
	if loadBase {
		base = leafLoad
	}
	g.leaf(float, base, 1)
	lo := int64(g.r.Intn(3))
	g.emit(WithInstr{Op: WPushInt, K: lo})
	g.emit(WithInstr{Op: WPushInt, K: lo + []int64{0, 1, 3, 4, 5, 64, 65}[g.r.Intn(7)]})
	op, load, mat := WFoldI, WLoadI, int32(5)
	if float {
		op, load, mat = WFoldF, WLoadF, 4
	}
	begin := len(g.code)
	g.emit(WithInstr{Op: op, A: 1, B: int32(g.ids), Kind: kind})
	g.emit(WithInstr{Op: WPushID, A: int32(g.rank - 1)})
	g.emit(WithInstr{Op: WPushID, A: int32(g.ids)})
	g.emit(WithInstr{Op: load, A: mat, B: 2})
	g.code[begin].K = int64(len(g.code))
	g.emit(WithInstr{Op: WFoldEnd, A: int32(begin)})
}

// testRow is the last extent of the row folds' matrices: every trip
// count rowFold draws, from every lower bound.
const testRow = 69

// testLeaves builds the runtime leaves every generated plan runs
// against.
func testLeaves() ([]*Matrix, []int64, []float64) {
	mi := New(Int, testLong, testDim)
	for k := range mi.ints() {
		mi.ints()[k] = int64((k*37)%23 - 11)
	}
	mf := New(Float, testDim, testDim, testLong)
	for k := range mf.floats() {
		mf.floats()[k] = float64((k*53)%29-14)*0.173 + 0.011
	}
	// The table's trees read one of each at stride 1 and one at stride
	// testDim, or at stride 1 the other way round.
	tf := New(Float, testLong, testDim)
	for k := range tf.floats() {
		tf.floats()[k] = float64((k*41)%31-15)*0.217 - 0.003
	}
	ti := New(Int, testDim, testLong)
	for k := range ti.ints() {
		ti.ints()[k] = int64((k*29)%37 - 18)
	}
	// Row folds read one of these along its last dimension, a row a cell;
	// a sixth of the float cells are NaN, ±0 or ±Inf, for min and max.
	// The NaN is the one arithmetic makes (inf - inf is not folded at
	// compile time), so every NaN a fold meets has one bit pattern and
	// results compare bit for bit whichever operand an add keeps.
	rf, ri := New(Float, testLong, testRow), New(Int, testLong, testRow)
	inf := math.Inf(1)
	special := []float64{inf - inf, math.Copysign(0, -1), 0, inf, -inf}
	for k := range rf.floats() {
		rf.floats()[k] = float64((k*43)%37-18) * 0.131
		if k%6 == 5 {
			rf.floats()[k] = special[k/6%len(special)]
		}
		ri.ints()[k] = int64((k*31)%41 - 20)
	}
	return []*Matrix{mi, mf, tf, ti, rf, ri}, []int64{3, -2}, []float64{0.625}
}

func testSpec(code []WithInstr, rank int, float, outFloat bool) WithSpec {
	return WithSpec{Code: code, Rank: rank, MatElem: []Elem{Int, Float, Float, Int, Float, Int},
		ScalarI: 2, ScalarF: 1, Float: float, OutFloat: outFloat}
}

var leafMats, leafI, leafF = testLeaves()

func bindRun(p *WithProg, lower, upper, shape []int) *WithRun {
	run := p.NewRun()
	mats, sI, sF := leafMats, leafI, leafF
	copy(run.Lower, lower)
	copy(run.Upper, upper)
	copy(run.Shape, shape)
	copy(run.Mats, mats)
	copy(run.ScalarI, sI)
	copy(run.ScalarF, sF)
	return run
}

func testPool(t *testing.T) *par.Pool {
	t.Helper()
	return par.NewPool(3)
}

// TestWithStripMatchesCellByCell: random plans, boxes whose innermost
// extent straddles the strip width, genarray and all four folds, serial
// and pooled, against the one-cell-at-a-time oracle — bit for bit.
func TestWithStripMatchesCellByCell(t *testing.T) {
	pool := testPool(t)
	mats, sI, sF := leafMats, leafI, leafF
	// w is the width of the program under test.
	boxes := func(w int) [][2][]int {
		return [][2][]int{
			{{0}, {1}}, {{0}, {2}}, {{3}, {w + 2}}, {{0}, {w}}, {{1}, {w + 2}}, {{0}, {2*w + 3}},
			{{0, 0}, {3, 1}}, {{1, 2}, {4, w + 1}}, {{0, 0}, {2, w}}, {{0, 5}, {3, w + 6}}, {{0, 0}, {2, 2*w + 3}},
			{{0, 1, 0}, {2, 3, w + 1}}, {{1, 0, 2}, {3, 2, 9}},
		}
	}
	widths := map[int]bool{}
	seen := map[WithOp]bool{}
	fused := map[[4]int]bool{}   // entry, operand, its kind, float: one each program runs serial and pooled
	foldLin := map[bool]bool{}   // a fold reading its body in place, at stride 1 or another
	rowsRan := map[[3]int]bool{} // a row fold's kind, float, pooled: run over a strip of n%4 != 0 cells
	for seed := int64(0); seed < 94; seed++ {
		for _, rank := range []int{1, 2, 3} {
			float := seed%2 == 0
			g := &planGen{r: rand.New(rand.NewSource(seed*31 + int64(rank))), rank: rank, ids: rank}
			switch j := int(seed - 48); {
			case j >= 30: // a row fold of each kind, int and float, from a computed base and a loaded one
				float = (j-30)/4%2 == 0
				g.rowFold(FoldKind(j%4), float, j >= 38)
			case j >= 0: // each of the table's trees, int and float, its operands of each kind
				g.tree(wShapes[j%len(wShapes)], float, leafStrip+j/10%3, 2)
			case float:
				g.floatExpr(3)
			default:
				g.intExpr(3, false)
			}
			code := g.code
			for _, in := range code {
				seen[in.Op] = true
			}
			p, ok := CompileWith(testSpec(code, rank, float, float))
			if !ok {
				t.Fatalf("seed %d rank %d: generated plan does not compile: %+v", seed, rank, code)
			}
			for _, in := range p.code {
				switch {
				case in.op == wFused:
					for pos, x := range in.idx {
						fused[[4]int{int(in.k), pos, int(x.kind), map[bool]int{false: 0, true: 1}[in.flt]}] = true
					}
				case in.op == wFoldEnd && in.mode == wLin:
					foldLin[unitStride(p.code[in.a].idx)] = true
				}
			}
			widths[p.width] = true
			rows := -1 // the row fold's kind
			for _, in := range p.code {
				if in.op == wFoldBegin && in.nest.rows {
					rows = int(in.nest.kind)
				}
			}
			for _, box := range boxes(p.width) {
				lower, upper := box[0], box[1]
				if len(lower) != rank {
					continue
				}
				rowsBox := rows >= 0 && (upper[rank-1]-lower[rank-1])%4 != 0
				// The oracle's value at every cell of the box, computed once:
				// the genarray and the eight folds below all ask for it, the
				// pooled folds from several goroutines.
				type cellVal struct {
					i int64
					f float64
				}
				memo := map[[3]int]cellVal{}
				indexSpace(lower, upper, func(idx []int) {
					ids := make([]int64, rank)
					for d := range idx {
						ids[d] = int64(idx[d])
					}
					is, fs := refPlan(code, 0, len(code), ids, mats, sI, sF, nil, nil)
					var key [3]int
					copy(key[:], idx)
					if float {
						memo[key] = cellVal{f: fs[0]}
					} else {
						memo[key] = cellVal{i: is[0]}
					}
				})
				cell := func(idx []int) (int64, float64) {
					var key [3]int
					copy(key[:], idx)
					v := memo[key]
					return v.i, v.f
				}
				shape := make([]int, rank)
				for d := range shape {
					shape[d] = upper[d] + 1
				}
				for _, x := range []Exec{{}, {Pool: pool}} {
					run := bindRun(p, lower, upper, shape)
					out, handled, err := GenArrayFlat(run, x)
					run.Release()
					if !handled || err != nil {
						t.Fatalf("seed %d box %v: genarray handled=%v err=%v\n%+v", seed, box, handled, err, code)
					}
					indexSpace(make([]int, rank), shape, func(idx []int) {
						inside := true
						for d := range idx {
							inside = inside && idx[d] >= lower[d] && idx[d] < upper[d]
						}
						var wi int64
						var wf float64
						if inside {
							wi, wf = cell(idx)
						}
						off, _ := out.Offset(idx)
						if float && math.Float64bits(out.floats()[off]) != math.Float64bits(wf) {
							t.Fatalf("seed %d box %v pool=%v cell %v: got %v want %v\n%+v", seed, box, x.Pool != nil, idx, out.floats()[off], wf, code)
						}
						if !float && out.ints()[off] != wi {
							t.Fatalf("seed %d box %v pool=%v cell %v: got %d want %d\n%+v", seed, box, x.Pool != nil, idx, out.ints()[off], wi, code)
						}
					})
					if rowsBox {
						rowsRan[[3]int{rows, map[bool]int{false: 0, true: 1}[float], map[bool]int{false: 0, true: 1}[x.Pool != nil]}] = true
					}
					for kind := FoldAdd; kind <= FoldMax; kind++ {
						var base any = int64(2)
						if float {
							base = 0.75
						}
						// The closure path with the oracle as its body: same
						// worker split, same seeds, same combine order.
						want, err := foldExecAny(kind, base, lower, upper, func(idx []int) (any, error) {
							wi, wf := cell(idx)
							if float {
								return wf, nil
							}
							return wi, nil
						}, x)
						if err != nil {
							t.Fatal(err)
						}
						run := bindRun(p, lower, upper, shape)
						got, handled, err := foldFlatAny(kind, base, run, x)
						run.Release()
						if !handled || err != nil {
							t.Fatalf("seed %d box %v: fold handled=%v err=%v", seed, box, handled, err)
						}
						same := got == want
						if float {
							same = math.Float64bits(got.(float64)) == math.Float64bits(want.(float64))
						}
						if !same {
							t.Fatalf("seed %d box %v pool=%v fold %v: got %v want %v\n%+v", seed, box, x.Pool != nil, kind, got, want, code)
						}
					}
				}
			}
		}
	}
	if len(widths) < 2 {
		t.Errorf("every generated program has one strip width: %v", widths)
	}
	for _, op := range []WithOp{WCmpI, WCmpF, WSelI, WSelF} {
		if !seen[op] {
			t.Errorf("no generated plan holds opcode %d", op)
		}
	}
	for k, s := range wShapes {
		for pos, uniform := range []bool{s.m1 == wUS, s.m1 == wSU, false} {
			kinds := []wMode{wSS, wLin}
			switch {
			case uniform:
				kinds = []wMode{wUU}
			case pos == 1 && !s.right:
				kinds = kinds[1:] // z is computed in y's register: a strip y is gone
			}
			for _, kind := range kinds {
				for f := 0; f < 2; f++ {
					if !fused[[4]int{k, pos, int(kind), f}] {
						t.Errorf("%s (float %d): operand %d never read as %s", shapeName(s), f, pos, wModeNames[kind])
					}
				}
			}
		}
	}
	if !foldLin[true] || !foldLin[false] {
		t.Errorf("folds reading their body in place, by stride 1 or not: %v", foldLin)
	}
	for kind := FoldAdd; kind <= FoldMax; kind++ {
		for f := 0; f < 2; f++ {
			for pooled := 0; pooled < 2; pooled++ {
				if !rowsRan[[3]int{int(kind), f, pooled}] {
					t.Errorf("no row fold of kind %v (float %d, pooled %d) ran over a strip of n%%4 != 0 cells", kind, f, pooled)
				}
			}
		}
	}
}

// unitStride reports whether a load walks its matrix at stride 1: only
// its last index moves along the strip.
func unitStride(idx []wIndex) bool {
	for k, ix := range idx {
		if (ix.kind == wLin) != (k == len(idx)-1) {
			return false
		}
	}
	return true
}

// TestWithStripIntBodyIntoFloatCells: an int body promotes per cell
// into float cells and into a float accumulator, as Set and the closure
// path's accumulator do.
func TestWithStripIntBodyIntoFloatCells(t *testing.T) {
	code := []WithInstr{{Op: WPushID, A: 0}, {Op: WPushInt, K: 3}, {Op: WMulI}, {Op: WPushInt, K: 4}, {Op: WSubI}}
	p, ok := CompileWith(testSpec(code, 1, false, true))
	if !ok {
		t.Fatal("plan does not compile")
	}
	n := stripMax + 5
	run := bindRun(p, []int{0}, []int{n}, []int{n})
	out, handled, err := GenArrayFlat(run, Exec{})
	run.Release()
	if !handled || err != nil {
		t.Fatalf("handled=%v err=%v", handled, err)
	}
	for i, v := range out.floats() {
		if v != float64(i*3-4) {
			t.Fatalf("cell %d = %v, want %v", i, v, float64(i*3-4))
		}
	}
	run = bindRun(p, []int{0}, []int{n}, []int{n})
	got, handled, err := foldFlatAny(FoldAdd, 0.5, run, Exec{})
	run.Release()
	if want := 0.5 + float64(3*n*(n-1)/2-4*n); !handled || err != nil || got != want {
		t.Fatalf("fold = %v handled=%v err=%v, want %v", got, handled, err, want)
	}
}

// TestWithStripDeclinesBeforeAnyObservable: what the interval analysis
// cannot prove, and an unbound leaf, fall back with no hook firing and
// no budget charge.
func TestWithStripDeclinesBeforeAnyObservable(t *testing.T) {
	// m[i, i+1] one past the row's end, then a nested fold reading
	// m[i, k] one past it, then m[i, i-1] under an arm only i > 0 takes:
	// both arms run.
	shifted := []WithInstr{{Op: WPushID, A: 0}, {Op: WPushID, A: 0}, {Op: WPushInt, K: 1}, {Op: WAddI}, {Op: WLoadI, A: 0, B: 2}}
	guarded := []WithInstr{
		{Op: WPushID, A: 0}, {Op: WPushInt}, {Op: WCmpI, A: int32(OpGt)},
		{Op: WPushID, A: 0}, {Op: WPushID, A: 0}, {Op: WPushInt, K: 1}, {Op: WSubI}, {Op: WLoadI, A: 0, B: 2},
		{Op: WPushInt, K: -1}, {Op: WSelI},
	}
	nested := []WithInstr{
		{Op: WPushInt, K: 0},
		{Op: WPushInt, K: 0}, {Op: WPushInt, K: testDim + 1},
		{Op: WFoldI, A: 1, B: 1, K: 7, Kind: FoldAdd},
		{Op: WPushID, A: 0}, {Op: WPushID, A: 1}, {Op: WLoadI, A: 0, B: 2},
		{Op: WFoldEnd, A: 3},
	}
	var fired int
	TestHookAllocFail = func(int) error { fired++; return nil }
	defer func() { TestHookAllocFail = nil }()
	for name, code := range map[string][]WithInstr{"shifted": shifted, "nested": nested, "guarded": guarded} {
		p, ok := CompileWith(testSpec(code, 1, false, false))
		if !ok {
			t.Fatalf("%s: plan does not compile", name)
		}
		budget := NewBudget(1 << 20)
		run := bindRun(p, []int{0}, []int{testDim}, []int{testDim})
		fired = 0
		_, handled, err := GenArrayFlat(run, Exec{Budget: budget})
		if handled || err != nil || fired != 0 || budget.Used() != 0 {
			t.Errorf("%s: handled=%v err=%v hook fired %d budget %d, want a silent decline",
				name, handled, err, fired, budget.Used())
		}
		if name == "shifted" {
			// One row fewer keeps the load inside: the same run is handled.
			run.Upper[0] = testDim - 1
			if _, handled, err := GenArrayFlat(run, Exec{Budget: budget}); !handled || err != nil {
				t.Errorf("shifted, one row fewer: handled=%v err=%v", handled, err)
			}
			if budget.Used() != testDim || fired != 1 {
				t.Errorf("after one handled run: budget %d, hook fired %d, want %d and 1", budget.Used(), fired, testDim)
			}
			fired = 0
			run.Mats[0] = nil
			if _, handled, _ := GenArrayFlat(run, Exec{Budget: budget}); handled {
				t.Error("an unbound leaf was handled")
			}
			if budget.Used() != testDim {
				t.Errorf("declines charged the budget: %d", budget.Used())
			}
		}
		run.Release()
	}
}

// TestCompileWithRejectsMalformedPlans: the strip compiler is the
// plan's verifier.
func TestCompileWithRejectsMalformedPlans(t *testing.T) {
	for name, tc := range map[string]struct {
		code  []WithInstr
		float bool
	}{
		"empty":              {nil, false},
		"stack_underflow":    {[]WithInstr{{Op: WPushInt, K: 1}, {Op: WAddI}}, false},
		"two_values_left":    {[]WithInstr{{Op: WPushInt, K: 1}, {Op: WPushInt, K: 2}}, false},
		"wrong_result_type":  {[]WithInstr{{Op: WPushInt, K: 1}}, true},
		"id_out_of_scope":    {[]WithInstr{{Op: WPushID, A: 1}}, false},
		"scalar_slot":        {[]WithInstr{{Op: WPushScalarI, A: 2}}, false},
		"matrix_slot":        {[]WithInstr{{Op: WPushID, A: 0}, {Op: WPushID, A: 0}, {Op: WLoadI, A: 2, B: 2}}, false},
		"matrix_elem":        {[]WithInstr{{Op: WPushID, A: 0}, {Op: WPushID, A: 0}, {Op: WLoadF, A: 0, B: 2}, {Op: WF2I}}, false},
		"divisor_zero":       {[]WithInstr{{Op: WPushID, A: 0}, {Op: WModI, K: 0}}, false},
		"unknown_opcode":     {[]WithInstr{{Op: WSelF + 1}}, false},
		"comparison_op":      {[]WithInstr{{Op: WPushID, A: 0}, {Op: WPushInt}, {Op: WCmpI, A: int32(OpAdd)}}, false},
		"select_underflow":   {[]WithInstr{{Op: WPushInt, K: 1}, {Op: WPushInt, K: 2}, {Op: WSelI}}, false},
		"select_no_mask":     {[]WithInstr{{Op: WPushFloat, F: 1}, {Op: WPushFloat, F: 2}, {Op: WSelF}}, true},
		"fold_unclosed":      {[]WithInstr{{Op: WPushInt}, {Op: WPushInt}, {Op: WPushInt, K: 2}, {Op: WFoldI, A: 1, B: 1, K: 5, Kind: FoldAdd}, {Op: WPushInt, K: 1}}, false},
		"fold_end_alone":     {[]WithInstr{{Op: WPushInt}, {Op: WFoldEnd, A: 0}}, false},
		"fold_first_id":      {[]WithInstr{{Op: WPushInt}, {Op: WPushInt}, {Op: WPushInt, K: 2}, {Op: WFoldI, A: 1, B: 2, K: 5, Kind: FoldAdd}, {Op: WPushInt, K: 1}, {Op: WFoldEnd, A: 3}}, false},
		"fold_kind":          {[]WithInstr{{Op: WPushInt}, {Op: WPushInt}, {Op: WPushInt, K: 2}, {Op: WFoldI, A: 1, B: 1, K: 5, Kind: FoldMax + 1}, {Op: WPushInt, K: 1}, {Op: WFoldEnd, A: 3}}, false},
		"fold_bound_strip":   {[]WithInstr{{Op: WPushInt}, {Op: WPushInt}, {Op: WPushID, A: 0}, {Op: WFoldI, A: 1, B: 1, K: 5, Kind: FoldAdd}, {Op: WPushInt, K: 1}, {Op: WFoldEnd, A: 3}}, false},
		"fold_body_type":     {[]WithInstr{{Op: WPushInt}, {Op: WPushInt}, {Op: WPushInt, K: 2}, {Op: WFoldI, A: 1, B: 1, K: 5, Kind: FoldAdd}, {Op: WPushFloat, F: 1}, {Op: WFoldEnd, A: 3}}, false},
		"fold_body_two_vals": {[]WithInstr{{Op: WPushInt}, {Op: WPushInt}, {Op: WPushInt, K: 2}, {Op: WFoldI, A: 1, B: 1, K: 6, Kind: FoldAdd}, {Op: WPushInt, K: 1}, {Op: WPushInt, K: 1}, {Op: WFoldEnd, A: 3}}, false},
		"fold_id_after_end":  {[]WithInstr{{Op: WPushInt}, {Op: WPushInt}, {Op: WPushInt, K: 2}, {Op: WFoldI, A: 1, B: 1, K: 5, Kind: FoldAdd}, {Op: WPushInt, K: 1}, {Op: WFoldEnd, A: 3}, {Op: WPushID, A: 1}, {Op: WAddI}}, false},
	} {
		if _, ok := CompileWith(testSpec(tc.code, 1, tc.float, tc.float)); ok {
			t.Errorf("%s: malformed plan compiled", name)
		}
	}
	if _, ok := CompileWith(testSpec([]WithInstr{{Op: WPushFloat, F: 1}}, 1, true, false)); ok {
		t.Error("a float body compiled for int cells")
	}
	if _, ok := CompileWith(testSpec([]WithInstr{{Op: WPushInt, K: 1}}, 0, false, false)); ok {
		t.Error("a rank-0 loop compiled")
	}
}

// TestWithStripRegistersFollowLiveDepth: a long chain of additions
// needs two strip registers however many instructions it has, and a
// body of id±constant loads builds no index strips at all.
func TestWithStripRegistersFollowLiveDepth(t *testing.T) {
	var code []WithInstr
	load := func(di, dj int64) {
		code = append(code, WithInstr{Op: WPushID, A: 0}, WithInstr{Op: WPushInt, K: di}, WithInstr{Op: WAddI},
			WithInstr{Op: WPushID, A: 1}, WithInstr{Op: WPushInt, K: dj}, WithInstr{Op: WSubI},
			WithInstr{Op: WPushInt, K: 0}, WithInstr{Op: WLoadF, A: 1, B: 3})
	}
	load(0, 0)
	for k := int64(1); k < 40; k++ {
		load(k%3, k%2)
		code = append(code, WithInstr{Op: WAddF})
	}
	p, ok := CompileWith(testSpec(code, 2, true, true))
	if !ok {
		t.Fatal("plan does not compile")
	}
	if p.nSF != 2 || p.nSI != 0 {
		t.Errorf("%d float and %d int strip registers for a %d-instruction chain of shifted loads, want 2 and 0",
			p.nSF, p.nSI, len(code))
	}
}

// TestWithStripLoadsAreReadOnly: a load at stride 1 hands the matrix's
// own cells to its register, so whatever is then written in place — a
// nested fold's accumulator whose base is such a load, an int remainder
// over it — must first move to the register's own storage.
func TestWithStripLoadsAreReadOnly(t *testing.T) {
	n := stripMax + 7
	v := New(Float, n)
	u := New(Int, n)
	for k := range v.floats() {
		v.floats()[k], u.ints()[k] = float64(k)+0.5, int64(k)
	}
	// genarray([n], fold(+, v[i], 1.0) over k < 3) and genarray([n], u[i] % 5)
	for _, tc := range []struct {
		code  []WithInstr
		float bool
	}{
		{float: true, code: []WithInstr{
			{Op: WPushID, A: 0}, {Op: WLoadF, A: 1, B: 1},
			{Op: WPushInt, K: 0}, {Op: WPushInt, K: 3},
			{Op: WFoldF, A: 1, B: 1, K: 6, Kind: FoldAdd},
			{Op: WPushFloat, F: 1},
			{Op: WFoldEnd, A: 4},
		}},
		{code: []WithInstr{{Op: WPushID, A: 0}, {Op: WLoadI, A: 0, B: 1}, {Op: WModI, K: 5}}},
	} {
		p, ok := CompileWith(WithSpec{Code: tc.code, Rank: 1, MatElem: []Elem{Int, Float}, Float: tc.float, OutFloat: tc.float})
		if !ok {
			t.Fatalf("plan does not compile: %+v", tc.code)
		}
		run := p.NewRun()
		run.Lower[0], run.Upper[0], run.Shape[0] = 0, n, n
		run.Mats[0], run.Mats[1] = u, v
		out, handled, err := GenArrayFlat(run, Exec{})
		run.Release()
		if !handled || err != nil {
			t.Fatalf("handled=%v err=%v", handled, err)
		}
		for k := 0; k < n; k++ {
			if v.floats()[k] != float64(k)+0.5 || u.ints()[k] != int64(k) {
				t.Fatalf("float %v: leaf cell %d was written: v=%v u=%d", tc.float, k, v.floats()[k], u.ints()[k])
			}
			if tc.float && out.floats()[k] != float64(k)+3.5 || !tc.float && out.ints()[k] != int64(k%5) {
				t.Fatalf("float %v: cell %d = %v %d", tc.float, k, out.floats(), out.ints()[k])
			}
		}
	}
}

// TestWithStripSharedProgram: one compiled program, many concurrent
// executions — the program is immutable and every run owns its scratch
// (the race pass is what gives this teeth).
func TestWithStripSharedProgram(t *testing.T) {
	g := &planGen{r: rand.New(rand.NewSource(99)), rank: 2, ids: 2}
	g.floatExpr(3)
	p, ok := CompileWith(testSpec(g.code, 2, true, true))
	if !ok {
		t.Fatal("plan does not compile")
	}
	lower, upper, shape := []int{0, 0}, []int{5, stripMax + 9}, []int{5, stripMax + 9}
	ref := bindRun(p, lower, upper, shape)
	want, _, err := GenArrayFlat(ref, Exec{})
	ref.Release()
	if err != nil {
		t.Fatal(err)
	}
	pool := testPool(t)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		x := Exec{}
		if w == 0 {
			x.Pool = pool // one pooled execution among the serial ones
		}
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				run := bindRun(p, lower, upper, shape)
				out, handled, err := GenArrayFlat(run, x)
				run.Release()
				if !handled || err != nil {
					t.Errorf("handled=%v err=%v", handled, err)
					return
				}
				for k := range out.floats() {
					if math.Float64bits(out.floats()[k]) != math.Float64bits(want.floats()[k]) {
						t.Errorf("cell %d differs between concurrent executions", k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestWithStripScratchIsPooled: after warm-up a flat genarray allocates
// its output and nothing per cell or per row.
func TestWithStripScratchIsPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled scratch is dropped at random under the race detector")
	}
	code := []WithInstr{{Op: WPushID, A: 0}, {Op: WPushID, A: 1}, {Op: WAddI}, {Op: WI2F}, {Op: WPushFloat, F: 0.5}, {Op: WMulF}}
	p, ok := CompileWith(testSpec(code, 2, true, true))
	if !ok {
		t.Fatal("plan does not compile")
	}
	allocs := testing.AllocsPerRun(20, func() {
		run := p.NewRun()
		run.Lower[0], run.Lower[1] = 0, 0
		run.Upper[0], run.Upper[1] = 64, 300
		run.Shape[0], run.Shape[1] = 64, 300
		out, _, err := GenArrayFlat(run, Exec{})
		run.Release()
		if err != nil {
			t.Fatal(err)
		}
		out.Recycle()
	})
	// The output's header and the row closure; nothing may scale with
	// the 64 rows or the 19200 cells.
	if allocs > 6 {
		t.Errorf("%.0f allocations for a 64x300 flat genarray", allocs)
	}
}

// TestFoldIdentitiesAreTrueIdentities: a pooled min/max over values
// beyond any finite stand-in equals the serial fold, on both engines,
// and a worker with an empty chunk contributes nothing.
func TestFoldIdentitiesAreTrueIdentities(t *testing.T) {
	pool := par.NewPool(4)
	huge := 1.5 * math.Pow(2, 1023)
	for _, tc := range []struct {
		kind FoldKind
		base any
		val  any
	}{
		{FoldMin, math.Inf(1), huge},
		{FoldMin, math.Inf(1), math.Inf(1)},
		{FoldMax, math.Inf(-1), -huge},
		{FoldMax, math.Inf(-1), math.Inf(-1)},
		{FoldMax, int64(math.MinInt64), int64(-1)<<62 - 1000},
		{FoldMin, int64(math.MaxInt64), int64(1)<<62 + 1000},
	} {
		// Five rows over four workers: ceil chunks of two leave the last
		// worker empty.
		for _, n := range []int{5, 64} {
			body := func([]int) (any, error) { return tc.val, nil }
			serial, err := foldExecAny(tc.kind, tc.base, []int{0}, []int{n}, body, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := foldExecAny(tc.kind, tc.base, []int{0}, []int{n}, body, Exec{Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			if serial != tc.val || pooled != serial {
				t.Errorf("FoldExec %v of %d x %v: serial %v, pooled %v", tc.kind, n, tc.val, serial, pooled)
			}
			m := New(Int, n)
			code := []WithInstr{{Op: WPushID, A: 0}, {Op: WLoadI, A: 0, B: 1}}
			_, float := tc.val.(float64)
			if float {
				m = New(Float, n)
				code[1].Op = WLoadF
				for k := range m.floats() {
					m.floats()[k] = tc.val.(float64)
				}
			} else {
				for k := range m.ints() {
					m.ints()[k] = tc.val.(int64)
				}
			}
			p, ok := CompileWith(WithSpec{Code: code, Rank: 1, MatElem: []Elem{m.elem}, Float: float, OutFloat: float})
			if !ok {
				t.Fatal("plan does not compile")
			}
			for _, x := range []Exec{{}, {Pool: pool}} {
				run := p.NewRun()
				run.Lower[0], run.Upper[0], run.Mats[0] = 0, n, m
				got, handled, err := foldFlatAny(tc.kind, tc.base, run, x)
				run.Release()
				if !handled || err != nil || got != tc.val {
					t.Errorf("FoldFlat %v of %d x %v (pool %v) = %v, handled=%v err=%v", tc.kind, n, tc.val, x.Pool != nil, got, handled, err)
				}
			}
		}
	}
}

// TestWithNestedFoldIsTheSequentialFold: the paper's Fig 1 as one plan —
// genarray over [i, j] of fold(+) over k of mat[i, j, k], divided by p.
// Every cell must be the plain loop `acc = base; acc += v` over
// ascending k, bit for bit (the values make float summation order
// matter), at a width past the strip, serial and pooled; an empty inner
// range yields the base.
func TestWithNestedFoldIsTheSequentialFold(t *testing.T) {
	m, n, p := 3, stripMax+5, 9
	mat := New(Float, m, n, p)
	for k := range mat.floats() {
		mat.floats()[k] = float64(k%7)*1e15 + float64(k%11)*0.1 - float64(k%3)*1e15
	}
	code := []WithInstr{
		{Op: WPushFloat, F: 0.25},
		{Op: WPushInt, K: 0}, {Op: WPushScalarI, A: 0},
		{Op: WFoldF, A: 1, B: 2, K: 8, Kind: FoldAdd},
		{Op: WPushID, A: 0}, {Op: WPushID, A: 1}, {Op: WPushID, A: 2}, {Op: WLoadF, A: 0, B: 3},
		{Op: WFoldEnd, A: 3},
		{Op: WPushScalarI, A: 0}, {Op: WI2F}, {Op: WDivF},
	}
	prog, ok := CompileWith(WithSpec{Code: code, Rank: 2, MatElem: []Elem{Float}, ScalarI: 1, Float: true, OutFloat: true})
	if !ok {
		t.Fatal("plan does not compile")
	}
	pool := testPool(t)
	for _, trips := range []int{p, 0} {
		for _, x := range []Exec{{}, {Pool: pool}} {
			run := prog.NewRun()
			copy(run.Upper, []int{m, n})
			copy(run.Shape, []int{m, n})
			run.Lower[0], run.Lower[1] = 0, 0
			run.Mats[0], run.ScalarI[0] = mat, int64(trips)
			out, handled, err := GenArrayFlat(run, x)
			run.Release()
			if !handled || err != nil {
				t.Fatalf("handled=%v err=%v", handled, err)
			}
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					acc := 0.25
					for k := 0; k < trips; k++ {
						acc += mat.floats()[(i*n+j)*p+k]
					}
					want := acc / float64(trips)
					if got := out.floats()[i*n+j]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trips %d pool %v cell [%d,%d] = %v, want %v", trips, x.Pool != nil, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestWithNestedFoldPollsContext: a tiny outer box over a huge inner
// fold is one strip, so the poll between strips never comes; the fold's
// back edge must see the deadline itself. genarray and fold outers,
// serial and pooled.
func TestWithNestedFoldPollsContext(t *testing.T) {
	code := []WithInstr{
		{Op: WPushInt, K: 0},
		{Op: WPushInt, K: 0}, {Op: WPushScalarI, A: 0},
		{Op: WFoldI, A: 1, B: 1, K: 7, Kind: FoldAdd},
		{Op: WPushID, A: 0}, {Op: WPushID, A: 1}, {Op: WAddI},
		{Op: WFoldEnd, A: 3},
	}
	prog, ok := CompileWith(WithSpec{Code: code, Rank: 1, ScalarI: 1})
	if !ok {
		t.Fatal("plan does not compile")
	}
	pool := testPool(t)
	for _, pooled := range []bool{false, true} {
		for _, fold := range []bool{false, true} {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			x := Exec{Ctx: ctx}
			if pooled {
				x.Pool = pool
			}
			run := prog.NewRun()
			run.Lower[0], run.Upper[0], run.Shape[0] = 0, 4, 4
			run.ScalarI[0] = 2_000_000_000
			start := time.Now()
			var handled bool
			var err error
			if fold {
				_, handled, err = foldFlatAny(FoldAdd, int64(0), run, x)
			} else {
				_, handled, err = GenArrayFlat(run, x)
			}
			took := time.Since(start)
			run.Release()
			cancel()
			if !handled || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("pooled %v fold %v: handled=%v err=%v, want the deadline", pooled, fold, handled, err)
			}
			if took > 2*time.Second {
				t.Errorf("pooled %v fold %v: deadline of 20ms seen after %v", pooled, fold, took)
			}
		}
	}
}

// TestWithRowFoldPollsContext: a row fold runs its whole inner range in
// one instruction, so it polls the context itself. Over one strip of a
// genarray it asks at least once every wPollCells accumulations, and a
// context cancelled by its own n-th poll stops it there (pollCtx,
// fuse_test.go).
func TestWithRowFoldPollsContext(t *testing.T) {
	const cells, trips = 5, 40000
	m := New(Float, cells, trips)
	for k := range m.floats() {
		m.floats()[k] = float64(k%7) - 2.5
	}
	code := []WithInstr{
		{Op: WPushFloat}, {Op: WPushInt}, {Op: WPushInt, K: trips},
		{Op: WFoldF, A: 1, B: 1, K: 7, Kind: FoldAdd},
		{Op: WPushID, A: 0}, {Op: WPushID, A: 1}, {Op: WLoadF, A: 0, B: 2},
		{Op: WFoldEnd, A: 3},
	}
	prog, ok := CompileWith(WithSpec{Code: code, Rank: 1, MatElem: []Elem{Float}, Float: true, OutFloat: true})
	if !ok || listing(prog) != "bcast\nfoldB.rows\nfoldE.Lin\ncopy\n" {
		t.Fatalf("the plan is not a row fold: ok %v\n%s", ok, listing(prog))
	}
	run := func(at int64) (int64, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		pc := &pollCtx{Context: ctx, cancel: cancel, at: at}
		r := prog.NewRun()
		defer r.Release()
		r.Lower[0], r.Upper[0], r.Shape[0] = 0, cells, cells
		r.Mats[0] = m
		out, handled, err := GenArrayFlat(r, Exec{Ctx: pc})
		if !handled {
			t.Fatal("the genarray is not run flat")
		}
		if err == nil && out.floats()[cells-1] != foldSlice(FoldAdd, 0, m.floats()[(cells-1)*trips:]) {
			t.Errorf("last cell %v", out.floats()[cells-1])
		}
		return pc.polls.Load(), err
	}
	// One poll before the strip, then one a wPollCells accumulations.
	if polls, err := run(-1); err != nil || polls-1 < cells*trips/wPollCells {
		t.Errorf("%d polls and %v over %d accumulations, want one every %d", polls, err, cells*trips, wPollCells)
	}
	for _, at := range []int64{2, 3, 8} {
		if polls, err := run(at); !errors.Is(err, context.Canceled) || polls != at {
			t.Errorf("cancelled at poll %d: %d polls, err %v", at, polls, err)
		}
	}
}

// indexSpace iterates the multi-indices of a box [lower, upper) in
// row-major order, calling f with a reused index slice.
func indexSpace(lower, upper []int, f func(idx []int)) {
	n := len(lower)
	if n == 0 {
		return
	}
	idx := make([]int, n)
	copy(idx, lower)
	for d := 0; d < n; d++ {
		if lower[d] >= upper[d] {
			return
		}
	}
	for {
		f(idx)
		d := n - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < upper[d] {
				break
			}
			idx[d] = lower[d]
		}
		if d < 0 {
			return
		}
	}
}

// foldValueOf is a boxed int or float as a fold base of its own type.
func foldValueOf(base any) (FoldValue, bool) {
	switch v := base.(type) {
	case int64:
		return FoldValue{I: v}, true
	case float64:
		return FoldValue{F: v, Float: true}, true
	}
	return FoldValue{}, false
}

// foldExecAny and foldFlatAny are FoldExec and FoldFlat for a boxed
// base, with the result boxed: what an engine does around them (a base
// that is no int or float is the closure path's, and no fold at all).
func foldExecAny(kind FoldKind, base any, lower, upper []int, body BodyFunc, x Exec) (any, error) {
	b, ok := foldValueOf(base)
	if !ok {
		return nil, errors.New("fold base is no int or float")
	}
	out, err := FoldExec(kind, b, lower, upper, body, x)
	if err != nil {
		return nil, err
	}
	return out.Any(), nil
}

func foldFlatAny(kind FoldKind, base any, r *WithRun, x Exec) (any, bool, error) {
	b, ok := foldValueOf(base)
	if !ok {
		return nil, false, nil
	}
	out, handled, err := FoldFlat(kind, b, r, x)
	if !handled || err != nil {
		return nil, handled, err
	}
	return out.Any(), true, nil
}
