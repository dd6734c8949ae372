// Chains on the strip engine against the unfused kernels they replace:
// ChainFlat must be RangeBudgeted and ElementwiseExec/BroadcastExec run
// one at a time — the same cells bit for bit, the same budget, the same
// allocation-hook calls in the same order, the same error at the same
// admission — whatever the rank, serial and pooled.
package matrix

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/par"
)

// chainNode is a test chain's expression tree: a leaf (matrix slot,
// range, scalar slot or constant) or a stage.
type chainNode struct {
	op     WithOp // a stage's operator; 0 for leaves
	l, r   *chainNode
	mat    int // leaf: matrix slot, or -1
	scalar int // leaf: scalar slot — a range's lo, in the int file, its hi in the next — or -1 for the constant k
	k      float64
	rng    bool // leaf: the range [lo :: hi]
	intMat bool // leaf: an int matrix whatever the chain: on a float chain, promoted
}

// intLeaf reports a leaf whose cells are int on any chain.
func (n *chainNode) intLeaf() bool { return n.rng || n.intMat }

// leaves calls f for every leaf, in plan order.
func (n *chainNode) leaves(f func(*chainNode)) {
	if n.op == 0 {
		f(n)
		return
	}
	n.l.leaves(f)
	n.r.leaves(f)
}

// chainGen writes random legal chains: every stage has a matrix
// operand, a scalar only ever meets a matrix and, with lift, range and
// int matrix leaves appear — on a float chain never both operands of one
// stage, which would be an int stage.
type chainGen struct {
	r                 *rand.Rand
	float, lift       bool
	mats, scals, ints int // slots so far: matrices, float scalars, int scalars
	ranges            int
}

func (g *chainGen) leaf(scalarOK, intOK bool) *chainNode {
	switch {
	case scalarOK && g.r.Intn(3) == 0:
		if g.r.Intn(2) == 0 {
			return &chainNode{mat: -1, scalar: -1, k: float64(g.r.Intn(7) - 3)}
		}
		if g.float {
			g.scals++
			return &chainNode{mat: -1, scalar: g.scals - 1}
		}
		g.ints++
		return &chainNode{mat: -1, scalar: g.ints - 1}
	case g.lift && intOK && g.r.Intn(3) == 0:
		g.ints, g.ranges = g.ints+2, g.ranges+1
		return &chainNode{mat: -1, scalar: g.ints - 2, rng: true}
	}
	g.mats++
	return &chainNode{mat: g.mats - 1, scalar: -1, intMat: g.lift && intOK && g.r.Intn(3) == 0}
}

func (g *chainGen) stage(depth int) *chainNode {
	ops := []WithOp{WAddI, WSubI, WMulI}
	if g.float {
		ops = []WithOp{WAddF, WSubF, WMulF, WDivF}
	}
	n := &chainNode{op: ops[g.r.Intn(len(ops))]}
	sub := func(scalarOK, intOK bool) *chainNode {
		if depth > 0 && g.r.Intn(2) == 0 {
			return g.stage(depth - 1)
		}
		return g.leaf(scalarOK, intOK)
	}
	n.l = sub(true, true)
	n.r = sub(n.l.op != 0 || n.l.mat >= 0 || n.l.rng, !g.float || !n.l.intLeaf())
	return n
}

// tree is the selection table's tree s as a chain: a matrix leaf where
// the entry reads a strip, a scalar where it reads a uniform.
func (g *chainGen) tree(s wShape) *chainNode {
	f := 0
	if g.float {
		f = 1
	}
	leaf := func(uniform bool) *chainNode {
		switch {
		case uniform && g.float:
			g.scals++
			return &chainNode{mat: -1, scalar: g.scals - 1}
		case uniform:
			g.ints++
			return &chainNode{mat: -1, scalar: g.ints - 1}
		}
		g.mats++
		return &chainNode{mat: g.mats - 1, scalar: -1}
	}
	inner, outer := &chainNode{op: shapeOps[s.op1][f]}, &chainNode{op: shapeOps[s.op2][f]}
	if s.right {
		outer.l = leaf(false)
	}
	inner.l, inner.r = leaf(s.m1 == wUS), leaf(s.m1 == wSU)
	if s.right {
		outer.r = inner
	} else {
		outer.l, outer.r = inner, leaf(false)
	}
	return outer
}

// plan writes the tree as vet does: post-order, loads at id 0, a range
// as id 0 plus its lo (naming its hi's slot), WI2F after an int leaf of
// a float chain.
func (n *chainNode) plan(float bool, code []WithInstr) []WithInstr {
	switch {
	case n.op != 0:
		code = n.l.plan(float, code)
		code = n.r.plan(float, code)
		return append(code, WithInstr{Op: n.op})
	case n.intLeaf():
		if n.rng {
			code = append(code, WithInstr{Op: WPushID}, WithInstr{Op: WPushScalarI, A: int32(n.scalar), B: int32(n.scalar + 1)}, WithInstr{Op: WAddI})
		} else {
			code = append(code, WithInstr{Op: WPushID}, WithInstr{Op: WLoadI, A: int32(n.mat), B: 1})
		}
		if float {
			code = append(code, WithInstr{Op: WI2F})
		}
		return code
	case n.mat >= 0:
		load := WLoadI
		if float {
			load = WLoadF
		}
		return append(code, WithInstr{Op: WPushID}, WithInstr{Op: load, A: int32(n.mat), B: 1})
	case n.scalar >= 0 && float:
		return append(code, WithInstr{Op: WPushScalarF, A: int32(n.scalar)})
	case n.scalar >= 0:
		return append(code, WithInstr{Op: WPushScalarI, A: int32(n.scalar)})
	case float:
		return append(code, WithInstr{Op: WPushFloat, F: n.k})
	}
	return append(code, WithInstr{Op: WPushInt, K: int64(n.k)})
}

// chainEnv is what a test chain runs against.
type chainEnv struct {
	float bool
	mats  []*Matrix
	sI    []int64
	sF    []float64
}

// env makes the leaves tree runs against: matrices of shape, int where
// the leaf says so, scalars that make products wrap alike, and — shape
// is rank 1 then — every range spanning shape's cells, from anywhere.
func (g *chainGen) env(tree *chainNode, shape []int) *chainEnv {
	e := &chainEnv{float: g.float, mats: make([]*Matrix, g.mats), sI: make([]int64, g.ints)}
	for k := 0; k < g.scals; k++ {
		e.sF = append(e.sF, 0.5+float64(k))
	}
	for k := range e.sI {
		e.sI[k] = math.MaxInt64 - int64(k)
	}
	elem := Int
	if g.float {
		elem = Float
	}
	for k := range e.mats {
		e.mats[k] = randKernelMat(g.r, elem, shape...)
	}
	tree.leaves(func(n *chainNode) {
		switch {
		case n.rng:
			lo := []int64{0, -3, math.MinInt64, math.MaxInt64 - int64(shape[0])}[g.r.Intn(4)]
			if shape[0] == 0 {
				lo = 0 // hi < lo, with no wrap
			}
			e.sI[n.scalar], e.sI[n.scalar+1] = lo, lo+int64(shape[0])-1
		case n.intMat:
			e.mats[n.mat] = randKernelMat(g.r, Int, shape...)
		}
	})
	return e
}

// unfused evaluates the tree through the kernels, one range or stage at
// a time in post-order, recycling intermediates like the interpreter;
// stage counts the admissions begun, so it ends on the failing one.
func (n *chainNode) unfused(e *chainEnv, x Exec, stage *int) (any, error) {
	switch {
	case n.rng:
		*stage++
		m, err := RangeBudgeted(x.Budget, e.sI[n.scalar], e.sI[n.scalar+1])
		if err != nil {
			return nil, err
		}
		return m, nil
	case n.op == 0 && n.mat >= 0:
		return e.mats[n.mat], nil
	case n.op == 0 && n.scalar >= 0 && e.float:
		return e.sF[n.scalar], nil
	case n.op == 0 && n.scalar >= 0:
		return e.sI[n.scalar], nil
	case n.op == 0 && e.float:
		return n.k, nil
	case n.op == 0:
		return int64(n.k), nil
	}
	l, err := n.l.unfused(e, x, stage)
	if err != nil {
		return nil, err
	}
	r, err := n.r.unfused(e, x, stage)
	if err != nil {
		return nil, err
	}
	*stage++
	lm, lIsM := l.(*Matrix)
	rm, rIsM := r.(*Matrix)
	if lIsM && lm == nil || rIsM && rm == nil {
		return nil, ErrUnassignedOperand
	}
	var out *Matrix
	switch {
	case lIsM && rIsM:
		out, err = ElementwiseExec(chainOp[n.op], lm, rm, x)
	case lIsM:
		out, err = BroadcastExec(chainOp[n.op], lm, r, true, x)
	default:
		out, err = BroadcastExec(chainOp[n.op], rm, l, false, x)
	}
	if n.l.op != 0 || n.l.rng {
		lm.Recycle()
	}
	if n.r.op != 0 || n.r.rng {
		rm.Recycle()
	}
	return out, err
}

// chain compiles the tree's plan and runs it on the strip engine.
func (n *chainNode) chain(t *testing.T, e *chainEnv, x Exec) (*Matrix, int, error) {
	t.Helper()
	spec := WithSpec{Code: n.plan(e.float, nil), Rank: 1, MatElem: make([]Elem, len(e.mats)),
		ScalarI: len(e.sI), ScalarF: len(e.sF), Float: e.float, OutFloat: e.float}
	for k, m := range e.mats {
		if spec.MatElem[k] = Float; !e.float || m != nil && m.elem == Int {
			spec.MatElem[k] = Int
		}
	}
	p, ok := CompileWith(spec)
	if !ok {
		t.Fatalf("chain plan does not compile: %+v", spec.Code)
	}
	run := p.NewRun()
	defer run.Release()
	copy(run.Mats, e.mats)
	copy(run.ScalarI, e.sI)
	copy(run.ScalarF, e.sF)
	return ChainFlat(run, x)
}

// chainDiff runs tree as a chain and stage by stage, each under a budget
// of the same size, and fails on any observable the two differ in: the
// error and the admission it is raised at, the cells charged, the
// allocation hook's calls, the result's cells.
func chainDiff(t *testing.T, label string, tree *chainNode, e *chainEnv, pool *par.Pool, budget int64) {
	t.Helper()
	var calls []int
	TestHookAllocFail = func(cells int) error { calls = append(calls, cells); return nil }
	defer func() { TestHookAllocFail = nil }()
	x := Exec{Pool: pool, Budget: NewBudget(budget)}
	ws := -1
	want, werr := tree.unfused(e, x, &ws)
	wantCalls := slices.Clone(calls)
	calls = calls[:0]
	y := Exec{Pool: pool, Budget: NewBudget(budget)}
	got, gs, gerr := tree.chain(t, e, y)
	if (werr == nil) != (gerr == nil) || werr != nil && (werr.Error() != gerr.Error() || ws != gs) {
		t.Fatalf("%s: chain fails at %d with %v, unfused stages at %d with %v", label, gs, gerr, ws, werr)
	}
	if !slices.Equal(calls, wantCalls) || x.Budget.Used() != y.Budget.Used() {
		t.Errorf("%s: chain charged %d cells and the hook saw %v; unfused stages %d and %v", label, y.Budget.Used(), calls, x.Budget.Used(), wantCalls)
	}
	if werr != nil {
		return
	}
	wm := want.(*Matrix)
	if !got.SameShape(wm) || got.elem != wm.elem || !slices.Equal(got.ints(), wm.ints()) ||
		!slices.EqualFunc(got.floats(), wm.floats(), func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Errorf("%s: chain result differs from the unfused stages'", label)
	}
}

// recordAllocs installs an allocation hook that records every request.
func recordAllocs(t *testing.T) *[]int {
	var calls []int
	TestHookAllocFail = func(cells int) error { calls = append(calls, cells); return nil }
	t.Cleanup(func() { TestHookAllocFail = nil })
	return &calls
}

// TestChainMatchesUnfusedStages: random float and int chains over
// shapes of every rank — an innermost extent of one, no cells at all,
// more cells than two parallel grains — against the stage-at-a-time
// kernels.
func TestChainMatchesUnfusedStages(t *testing.T) {
	pool := testPool(t)
	calls := recordAllocs(t)
	shapes := [][]int{{1}, {7}, {stripMax + 3}, {3, 5}, {4096, 1}, {2, 3, 4}, {0}, {3, 0, 2}, {2*ParallelGrain + 5}, {3, ParallelGrain}}
	for seed := int64(0); seed < 80; seed++ {
		float := seed%2 == 0
		g := &chainGen{r: rand.New(rand.NewSource(seed)), float: float, lift: seed >= 40}
		tree := g.stage(3)
		for _, shape := range shapes {
			if g.ranges > 0 && len(shape) > 1 {
				continue // a range is rank 1
			}
			e := g.env(tree, shape)
			mats := e.mats
			// The leaves' cells before anything ran.
			beforeF, beforeI := make([][]float64, len(mats)), make([][]int64, len(mats))
			for k, m := range mats {
				beforeF[k], beforeI[k] = slices.Clone(m.floats()), slices.Clone(m.ints())
			}
			for _, p := range []*Exec{{}, {Pool: pool}} {
				label := fmt.Sprintf("seed %d shape %v pooled %v", seed, shape, p.Pool != nil)
				*calls = (*calls)[:0]
				x := Exec{Pool: p.Pool, Budget: NewBudget(1 << 30)}
				stage := -1
				want, werr := tree.unfused(e, x, &stage)
				if werr != nil {
					t.Fatalf("%s: unfused stages: %v", label, werr)
				}
				wantCalls := slices.Clone(*calls)
				*calls = (*calls)[:0]
				y := Exec{Pool: p.Pool, Budget: NewBudget(1 << 30)}
				got, failed, err := tree.chain(t, e, y)
				if err != nil || failed != -1 {
					t.Fatalf("%s: chain: stage %d: %v", label, failed, err)
				}
				if !slices.Equal(*calls, wantCalls) {
					t.Errorf("%s: allocation hook saw %v, unfused stages %v", label, *calls, wantCalls)
				}
				if x.Budget.Used() != y.Budget.Used() {
					t.Errorf("%s: chain charged %d cells, unfused stages %d", label, y.Budget.Used(), x.Budget.Used())
				}
				wm := want.(*Matrix)
				if !got.SameShape(wm) || got.elem != wm.elem {
					t.Fatalf("%s: chain result %v %v, want %v %v", label, got.elem, got.shape(), wm.elem, wm.shape())
				}
				for k := range wm.floats() {
					if math.Float64bits(got.floats()[k]) != math.Float64bits(wm.floats()[k]) {
						t.Fatalf("%s: cell %d = %v, want %v", label, k, got.floats()[k], wm.floats()[k])
					}
				}
				if !slices.Equal(got.ints(), wm.ints()) {
					t.Fatalf("%s: int cells differ", label)
				}
				// Loads alias the leaves' cells: the result must not, and
				// nothing may have been written through them.
				for k, m := range mats {
					if len(m.floats()) > 0 && len(got.floats()) > 0 && &m.floats()[0] == &got.floats()[0] || len(m.ints()) > 0 && len(got.ints()) > 0 && &m.ints()[0] == &got.ints()[0] {
						t.Fatalf("%s: the result is leaf %d's storage", label, k)
					}
					if !slices.Equal(m.ints(), beforeI[k]) || !slices.EqualFunc(m.floats(), beforeF[k], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
						t.Fatalf("%s: leaf %d was written", label, k)
					}
				}
				got.Recycle()
				wm.Recycle()
			}
		}
	}
}

// TestChainAdmissionFailsAtTheStage: an unassigned leaf, two shapes of
// equal cell count, a budget that runs out mid-chain — at each of a
// range line's three doors — and an allocation hook that refuses a stage
// or a range each fail where and how the unfused stages do, having
// charged what they charged.
func TestChainAdmissionFailsAtTheStage(t *testing.T) {
	leaf := func(k int) *chainNode { return &chainNode{mat: k, scalar: -1} }
	// (m0 + m1) - (m2 .* m3): stages 0, 1, root 2.
	tree := &chainNode{op: WSubF,
		l: &chainNode{op: WAddF, l: leaf(0), r: leaf(1)},
		r: &chainNode{op: WMulF, l: leaf(2), r: leaf(3)}}
	// Fig 8's line over six cells, ([lo :: hi] * s0) + s1: the range is
	// admission 0, the stages 1 and 2; and the range beside a matrix.
	line := &chainNode{op: WAddF,
		l: &chainNode{op: WMulF, l: &chainNode{mat: -1, scalar: 0, rng: true}, r: &chainNode{mat: -1, scalar: 0}},
		r: &chainNode{mat: -1, scalar: 1}}
	beside := &chainNode{op: WSubF, l: leaf(0), r: &chainNode{op: WMulF, l: &chainNode{mat: -1, scalar: 0, rng: true}, r: leaf(1)}}
	r := rand.New(rand.NewSource(1))
	a, b := randKernelMat(r, Float, 2, 3), randKernelMat(r, Float, 3, 2)
	v5 := randKernelMat(r, Float, 5)
	for _, tc := range []struct {
		name   string
		tree   *chainNode
		mats   []*Matrix
		budget int64
		hook   func(call int) error
		stage  int
		text   string
	}{
		{name: "range: budget at the range", tree: line, budget: 5, stage: 0,
			text: "matrix: allocation of 6 cells exceeds the budget (0 of 5 cells already used)"},
		{name: "range: budget at the stage's output", tree: line, budget: 11, stage: 1,
			text: "matrix: allocation of 6 cells exceeds the budget (6 of 11 cells already used)"},
		{name: "range: budget at the next stage", tree: line, budget: 17, stage: 2,
			text: "matrix: allocation of 6 cells exceeds the budget (12 of 17 cells already used)"},
		{name: "range: allocation refused", tree: line, stage: 0, text: "injected",
			hook: func(call int) error {
				if call == 0 {
					return errors.New("injected")
				}
				return nil
			}},
		{name: "range: unassigned beside it", tree: beside, mats: []*Matrix{v5, nil}, stage: 1, text: ErrUnassignedOperand.Error()},
		{name: "range: six cells against five", tree: beside, mats: []*Matrix{v5, v5}, stage: 1,
			text: "matrix: * requires equal shapes, got [6] and [5]"},
		{name: "unassigned", mats: []*Matrix{a, a, a, nil}, stage: 1, text: ErrUnassignedOperand.Error()},
		{name: "equal cells, different shape", mats: []*Matrix{a, a, a, b}, stage: 1,
			text: "matrix: * requires equal shapes, got [2 3] and [3 2]"},
		{name: "different shape at the root", mats: []*Matrix{a, a, b, b}, stage: 2,
			text: "matrix: - requires equal shapes, got [2 3] and [3 2]"},
		{name: "budget mid-chain", mats: []*Matrix{a, a, a, a}, budget: 13, stage: 2,
			text: "matrix: allocation of 6 cells exceeds the budget (12 of 13 cells already used)"},
		{name: "allocation refused", mats: []*Matrix{a, a, a, a}, stage: 1, text: "injected",
			hook: func(call int) error {
				if call == 1 {
					return errors.New("injected")
				}
				return nil
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(chain bool) (int, string, int64, int) {
				calls := 0
				TestHookAllocFail = func(int) error {
					calls++
					if tc.hook != nil {
						return tc.hook(calls - 1)
					}
					return nil
				}
				defer func() { TestHookAllocFail = nil }()
				x := Exec{Budget: NewBudget(tc.budget)}
				e := &chainEnv{float: true, mats: tc.mats, sI: []int64{-2, 3}, sF: []float64{0.75, 1.5}}
				tree := tree
				if tc.tree != nil {
					tree = tc.tree
				}
				stage := -1
				var err error
				if chain {
					_, stage, err = tree.chain(t, e, x)
				} else {
					_, err = tree.unfused(e, x, &stage)
				}
				if err == nil {
					t.Fatalf("chain %v: no error", chain)
				}
				return stage, err.Error(), x.Budget.Used(), calls
			}
			ws, wtext, wcells, wcalls := run(false)
			if ws != tc.stage || wtext != tc.text {
				t.Fatalf("unfused stages fail at %d with %q, the test expects %d, %q", ws, wtext, tc.stage, tc.text)
			}
			gs, gtext, gcells, gcalls := run(true)
			if gs != ws || gtext != wtext || gcells != wcells || gcalls != wcalls {
				t.Errorf("chain: stage %d %q, %d cells, %d hook calls; unfused stages: stage %d %q, %d cells, %d hook calls",
					gs, gtext, gcells, gcalls, ws, wtext, wcells, wcalls)
			}
		})
	}
}

// pollCtx is a context cancelled by its own n-th poll, counting them.
type pollCtx struct {
	context.Context
	cancel context.CancelFunc
	at     int64
	polls  atomic.Int64
}

func (c *pollCtx) Done() <-chan struct{} {
	if c.polls.Add(1) == c.at {
		c.cancel()
	}
	return c.Context.Done()
}

// TestChainPollsContext: a 2^24-cell chain whose context dies at the
// fifth poll stops there — it does not run to completion, and after the
// cancellation a goroutine polls once more at most (twice, if it polled
// between the count and the cancel): what is evaluated between two polls
// is one strip, serially and pooled alike.
func TestChainPollsContext(t *testing.T) {
	a := New(Float, 1<<24)
	leaf := &chainNode{mat: 0, scalar: -1}
	tree := &chainNode{op: WSubF, l: &chainNode{op: WAddF, l: leaf, r: leaf}, r: leaf}
	pool := testPool(t)
	for _, pooled := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		pc := &pollCtx{Context: ctx, cancel: cancel, at: 5}
		x := Exec{Ctx: pc}
		after := int64(0)
		if pooled {
			x.Pool = pool
			after = 2 * int64(pool.Workers()-1)
		}
		out, stage, err := tree.chain(t, &chainEnv{float: true, mats: []*Matrix{a}}, x)
		cancel()
		if !errors.Is(err, context.Canceled) || out != nil || stage != 1 {
			t.Fatalf("pooled %v: out %v stage %d err %v, want the cancellation at the root", pooled, out != nil, stage, err)
		}
		if polls := pc.polls.Load(); polls > pc.at+after {
			t.Errorf("pooled %v: %d polls, cancelled at the %dth: want at most %d more", pooled, polls, pc.at, after)
		}
	}
}
