package loopir

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// meanNest builds the Fig 3 loop nest: the expanded temporal-mean
// with-loops (means[i*n+j] = sum_k mat[(i*n+j)*p+k] / p).
func meanNest(m, n, p int64) []Stmt {
	kLoop := &Loop{Index: "k", Lo: IC(0), Hi: IC(p), Body: []Stmt{
		&AssignStmt{V("tmp"), B("+", V("tmp"), Ld("mat", B("+", B("*", B("+", B("*", V("i"), IC(n)), V("j")), IC(p)), V("k"))))},
	}}
	jLoop := &Loop{Index: "j", Lo: IC(0), Hi: IC(n), Body: []Stmt{
		&DeclStmt{"float", "tmp", FC(0)},
		kLoop,
		&AssignStmt{Ld("means", B("+", B("*", V("i"), IC(n)), V("j"))), B("/", V("tmp"), FC(float64(p)))},
	}}
	iLoop := &Loop{Index: "i", Lo: IC(0), Hi: IC(m), Body: []Stmt{jLoop}}
	return []Stmt{iLoop}
}

func meanEnv(m, n, p int64, seed int64) *Env {
	env := NewEnv()
	r := rand.New(rand.NewSource(seed))
	mat := make([]float64, m*n*p)
	for i := range mat {
		mat[i] = r.Float64() * 10
	}
	env.Arrays["mat"] = mat
	env.Arrays["means"] = make([]float64, m*n)
	return env
}

func runNest(t *testing.T, nest []Stmt, env *Env) []float64 {
	t.Helper()
	if err := env.Exec(nest); err != nil {
		t.Fatalf("exec: %v", err)
	}
	return env.Arrays["means"]
}

func almostSame(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := a[i] - b[i]
		if d < -1e-9 || d > 1e-9 {
			return false
		}
	}
	return true
}

func TestMeanNestReference(t *testing.T) {
	const m, n, p = 3, 4, 5
	env := meanEnv(m, n, p, 1)
	mat := env.Arrays["mat"]
	got := runNest(t, meanNest(m, n, p), env)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			for k := 0; k < p; k++ {
				acc += mat[(i*n+j)*p+k]
			}
			want := acc / p
			d := got[i*n+j] - want
			if d < -1e-9 || d > 1e-9 {
				t.Fatalf("means[%d,%d] = %v, want %v", i, j, got[i*n+j], want)
			}
		}
	}
}

// Fig 9 → Fig 10: split j by 4 produces jout/jin loops with the
// substituted index, and preserves results.
func TestSplitMatchesFig10(t *testing.T) {
	const m, n, p = 3, 8, 5
	ref := runNest(t, meanNest(m, n, p), meanEnv(m, n, p, 2))

	nest, rest := Split(meanNest(m, n, p), "j", 4, "jin", "jout")
	if rest != nil {
		t.Errorf("8 cells split by 4 leave no remainder, got\n%s", Print(rest))
	}
	src := Print(nest)
	for _, want := range []string{
		"for (int jout = 0; jout < (8 / 4); jout++)",
		"for (int jin = 0; jin < 4; jin++)",
		"((jout * 4) + jin)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("split output missing %q:\n%s", want, src)
		}
	}
	if strings.Contains(src, "int j =") {
		t.Error("original j loop should be gone")
	}
	got := runNest(t, nest, meanEnv(m, n, p, 2))
	if !almostSame(ref, got) {
		t.Fatal("split changed results")
	}
}

// Fig 10 → Fig 11: vectorize jin and parallelize i.
func TestVectorizeAndParallelize(t *testing.T) {
	nest, _ := Split(meanNest(3, 8, 5), "j", 4, "jin", "jout")
	// The Fig 9 schedule: vectorize jin, whose body still contains the
	// scalar k loop (Fig 11 keeps the time loop scalar over vector
	// accumulators). jin's trip count is the split factor 4.
	Vectorize(nest, "jin")
	if FindLoop(nest, "jin").VectorLanes != 4 {
		t.Error("jin should be marked 4-lane")
	}
	Parallelize(nest, "i")
	if !FindLoop(nest, "i").Parallel {
		t.Error("i should be marked parallel")
	}
	src := Print(nest)
	if !strings.Contains(src, "#pragma omp parallel for") {
		t.Errorf("printed nest missing pragma:\n%s", src)
	}
}

func TestReorderPreservesSemantics(t *testing.T) {
	// Perfect 2-deep nest writing out[i*n+j] = i*10 + j.
	const m, n = 4, 5
	build := func() []Stmt {
		j := &Loop{Index: "j", Lo: IC(0), Hi: IC(n), Body: []Stmt{
			&AssignStmt{Ld("out", B("+", B("*", V("i"), IC(n)), V("j"))),
				B("+", B("*", V("i"), IC(10)), V("j"))},
		}}
		return []Stmt{&Loop{Index: "i", Lo: IC(0), Hi: IC(m), Body: []Stmt{j}}}
	}
	envA := NewEnv()
	envA.Arrays["out"] = make([]float64, m*n)
	if err := envA.Exec(build()); err != nil {
		t.Fatal(err)
	}
	nest := Reorder(build(), []string{"j", "i"})
	// j must now be outermost
	outer := nest[0].(*Loop)
	if outer.Index != "j" {
		t.Fatalf("outer loop = %q, want j", outer.Index)
	}
	envB := NewEnv()
	envB.Arrays["out"] = make([]float64, m*n)
	if err := envB.Exec(nest); err != nil {
		t.Fatal(err)
	}
	if !almostSame(envA.Arrays["out"], envB.Arrays["out"]) {
		t.Fatal("reorder changed results")
	}
}

// Tile = split + split + reorder (§V), semantics preserved.
func TestTile(t *testing.T) {
	const m, n = 8, 8
	build := func() []Stmt {
		j := &Loop{Index: "j", Lo: IC(0), Hi: IC(n), Body: []Stmt{
			&AssignStmt{Ld("out", B("+", B("*", V("i"), IC(n)), V("j"))),
				B("*", B("+", V("i"), IC(1)), B("+", V("j"), IC(2)))},
		}}
		return []Stmt{&Loop{Index: "i", Lo: IC(0), Hi: IC(m), Body: []Stmt{j}}}
	}
	ref := NewEnv()
	ref.Arrays["out"] = make([]float64, m*n)
	if err := ref.Exec(build()); err != nil {
		t.Fatal(err)
	}
	nest, rest := Tile(build(), "i", 4, "j", 4)
	if rest != nil {
		t.Errorf("an 8x8 nest tiled by 4x4 leaves no remainder, got\n%s", Print(rest))
	}
	src := Print(nest)
	// outermost-to-innermost: iout, jout, iin, jin
	iOut := strings.Index(src, "int iout")
	jOut := strings.Index(src, "int jout")
	iIn := strings.Index(src, "int iin")
	jIn := strings.Index(src, "int jin")
	if !(iOut < jOut && jOut < iIn && iIn < jIn) || iOut < 0 {
		t.Fatalf("tile order wrong:\n%s", src)
	}
	env := NewEnv()
	env.Arrays["out"] = make([]float64, m*n)
	if err := env.Exec(nest); err != nil {
		t.Fatal(err)
	}
	if !almostSame(ref.Arrays["out"], env.Arrays["out"]) {
		t.Fatal("tile changed results")
	}
}

// Tiling sizes that are not multiples of the tile: the two remainder
// nests (the leftover rows of i, then the leftover columns of j under
// i's full tiles) write every cell the tiles miss, and each cell once.
func TestTileRemainder(t *testing.T) {
	for _, sz := range [][2]int64{{7, 6}, {3, 9}, {2, 2}, {0, 5}} {
		m, n := sz[0], sz[1]
		build := func() []Stmt {
			j := &Loop{Index: "j", Lo: IC(0), Hi: V("n"), Body: []Stmt{
				&AssignStmt{Ld("out", B("+", B("*", V("i"), V("n")), V("j"))),
					B("+", Ld("out", B("+", B("*", V("i"), V("n")), V("j"))), IC(1))},
			}}
			return []Stmt{&Loop{Index: "i", Lo: IC(0), Hi: IC(m), Body: []Stmt{j}}}
		}
		nest, rest := Tile(build(), "i", 4, "j", 4)
		env := NewEnv()
		env.Vars["n"] = IV(n)
		env.Arrays["out"] = make([]float64, m*n)
		if err := env.Exec(append(nest, rest...)); err != nil {
			t.Fatal(err)
		}
		for k, v := range env.Arrays["out"] {
			if v != 1 {
				t.Fatalf("%dx%d: cell %d written %v times\n%s", m, n, k, v, Print(append(nest, rest...)))
			}
		}
	}
}

func TestUnrollPreservesSemantics(t *testing.T) {
	build := func() []Stmt {
		return []Stmt{&Loop{Index: "i", Lo: IC(0), Hi: IC(12), Body: []Stmt{
			&AssignStmt{Ld("out", V("i")), B("*", V("i"), V("i"))},
		}}}
	}
	ref := NewEnv()
	ref.Arrays["out"] = make([]float64, 12)
	if err := ref.Exec(build()); err != nil {
		t.Fatal(err)
	}
	nest := Unroll(build(), "i", 4)
	l := nest[0].(*Loop)
	if hi := l.Hi.(*IntConst).V; hi != 3 {
		t.Errorf("unrolled trip count = %d, want 3", hi)
	}
	if len(l.Body) != 4 {
		t.Errorf("unrolled body stmts = %d, want 4", len(l.Body))
	}
	env := NewEnv()
	env.Arrays["out"] = make([]float64, 12)
	if err := env.Exec(nest); err != nil {
		t.Fatal(err)
	}
	if !almostSame(ref.Arrays["out"], env.Arrays["out"]) {
		t.Fatal("unroll changed results")
	}
}

// Property: split with random factors preserves the temporal mean
// result for random sizes and data, its remainder nest computing the
// cells past the last full tile.
func TestQuickSplitPreserves(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := int64(1 + r.Intn(4))
		factor := int64(1 + r.Intn(4))
		n := int64(r.Intn(13))
		p := int64(1 + r.Intn(5))
		ref := runNoT(meanNest(m, n, p), meanEnv(m, n, p, seed))
		nest, rest := Split(meanNest(m, n, p), "j", factor, "jin", "jout")
		if (rest == nil) != (n%factor == 0) {
			return false
		}
		got := runNoT(append(nest, rest...), meanEnv(m, n, p, seed))
		return ref != nil && got != nil && almostSame(ref, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func runNoT(nest []Stmt, env *Env) []float64 {
	if err := env.Exec(nest); err != nil {
		return nil
	}
	return env.Arrays["means"]
}

func TestSubstShadowing(t *testing.T) {
	// substitution must not descend into loops that rebind the name
	inner := &Loop{Index: "i", Lo: IC(0), Hi: IC(3), Body: []Stmt{
		&AssignStmt{Ld("a", V("i")), V("i")},
	}}
	out := SubstStmt(inner, "i", IC(99)).(*Loop)
	if out.Body[0].(*AssignStmt).RHS.(*VarRef).Name != "i" {
		t.Error("substitution descended into a shadowing loop")
	}
}

// Split i into kin, iout over a body whose own loop is named kin (a
// nested fold's, named by its own clause): the inner loop is renamed,
// so the substituted iout*4 + kin still reads the outer kin.
func TestSubstRenamesCapturingLoop(t *testing.T) {
	build := func() []Stmt {
		k := &Loop{Index: "kin", Lo: IC(0), Hi: IC(3), Body: []Stmt{
			&AssignStmt{Ld("out", V("i")), B("+", Ld("out", V("i")), B("*", V("i"), V("kin")))},
		}}
		return []Stmt{&Loop{Index: "i", Lo: IC(0), Hi: IC(8), Body: []Stmt{k}}}
	}
	ref := NewEnv()
	ref.Arrays["out"] = make([]float64, 8)
	if err := ref.Exec(build()); err != nil {
		t.Fatal(err)
	}
	nest, _ := Split(build(), "i", 4, "kin", "iout")
	env := NewEnv()
	env.Arrays["out"] = make([]float64, 8)
	if err := env.Exec(nest); err != nil {
		t.Fatal(err)
	}
	if !almostSame(env.Arrays["out"], ref.Arrays["out"]) {
		t.Fatalf("split changed the values: %v, want %v\n%s", env.Arrays["out"], ref.Arrays["out"], Print(nest))
	}
}

func TestExecErrors(t *testing.T) {
	env := NewEnv()
	if err := env.Exec([]Stmt{&AssignStmt{Ld("ghost", IC(0)), IC(1)}}); err == nil {
		t.Error("store to unknown array should error")
	}
	if _, err := env.EvalExpr(V("nope")); err == nil {
		t.Error("unbound variable should error")
	}
	env.Arrays["a"] = make([]float64, 2)
	if err := env.Exec([]Stmt{&AssignStmt{Ld("a", IC(5)), IC(1)}}); err == nil {
		t.Error("out-of-range store should error")
	}
}
