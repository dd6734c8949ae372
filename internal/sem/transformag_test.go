package sem

import (
	"testing"

	"repro/internal/ast"
)

// TestScalarBodies pins the one rule for which with-loop bodies the C
// back end lowers to scalar loop code: Check records it in
// Info.ScalarBodies, the C back end lowers exactly those bodies, and
// split, tile, unroll and vectorize are legal only on them.
func TestScalarBodies(t *testing.T) {
	for _, tc := range []struct {
		body   string
		scalar bool
	}{
		{"v[i] * 2.0", true},
		{"(float)i + s", true},
		{"v[i + n - 1] + (float)dimSize(m, 0)", true},
		{"m[i, end]", true},
		{"-v[i] / (float)(n % 4)", true},
		{"with ([0] <= [k] < [i]) fold(+, 0.0, v[k])", true},
		{"with ([0] <= [i] < [2]) fold(+, 0.0, v[i]) + (float)i", true},
		{"twice(v[i])", false},
		{"(v * 2.0)[i]", false},
		{"(float)dimSize(v * 2.0, 0)", false},
		{"(with ([0] <= [k] < [4]) genarray([4], 1.0))[i]", false},
	} {
		src := "float twice(float x) { return x * 2.0; }\n" +
			"void f(Matrix float <1> v, Matrix float <2> m, int n, float s) {\n" +
			"\tprint(with ([0] <= [i] < [4]) genarray([4], " + tc.body + "));\n}\n"
		_, info := mustCheck(t, src)
		if got := info.ScalarBodies[outerWith(t, info)]; got != tc.scalar {
			t.Errorf("%s: scalar %v, want %v", tc.body, got, tc.scalar)
		}
	}

	// A with-loop in a body that runs general C lowers on its own terms;
	// the enclosing loop's index is a scalar like any other.
	src := "float twice(float x) { return x * 2.0; }\n" +
		"void f(Matrix float <1> v) {\n" +
		"\tprint(with ([0] <= [i] < [4]) genarray([4], twice((with ([0] <= [k] < [8]) genarray([8], v[k] + (float)i))[0])));\n}\n"
	_, info := mustCheck(t, src)
	for e := range info.Types {
		if wl, ok := e.(*ast.WithLoop); ok && wl.Ids[0] == "k" && !info.ScalarBodies[wl] {
			t.Errorf("the nested genarray over k is not scalar")
		}
	}
	if info.ScalarBodies[outerWith(t, info)] {
		t.Errorf("the genarray over i, whose body calls twice, is scalar")
	}
}

// outerWith returns the genarray over i.
func outerWith(t *testing.T, info *Info) *ast.WithLoop {
	t.Helper()
	for e := range info.Types {
		if wl, ok := e.(*ast.WithLoop); ok && wl.Ids[0] == "i" {
			if _, gen := wl.Op.(*ast.GenArrayOp); gen {
				return wl
			}
		}
	}
	t.Fatal("no genarray over i")
	return nil
}
