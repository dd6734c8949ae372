package matrix

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

var (
	wOpNames = [...]string{"add", "sub", "mul", "div", "neg", "i2f", "f2i", "iota", "bcast", "copy", "load",
		"foldB", "foldE", "cmp", "cmpF", "sel", "loadB", "quo", "rem", "fused", "nop"}
	wModeNames = [...]string{"UU", "SS", "SU", "US", "Lin"}
)

// shapeName is a table entry's name in testdata/strip_shapes.txt.
func shapeName(s wShape) string {
	side := "left"
	if s.right {
		side = "right"
	}
	return fmt.Sprintf("%s.%s %s.SS %s", wOpNames[s.op1], wModeNames[s.m1], wOpNames[s.op2], side)
}

// listing prints a strip program an instruction a line: the opcode and
// the operand places; a selected tree by its entry and its operands'
// places; nothing for what selection dropped. A fold that runs its
// range a cell at a time is foldB.rows, a range built as floats iotaF.
func listing(p *WithProg) string {
	var b strings.Builder
	for _, in := range p.code {
		switch {
		case in.op == wNop:
			continue
		case in.op == wFused:
			b.WriteString("fused(" + shapeName(wShapes[in.k]) + ")")
			for _, x := range in.idx {
				b.WriteString(" " + wModeNames[x.kind])
			}
		case in.op == wFoldBegin && in.nest.rows:
			b.WriteString("foldB.rows")
		case in.op == wIota && in.flt:
			b.WriteString("iotaF")
		case in.op <= wDiv || in.op == wLoad || in.op == wFoldEnd:
			b.WriteString(wOpNames[in.op] + "." + wModeNames[in.mode])
		default:
			b.WriteString(wOpNames[in.op])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestWithStripShapesTable: the table is small, and each entry is a
// tree some shipped program holds, by the histogram the root package's
// TestStripShapes writes (its second column counts shipped sites).
func TestWithStripShapesTable(t *testing.T) {
	data, err := os.ReadFile("../../testdata/strip_shapes.txt")
	if err != nil {
		t.Fatal(err)
	}
	shipped := map[string]int{}
	for _, line := range strings.Split(string(data), "\n") {
		var bench, n, all int
		if _, err := fmt.Sscanf(line, "%d %d %d", &bench, &n, &all); err == nil {
			shipped[strings.TrimSpace(line[16:])] = n
		}
	}
	if len(wShapes) >= 10 {
		t.Errorf("%d table entries, want fewer than ten", len(wShapes))
	}
	for _, s := range wShapes {
		if shipped[shapeName(s)] == 0 {
			t.Errorf("table entry %q matches no shipped site", shapeName(s))
		}
	}
	if shipped["load.Lin foldE.SS"] == 0 {
		t.Error("no shipped fold body is a load")
	}
}

// TestWithStripBenchListings pins the strip programs of the benchmark
// bodies the table was chosen for, as vet plans them
// (testdata/strip_bodies.json): chain_1m's chain in two passes,
// stencil_256x4's body in four, and temporal_mean's fold reading its
// matrix in place, each cell its own contiguous run of the cube.
func TestWithStripBenchListings(t *testing.T) {
	data, err := os.ReadFile("../../testdata/strip_bodies.json")
	if err != nil {
		t.Fatal(err)
	}
	var bodies map[string]WithSpec
	if err := json.Unmarshal(data, &bodies); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		passes int // strip arithmetic instructions, at most
		want   string
	}{
		{"chain_1m", 2, "fused(mul.SS add.SS left) Lin Lin Lin\nfused(mul.SU sub.SS right) Lin UU SS\n"},
		{"stencil_256x4", 4, "sub.UU\nload.Lin\nadd.UU\nsub.UU\nfused(add.SS add.SS left) SS Lin Lin\nadd.UU\n" +
			"load.Lin\nadd.SS\nfused(mul.US sub.SS right) UU Lin SS\nfused(mul.US add.SS right) UU SS Lin\n"},
		{"temporal_mean", 1, "bcast\nfoldB.rows\nfoldE.Lin\ni2f\ndiv.SU\n"},
	} {
		p, ok := CompileWith(bodies[tc.name])
		if !ok {
			t.Fatalf("%s: the body does not compile", tc.name)
		}
		got := listing(p)
		passes := 0
		for _, in := range p.code {
			if in.op == wFused || in.op <= wDiv && in.mode != wUU {
				passes++
			}
			if in.op == wLoad && tc.name == "temporal_mean" {
				t.Errorf("%s: the fold's body is copied into a strip", tc.name)
			}
		}
		if passes > tc.passes {
			t.Errorf("%s: %d strip arithmetic instructions, want at most %d", tc.name, passes, tc.passes)
		}
		if got != tc.want {
			t.Errorf("%s: listing\n%s", tc.name, got)
		}
	}
	// A range leaf, [lo :: hi] * k as vet writes it: the ids are built as
	// floats, one pass before the product.
	leaf, ok := CompileWith(WithSpec{Code: []WithInstr{{Op: WPushID}, {Op: WPushScalarI}, {Op: WAddI}, {Op: WI2F}, {Op: WPushScalarF}, {Op: WMulF}},
		Rank: 1, ScalarI: 2, ScalarF: 1, Float: true, OutFloat: true})
	if got := listing(leaf); !ok || got != "add.UU\niotaF\nmul.SU\n" {
		t.Errorf("range leaf: listing\n%s", got)
	}
}

// TestWithRowFoldRule: a fold runs its range a cell at a time only when
// its body is one load read in place, its one id indexing the load's
// last dimension and no other.
func TestWithRowFoldRule(t *testing.T) {
	id := func(a int32) WithInstr { return WithInstr{Op: WPushID, A: a} }
	load := WithInstr{Op: WLoadF, A: 0, B: 3}
	for _, tc := range []struct {
		name string
		n    int32       // the fold's ids, numbered from 2: i is 0, the strip's j 1
		body []WithInstr // what the bracket holds
		rows bool
	}{
		{"m[i, j, k]", 1, []WithInstr{id(0), id(1), id(2), load}, true},
		{"m[j, i, k]", 1, []WithInstr{id(1), id(0), id(2), load}, true},
		{"m[k, j, k]", 1, []WithInstr{id(2), id(1), id(2), load}, false},
		{"m[k, j, i]", 1, []WithInstr{id(2), id(1), id(0), load}, false},
		{"m[i, k, j]", 1, []WithInstr{id(0), id(2), id(1), load}, false},
		{"m[i, j + 1, k]", 1, []WithInstr{id(0), id(1), {Op: WPushInt, K: 1}, {Op: WAddI}, id(2), load}, false},
		{"m[i, j, k] * 2.0", 1, []WithInstr{id(0), id(1), id(2), load, {Op: WPushFloat, F: 2}, {Op: WMulF}}, false},
		{"m[j, k, l]", 2, []WithInstr{id(1), id(2), id(3), load}, false},
	} {
		code := []WithInstr{{Op: WPushFloat}}
		for range tc.n {
			code = append(code, WithInstr{Op: WPushInt}, WithInstr{Op: WPushInt, K: 5})
		}
		begin := int32(len(code))
		code = append(append(code, WithInstr{Op: WFoldF, A: tc.n, B: 2, Kind: FoldAdd}), tc.body...)
		code[begin].K = int64(len(code))
		code = append(code, WithInstr{Op: WFoldEnd, A: begin})
		p, ok := CompileWith(WithSpec{Code: code, Rank: 2, MatElem: []Elem{Float}, Float: true, OutFloat: true})
		if !ok {
			t.Fatalf("%s: the plan does not compile", tc.name)
		}
		if got := strings.Contains(listing(p), "foldB.rows"); got != tc.rows {
			t.Errorf("%s: row fold %v, want %v\n%s", tc.name, got, tc.rows, listing(p))
		}
	}
}
