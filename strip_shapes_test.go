// The data behind the strip engine's selection table (matrix.wShapes):
// a histogram of the two-node arithmetic trees in every plan the
// shipped programs compile to — each with-loop site of with_sites.txt's
// programs and bench/programs/, and every chain of those and of the
// dual-engine corpus — and the plans of the three benchmark bodies the
// table was chosen for, whose listings internal/matrix pins.
// Regenerate both files with:
//
//	go test -run TestStripShapes -update-strip-shapes .
package repro_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/matrix"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/vet"
)

var updateStripShapes = flag.Bool("update-strip-shapes", false, "rewrite testdata/strip_shapes.txt")

const stripShapesPath = "testdata/strip_shapes.txt"

// programPlans returns the with-loop plans and the chain plans of one
// program, each in source order.
func programPlans(t *testing.T, name, src string) (withs, chains []matrix.WithSpec) {
	t.Helper()
	var d source.Diagnostics
	prog := parser.ParseFile(name, src, parser.AllExtensions(), &d)
	if prog == nil {
		return nil, nil
	}
	info := sem.Check(prog, &d)
	if d.HasErrors() {
		return nil, nil
	}
	for _, s := range vet.WithSites(prog, info) {
		if s.Plan == nil {
			continue
		}
		if _, ok := s.At.(*ast.WithLoop); ok {
			withs = append(withs, s.Plan.Spec())
		} else {
			chains = append(chains, s.Plan.Spec())
		}
	}
	return withs, chains
}

// shapeVal is one value of the histogram's walk over a plan: uniform
// along the strip (U), the strip id plus or minus a uniform (L), or a
// strip (S); node names the single arithmetic instruction that
// computed a strip, and lin marks a load at a fixed stride.
type shapeVal struct {
	kind byte
	node string
	lin  bool
}

var shapeOps = map[matrix.WithOp]string{
	matrix.WAddI: "add", matrix.WSubI: "sub", matrix.WMulI: "mul",
	matrix.WAddF: "add", matrix.WSubF: "sub", matrix.WMulF: "mul", matrix.WDivF: "div",
}

// planShapes counts the two-node trees of one plan, keyed as
// matrix.FusedShapes names them, following CompileWith's value kinds.
func planShapes(spec matrix.WithSpec, count func(key string)) {
	var is, fs []shapeVal
	var open []bool // the fold brackets the walk is inside, float or not
	pop := func(st *[]shapeVal) shapeVal {
		v := (*st)[len(*st)-1]
		*st = (*st)[:len(*st)-1]
		return v
	}
	place := func(v shapeVal) string {
		if v.kind == 'U' {
			return "U"
		}
		return "S"
	}
	strip := func(vs ...shapeVal) shapeVal {
		for _, v := range vs {
			if v.kind != 'U' {
				return shapeVal{kind: 'S'}
			}
		}
		return shapeVal{kind: 'U'}
	}
	for _, in := range spec.Code {
		st := &is
		if in.Op == matrix.WPushFloat || in.Op == matrix.WPushScalarF || (in.Op >= matrix.WAddF && in.Op <= matrix.WNegF) || in.Op == matrix.WSelF {
			st = &fs
		}
		switch in.Op {
		case matrix.WPushID:
			k := byte('U')
			if int(in.A) == spec.Rank-1 {
				k = 'L'
			}
			is = append(is, shapeVal{kind: k})
		case matrix.WPushInt, matrix.WPushFloat, matrix.WPushScalarI, matrix.WPushScalarF:
			*st = append(*st, shapeVal{kind: 'U'})
		case matrix.WAddI, matrix.WSubI, matrix.WMulI, matrix.WAddF, matrix.WSubF, matrix.WMulF, matrix.WDivF:
			b, a := pop(st), pop(st)
			lazy := (in.Op == matrix.WAddI && (a.kind == 'L' && b.kind == 'U' || a.kind == 'U' && b.kind == 'L')) ||
				(in.Op == matrix.WSubI && a.kind == 'L' && b.kind == 'U')
			switch {
			case lazy:
				*st = append(*st, shapeVal{kind: 'L'})
			case a.kind == 'U' && b.kind == 'U':
				*st = append(*st, shapeVal{kind: 'U'})
			default:
				node := shapeOps[in.Op] + "." + place(a) + place(b)
				if a.node != "" && node == shapeOps[in.Op]+".SS" {
					count(a.node + " " + node + " left")
				}
				if b.node != "" && node == shapeOps[in.Op]+".SS" {
					count(b.node + " " + node + " right")
				}
				if a.node == "iota.i2f" || b.node == "iota.i2f" {
					count("iota.i2f " + node)
				}
				*st = append(*st, shapeVal{kind: 'S', node: node})
			}
		case matrix.WDivI, matrix.WModI, matrix.WNegI, matrix.WNegF, matrix.WF2I:
			if in.Op == matrix.WF2I {
				is = append(is, strip(pop(&fs)))
			} else {
				*st = append(*st, strip(pop(st)))
			}
		case matrix.WI2F:
			v := pop(&is)
			w := strip(v)
			if v.kind == 'L' {
				w.node = "iota.i2f"
			}
			fs = append(fs, w)
		case matrix.WQuoI, matrix.WRemI:
			is = append(is, strip(pop(&is), pop(&is)))
		case matrix.WLoadI, matrix.WLoadF:
			v := shapeVal{kind: 'U'}
			for _, x := range is[len(is)-int(in.B):] {
				switch {
				case x.kind == 'S':
					v = shapeVal{kind: 'S'}
				case x.kind == 'L' && v.kind == 'U':
					v = shapeVal{kind: 'S', lin: true}
				}
			}
			is = is[:len(is)-int(in.B)]
			if in.Op == matrix.WLoadF {
				fs = append(fs, v)
			} else {
				is = append(is, v)
			}
		case matrix.WFoldI, matrix.WFoldF:
			is = is[:len(is)-2*int(in.A)]
			flt := in.Op == matrix.WFoldF
			base := &is
			if flt {
				base = &fs
			}
			(*base)[len(*base)-1] = shapeVal{kind: 'S'}
			open = append(open, flt)
		case matrix.WFoldEnd:
			body := &is
			if open[len(open)-1] {
				body = &fs
			}
			open = open[:len(open)-1]
			if v := pop(body); v.lin {
				count("load.Lin foldE.SS")
			}
		case matrix.WCmpI:
			is = append(is, strip(pop(&is), pop(&is)))
		case matrix.WCmpF:
			is = append(is, strip(pop(&fs), pop(&fs)))
		case matrix.WSelI, matrix.WSelF:
			e, th := pop(st), pop(st)
			v := strip(e, th, pop(&is))
			*st = append(*st, v)
		}
	}
}

// TestStripShapes writes the histogram the selection table is read
// from.
func TestStripShapes(t *testing.T) {
	progs := corpus(t)
	paths, err := filepath.Glob("bench/programs/*.xc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no benchmark programs: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, corpusProgram{filepath.ToSlash(path), string(src)})
	}
	all, shipped, bench := map[string]int{}, map[string]int{}, map[string]int{}
	for _, p := range progs {
		withs, chains := programPlans(t, p.name, p.src)
		for _, spec := range append(withs, chains...) {
			planShapes(spec, func(key string) {
				all[key]++
				shipped[key]++
				if strings.HasPrefix(p.name, "bench/") {
					bench[key]++
				}
			})
		}
	}
	for _, tc := range vmCorpus {
		_, chains := programPlans(t, tc.name+".xc", tc.src)
		for _, spec := range chains {
			planShapes(spec, func(key string) { all[key]++ })
		}
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if bench[a] != bench[b] {
			return bench[a] > bench[b]
		}
		if all[a] != all[b] {
			return all[a] > all[b]
		}
		return a < b
	})
	var b strings.Builder
	b.WriteString("# Two-node trees of the strip programs: trees in bench/programs bodies, in shipped programs (with_sites.txt's and bench/programs), in those and the dual-engine corpus's chains.\n")
	b.WriteString("# Regenerate: go test -run TestStripShapes -update-strip-shapes .\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%4d %4d %4d  %s\n", bench[k], shipped[k], all[k], k)
	}
	for path, got := range map[string][]byte{stripShapesPath: []byte(b.String()), stripBodiesPath: benchBodies(t)} {
		if *updateStripShapes {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		} else if want, err := os.ReadFile(path); err != nil || string(want) != string(got) {
			t.Errorf("%s is stale (regenerate with -update-strip-shapes); got\n%s", path, got)
		}
	}
	// Every table entry holds a shipped site: TestWithStripShapesTable in
	// internal/matrix reads the second column.
	for k, n := range shipped {
		if n == 0 {
			t.Errorf("%q counted without a shipped site", k)
		}
	}
}

// stripBodies are the benchmark bodies the table was chosen for, by
// program: each its longest plan. TestStripShapes writes their specs
// to testdata/strip_bodies.json, where the strip compiler's listing
// test (internal/matrix) reads them.
var stripBodies = []string{"bench/programs/chain_1m.xc", "bench/programs/stencil_256x4.xc", "bench/programs/temporal_mean.xc"}

const stripBodiesPath = "testdata/strip_bodies.json"

func benchBodies(t *testing.T) []byte {
	t.Helper()
	var b strings.Builder
	for k, file := range stripBodies {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var body matrix.WithSpec
		withs, chains := programPlans(t, file, string(src))
		for _, spec := range append(withs, chains...) {
			if len(spec.Code) > len(body.Code) {
				body = spec
			}
		}
		spec, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		sep := map[bool]string{false: ",", true: "\n}\n"}[k == len(stripBodies)-1]
		fmt.Fprintf(&b, "%s\n%q: %s%s", map[bool]string{false: "", true: "{"}[k == 0], strings.TrimSuffix(filepath.Base(file), ".xc"), spec, sep)
	}
	return []byte(b.String())
}
