// User-directed program transformation (§V): show how the same
// temporal-mean with-loops translate under different programmer-
// specified schedules — the untransformed Fig 3 expansion, the Fig 10
// split, the Fig 11 vectorized+parallelized form, tiling (the derived
// transformation), and the automatic pthread fork-join lifting of
// §III-C.
//
//	go run ./examples/transforms
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/cgen"
	"repro/internal/driver"
	"repro/internal/parser"
)

const base = `
int main() {
	Matrix float <3> mat = readMatrix("ssh.data");
	int m = dimSize(mat, 0);
	int n = dimSize(mat, 1);
	int p = dimSize(mat, 2);
	Matrix float <2> means;
	means = with ([0, 0] <= [i, j] < [m, n])
		genarray([m, n],
			with ([0] <= [k] < [p])
				fold(+, 0.0, mat[i, j, k]) / p)%s;
	writeMatrix("means.data", means);
	return 0;
}
`

func main() {
	show("Fig 3: plain expansion (no transform clauses, -par none)",
		"", cgen.Options{Par: cgen.ParNone, Optimize: true})
	show("Fig 10: transform split j by 4, jin, jout",
		"\n\t\ttransform split j by 4, jin, jout", cgen.Options{Par: cgen.ParNone, Optimize: true})
	show("Fig 11: split + vectorize jin + parallelize i (-par omp)",
		"\n\t\ttransform split j by 4, jin, jout. vectorize jin. parallelize i",
		cgen.Options{Par: cgen.ParOMP, Optimize: true})
	show("tile i by 4, j by 4 (the derived transformation: two splits + reorder)",
		"\n\t\ttransform tile i by 4, j by 4", cgen.Options{Par: cgen.ParNone, Optimize: true})
	show("automatic parallelization (§III-C): fork-join pool lifting (-par pthread)",
		"", cgen.Options{Par: cgen.ParPthread, Optimize: true})
}

func show(title, clause string, opts cgen.Options) {
	src := fmt.Sprintf(base, clause)
	res := driver.New().Compile(context.Background(), driver.CompileRequest{
		Name: "transforms.xc", Source: src, Exts: parser.AllExtensions(), Codegen: opts})
	if !res.OK {
		log.Fatalf("%s:\n%s", title, strings.Join(res.Diagnostics, "\n"))
	}
	fmt.Printf("=== %s ===\n", title)
	fmt.Println(excerpt(res.Output))
	fmt.Println()
}

// excerpt extracts the translated main (or lifted worker) section.
func excerpt(c string) string {
	lines := strings.Split(c, "\n")
	var keep []string
	on := false
	depth := 0
	for _, l := range lines {
		if strings.Contains(l, "lifted for the fork-join pool") ||
			strings.Contains(l, "static long u_main") {
			on = true
		}
		if !on {
			continue
		}
		keep = append(keep, l)
		depth += strings.Count(l, "{") - strings.Count(l, "}")
		if on && depth == 0 && strings.Contains(l, "}") && len(keep) > 3 {
			// stop at the end of the first complete block unless the
			// worker comes first (then keep going to include u_main)
			if strings.Contains(keep[0], "u_main") {
				break
			}
			if strings.HasPrefix(l, "}") && len(keep) > 20 {
				break
			}
		}
		if len(keep) > 90 {
			keep = append(keep, "    ... (truncated)")
			break
		}
	}
	return strings.Join(keep, "\n")
}
