// Quickstart: compile and run the paper's recurring example — the
// temporal-mean program of Fig 1 — with the extensible translator.
//
//	go run ./examples/quickstart
//
// It parses the extended-C source with the composed host+extension
// grammars, type-checks it with the composed attribute-grammar
// semantics, executes it on the parallel interpreter, verifies the
// result against a plain Go computation, and prints the generated
// parallel C (the Fig 3 expansion).
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"repro/internal/cgen"
	"repro/internal/driver"
	"repro/internal/matrix"
	"repro/internal/parser"
)

const program = `
// Fig 1: temporal mean of sea surface heights (extended CMINUS).
int main() {
	Matrix float <3> mat = readMatrix("ssh.data");
	int m = dimSize(mat, 0);
	int n = dimSize(mat, 1);
	int p = dimSize(mat, 2);
	Matrix float <2> means;
	means = with ([0, 0] <= [i, j] < [m, n])
		genarray([m, n],
			with ([0] <= [k] < [p])
				fold(+, 0.0, mat[i, j, k]) / p);
	writeMatrix("means.data", means);
	return 0;
}
`

func main() {
	// Synthesize a small SSH cube.
	const m, n, p = 8, 10, 12
	ssh := matrix.New(matrix.Float, m, n, p)
	r := rand.New(rand.NewSource(42))
	for k := range ssh.Floats() {
		ssh.Floats()[k] = r.Float64() * 3
	}
	files := map[string]*matrix.Matrix{"ssh.data": ssh}

	// Run through the translator + parallel interpreter.
	d := driver.New()
	res, err := d.Run(context.Background(), driver.RunRequest{
		Name: "quickstart.xc", Source: program, Exts: parser.AllExtensions(),
		Files: files, Threads: 4})
	if err != nil || !res.OK {
		log.Fatalf("run failed: %v\n%s", err, strings.Join(res.Diagnostics, "\n"))
	}
	fmt.Printf("program exited with code %d\n", res.ExitCode)

	// Verify against a direct Go computation (the Fig 3 loops).
	means := files["means.data"]
	want := matrix.New(matrix.Float, m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			for k := 0; k < p; k++ {
				acc += ssh.Floats()[(i*n+j)*p+k]
			}
			want.Floats()[i*n+j] = acc / p
		}
	}
	if matrix.AlmostEqual(means, want, 1e-9) {
		fmt.Println("temporal means match the reference computation")
	} else {
		log.Fatal("MISMATCH against the reference computation")
	}
	v, _ := means.At(0, 0)
	fmt.Printf("means[0,0] = %.4f\n", v)

	// Show the translation: Fig 1's with-loops expand to the Fig 3
	// loop nest in the generated C.
	cres := d.Compile(context.Background(), driver.CompileRequest{
		Name: "quickstart.xc", Source: program, Exts: parser.AllExtensions(),
		Codegen: cgen.DefaultOptions()})
	if !cres.OK {
		log.Fatal(strings.Join(cres.Diagnostics, "\n"))
	}
	fmt.Println("\n--- generated C (excerpt: the expanded with-loops) ---")
	printExcerpt(cres.Output)
}

// printExcerpt shows the translated main function only.
func printExcerpt(c string) {
	lines := strings.Split(c, "\n")
	start := -1
	for i, l := range lines {
		if strings.Contains(l, "static long u_main") || strings.Contains(l, "_wlwork") {
			start = i
			break
		}
	}
	if start < 0 {
		start = 0
	}
	end := start + 60
	if end > len(lines) {
		end = len(lines)
	}
	fmt.Println(strings.Join(lines[start:end], "\n"))
}
