// Cilk-style task parallelism as a pluggable extension — the §VIII
// future-work item, implemented. The classic spawned fib plus task-
// parallel matrix work run through the interpreter, and the generated
// C (pthread task runtime) is shown.
//
//	go run ./examples/cilkfib
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

const program = `
int fib(int n) {
	if (n < 2) return n;
	int a = 0;
	int b = 0;
	spawn a = fib(n - 1);   // run asynchronously
	b = fib(n - 2);         // ... while this runs here
	sync;                   // join before combining
	return a + b;
}

Matrix float <1> scale(Matrix float <1> v, float f) {
	int n = dimSize(v, 0);
	return with ([0] <= [i] < [n]) genarray([n], v[i] * f);
}

int main() {
	print(fib(15));

	// task-parallel matrix work: two independent scalings
	Matrix float <1> base = [1 :: 8] * 1.0;
	Matrix float <1> doubled;
	Matrix float <1> tripled;
	spawn doubled = scale(base, 2.0);
	spawn tripled = scale(base, 3.0);
	sync;
	print(doubled[7]);
	print(tripled[7]);
	return 0;
}
`

func main() {
	d := driver.New()
	res, err := d.Run(context.Background(), driver.RunRequest{
		Name: "cilkfib.xc", Source: program, Exts: parser.AllExtensions(),
		Threads: 1})
	if err != nil || !res.OK {
		log.Fatalf("run failed: %v\n%s", err, strings.Join(res.Diagnostics, "\n"))
	}
	fmt.Printf("(exit code %d)\n\n", res.ExitCode)

	cres := d.Compile(context.Background(), driver.CompileRequest{
		Name: "cilkfib.xc", Source: program, Exts: parser.AllExtensions(),
		Codegen: cgen.Options{Par: cgen.ParNone, Optimize: true}})
	if !cres.OK {
		log.Fatal(strings.Join(cres.Diagnostics, "\n"))
	}
	fmt.Println("--- generated C (excerpt: the lifted spawn site for fib) ---")
	lines := strings.Split(cres.Output, "\n")
	start := -1
	for i, l := range lines {
		if strings.Contains(l, "spawn site 1") {
			start = i
			break
		}
	}
	if start >= 0 {
		end := start + 28
		if end > len(lines) {
			end = len(lines)
		}
		fmt.Println(strings.Join(lines[start:end], "\n"))
	}
}
