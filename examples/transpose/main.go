// Transpose through the with-loop path: the m[j, i] genarray body is
// proven flat by vet and pattern-matched by the VM's flat engine onto
// the panel transpose kernel — the kernel_transpose_total
// metric confirms no per-element evaluation happened. A second
// transpose round-trips the matrix exactly.
//
//	go run ./examples/transpose
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"repro/internal/driver"
)

const transposeProgram = `
int main() {
	int rows = 300;
	int cols = 217;
	Matrix int <2> m;
	m = with ([0, 0] <= [i, j] < [rows, cols]) genarray([rows, cols], i * 1000 + j);
	Matrix int <2> t;
	t = with ([0, 0] <= [i, j] < [cols, rows]) genarray([cols, rows], m[j, i]);
	Matrix int <2> back;
	back = with ([0, 0] <= [i, j] < [rows, cols]) genarray([rows, cols], t[j, i]);
	int diff = with ([0, 0] <= [i, j] < [rows, cols]) fold(+, 0, back[i, j] - m[i, j]);
	print(diff);
	print(t[216, 299]);
	print(dimSize(t, 0));
	print(dimSize(t, 1));
	return 0;
}
`

func main() {
	exts, err := driver.ParseExtensions("all")
	if err != nil {
		log.Fatal(err)
	}
	d := driver.New()
	var out bytes.Buffer
	res, err := d.Run(context.Background(), driver.RunRequest{
		Name: "transpose.xc", Source: transposeProgram, Exts: exts,
		Threads: 4, Engine: "vm", Stdout: &out,
	})
	if err != nil {
		log.Fatalf("run failed: %v", err)
	}
	if res.Engine != "vm" {
		log.Fatalf("expected the bytecode engine, ran on %q", res.Engine)
	}
	fmt.Print(out.String())

	var diff, corner, d0, d1 int
	if _, err := fmt.Sscan(out.String(), &diff, &corner, &d0, &d1); err != nil {
		log.Fatalf("parse program output: %v", err)
	}
	if diff != 0 {
		log.Fatalf("double transpose did not round-trip: residual %d", diff)
	}
	if corner != 299*1000+216 || d0 != 217 || d1 != 300 {
		log.Fatalf("transpose shape or corner wrong: t[216,299]=%d dims %dx%d", corner, d0, d1)
	}
	fmt.Println("double transpose round-trips exactly")

	m := d.MetricsSnapshot()
	fmt.Printf("with-loops compiled flat: %d sites; panel transpose kernel ran %d times\n",
		m.VMWithSites.Load(), m.KernelTranspose)
	if m.KernelTranspose < 2 {
		log.Fatalf("expected both transposes on the panel kernel, got %d", m.KernelTranspose)
	}
}
