// Heat diffusion driven through the bytecode engine: the five-point
// stencil body is a pure index expression, so vet proves it and the VM
// lowers both with-loops to the flat engine (no per-element closure
// calls). The example cross-checks the extended-C program against a
// direct Go stencil and reports the with-loop compilation metrics.
//
//	go run ./examples/stencil
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/driver"
)

const n = 64

const heatProgram = `
int main() {
	int n = 64;
	float alpha = 0.1;
	Matrix float <2> u;
	u = with ([28, 28] <= [i, j] < [36, 36]) genarray([n, n], 100.0);
	int step = 0;
	while (step < 50) {
		Matrix float <2> next;
		next = with ([1, 1] <= [i, j] < [n - 1, n - 1])
			genarray([n, n],
				u[i, j] + alpha * (u[i - 1, j] + u[i + 1, j]
					+ u[i, j - 1] + u[i, j + 1] - 4.0 * u[i, j]));
		u = next;
		step = step + 1;
	}
	float total = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, u[i, j]);
	print(total);
	print(u[32, 32]);
	float hottest = with ([0, 0] <= [i, j] < [n, n]) fold(max, 0.0, u[i, j]);
	print(hottest);
	return 0;
}
`

// goHeat replays the same diffusion in plain Go.
func goHeat() (total, center, hottest float64) {
	u := make([][]float64, n)
	for i := range u {
		u[i] = make([]float64, n)
	}
	for i := 28; i < 36; i++ {
		for j := 28; j < 36; j++ {
			u[i][j] = 100
		}
	}
	const alpha = 0.1
	for step := 0; step < 50; step++ {
		next := make([][]float64, n)
		for i := range next {
			next[i] = make([]float64, n)
		}
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				next[i][j] = u[i][j] + alpha*(u[i-1][j]+u[i+1][j]+u[i][j-1]+u[i][j+1]-4*u[i][j])
			}
		}
		u = next
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			total += u[i][j]
			if u[i][j] > hottest {
				hottest = u[i][j]
			}
		}
	}
	return total, u[32][32], hottest
}

func main() {
	exts, err := driver.ParseExtensions("all")
	if err != nil {
		log.Fatal(err)
	}
	d := driver.New()
	var out bytes.Buffer
	res, err := d.Run(context.Background(), driver.RunRequest{
		Name: "heat.xc", Source: heatProgram, Exts: exts,
		Threads: 4, Engine: "vm", Stdout: &out,
	})
	if err != nil {
		log.Fatalf("run failed: %v", err)
	}
	if res.Engine != "vm" {
		log.Fatalf("expected the bytecode engine, ran on %q", res.Engine)
	}
	fmt.Print(out.String())

	var total, center, hottest float64
	if _, err := fmt.Sscan(out.String(), &total, &center, &hottest); err != nil {
		log.Fatalf("parse program output: %v", err)
	}
	wTotal, wCenter, wHottest := goHeat()
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"total heat", total, wTotal}, {"center", center, wCenter}, {"hottest", hottest, wHottest}} {
		if math.Abs(c.got-c.want) > 1e-6*math.Max(1, math.Abs(c.want)) {
			log.Fatalf("%s: extended-C %v, Go reference %v", c.name, c.got, c.want)
		}
	}
	fmt.Println("extended-C diffusion matches the Go reference")

	m := d.MetricsSnapshot()
	fmt.Printf("with-loops compiled flat: %d sites, %d flat executions\n",
		m.VMWithSites.Load(), m.VMWithFlatRuns)
	if m.VMWithSites.Load() == 0 || m.VMWithFlatRuns == 0 {
		log.Fatal("stencil did not run on the flat with-loop engine")
	}
}
