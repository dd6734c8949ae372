// Spatial smoothing (denoising) of SSH fields — the preprocessing the
// paper's §IV motivates ("susceptible to noise in the sea surface
// height data collected from satellites"). A five-point stencil is
// written as a with-loop over the interior of each lat x lon slice and
// mapped over the time dimension with matrixMap; whole-dimension
// indexed stores (§III-A.3(c)) restore the borders.
//
//	go run ./examples/smoothing
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"strings"

	"repro/internal/driver"
	"repro/internal/eddy"
	"repro/internal/matrix"
	"repro/internal/parser"
)

const smoothProgram = `
Matrix float <2> smooth(Matrix float <2> s) {
	int rows = dimSize(s, 0);
	int cols = dimSize(s, 1);
	Matrix float <2> sm;
	// genarray over the interior; the shape is a superset of the
	// generator (checked at runtime), borders default to 0...
	sm = with ([1, 1] <= [i, j] < [rows - 1, cols - 1])
		genarray([rows, cols],
			(s[i, j] * 4.0 + s[i - 1, j] + s[i + 1, j] + s[i, j - 1] + s[i, j + 1]) / 8.0);
	// ...and are then restored with whole-dimension indexed stores.
	sm[0, :] = s[0, :];
	sm[rows - 1, :] = s[rows - 1, :];
	sm[:, 0] = s[:, 0];
	sm[:, cols - 1] = s[:, cols - 1];
	return sm;
}

int main() {
	Matrix float <3> ssh = readMatrix("ssh.data");
	Matrix float <3> smoothed = matrixMap(smooth, ssh, [0, 1]);
	writeMatrix("smoothed.data", smoothed);
	return 0;
}
`

func main() {
	opts := eddy.SynthOptions{Lat: 28, Lon: 36, Time: 24, NumEddies: 4,
		NoiseAmp: 0.15, SwellAmp: 0.05, Seed: 3}
	noisy, _ := eddy.Synthesize(opts)
	clean, _ := eddy.Synthesize(eddy.SynthOptions{Lat: opts.Lat, Lon: opts.Lon,
		Time: opts.Time, NumEddies: opts.NumEddies, NoiseAmp: 0,
		SwellAmp: opts.SwellAmp, Seed: opts.Seed})

	files := map[string]*matrix.Matrix{"ssh.data": noisy}
	res, err := driver.New().Run(context.Background(), driver.RunRequest{
		Name: "smoothing.xc", Source: smoothProgram, Exts: parser.AllExtensions(),
		Files: files, Threads: 4})
	if err != nil || !res.OK {
		log.Fatalf("run failed: %v\n%s", err, strings.Join(res.Diagnostics, "\n"))
	}
	smoothed := files["smoothed.data"]

	// Validate against a direct Go stencil.
	ref := goSmooth(noisy)
	if !matrix.AlmostEqual(smoothed, ref, 1e-9) {
		log.Fatal("extended-C smoothing differs from the Go stencil")
	}
	fmt.Println("extended-C stencil matches the Go reference pointwise")

	// Borders must be preserved exactly.
	b0, _ := noisy.At(0, 5, 3)
	b1, _ := smoothed.At(0, 5, 3)
	if b0 != b1 {
		log.Fatal("border was not preserved")
	}

	// Smoothing should bring the field closer to the noise-free truth.
	before := rmse(noisy, clean)
	after := rmse(smoothed, clean)
	fmt.Printf("RMSE vs noise-free field: before %.4f, after %.4f\n", before, after)
	if after < before {
		fmt.Println("denoising reduced the error, as intended")
	} else {
		fmt.Println("warning: smoothing did not reduce the error for this seed")
	}
}

func goSmooth(ssh *matrix.Matrix) *matrix.Matrix {
	sh := ssh.Shape()
	rows, cols, tn := sh[0], sh[1], sh[2]
	out := matrix.New(matrix.Float, rows, cols, tn)
	at := func(r, c, t int) float64 {
		v, _ := ssh.At(r, c, t)
		return v.(float64)
	}
	for t := 0; t < tn; t++ {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				var v float64
				if r == 0 || r == rows-1 || c == 0 || c == cols-1 {
					v = at(r, c, t)
				} else {
					v = (at(r, c, t)*4 + at(r-1, c, t) + at(r+1, c, t) +
						at(r, c-1, t) + at(r, c+1, t)) / 8
				}
				// mirror the float32 rounding of the runtime? the
				// interpreter computes in float64, so compare directly
				_ = v
				if err := out.SetAt(v, r, c, t); err != nil {
					panic(err)
				}
			}
		}
	}
	return out
}

func rmse(a, b *matrix.Matrix) float64 {
	fa, fb := a.Floats(), b.Floats()
	acc := 0.0
	for k := range fa {
		d := fa[k] - fb[k]
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(fa)))
}
