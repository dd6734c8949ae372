// eddybench runs the §IV ocean-eddy pipeline end to end on synthetic
// SSH data and reports timings: the Fig 8 trough-scoring program
// executed through driver.Run on the production VM engine (optionally
// sweeping thread counts — experiment E4's scaling shape), the native
// Go reference, and the Fig 4 threshold-sweep detection plus tracking.
//
// Usage:
//
//	eddybench [-lat N] [-lon N] [-time N] [-sweep 1,2,4,8] [-seed N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/driver"
	"repro/internal/eddy"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/parser"
)

// fig8 is the paper's ocean-eddy scoring program (Fig 8), adapted to
// this translator's concrete syntax.
const fig8 = `
(Matrix float <1>, int, int) getTrough(Matrix float <1> ts, int i) {
	int beginning = i;
	int n = dimSize(ts, 0);
	while (i + 1 < n && ts[i] >= ts[i + 1])
		i = i + 1;
	while (i + 1 < n && ts[i] < ts[i + 1])
		i = i + 1;
	return (ts[beginning :: i], beginning, i);
}

Matrix float <1> computeArea(Matrix float <1> aoi) {
	float y1 = aoi[0];
	float y2 = aoi[end];
	int x1 = 0;
	int x2 = dimSize(aoi, 0) - 1;
	float m = (y1 - y2) / (float)(x1 - x2);
	float b = y1 - m * x1;
	Matrix float <1> Line = [x1 :: x2] * m + b;
	float area = with ([0] <= [i] < [dimSize(Line, 0)])
		fold(+, 0.0, Line[i] - aoi[i]);
	return with ([0] <= [i] < [dimSize(Line, 0)])
		genarray([dimSize(Line, 0)], area);
}

Matrix float <1> scoreTS(Matrix float <1> ts) {
	Matrix float <1> scores = init(Matrix float <1>, dimSize(ts, 0));
	int i = 0;
	int n = dimSize(ts, 0);
	while (i + 1 < n && ts[i] < ts[i + 1])
		i = i + 1;
	int beginning = 0;
	Matrix float <1> trough;
	while (i < n - 1) {
		(trough, beginning, i) = getTrough(ts, i);
		scores[beginning : i] = computeArea(trough);
	}
	return scores;
}

int main() {
	Matrix float <3> data = readMatrix("ssh.data");
	Matrix float <3> scores;
	scores = matrixMap(scoreTS, data, [2]);
	writeMatrix("temporalScores.data", scores);
	return 0;
}
`

func main() {
	lat := flag.Int("lat", 48, "latitude cells")
	lon := flag.Int("lon", 64, "longitude cells")
	tm := flag.Int("time", 60, "time steps")
	eddies := flag.Int("eddies", 6, "synthetic eddies")
	seed := flag.Int64("seed", 1, "random seed")
	sweep := flag.String("sweep", "1,2,4", "thread counts to sweep")
	flag.Parse()

	o := eddy.SynthOptions{Lat: *lat, Lon: *lon, Time: *tm, NumEddies: *eddies,
		NoiseAmp: 0.05, SwellAmp: 0.08, Seed: *seed}
	fmt.Printf("synthesizing SSH %dx%dx%d with %d eddies (seed %d)\n",
		o.Lat, o.Lon, o.Time, o.NumEddies, o.Seed)
	ssh, truth := eddy.Synthesize(o)

	// --- Fig 8 scoring through the driver ---
	fmt.Println("\n== Fig 8 trough scoring (extended-C program, driver.Run) ==")
	var scored *matrix.Matrix
	for _, ts := range parseSweep(*sweep) {
		files := map[string]*matrix.Matrix{"ssh.data": ssh}
		start := time.Now()
		// A fresh driver per thread count, so every row pays the same
		// parse, check and bytecode compilation.
		res, err := driver.New().Run(context.Background(), driver.RunRequest{
			Name: "fig8.xc", Source: fig8, Exts: parser.AllExtensions(), Files: files, Threads: ts})
		if err != nil || !res.OK {
			fmt.Fprintf(os.Stderr, "eddybench: %v\n%s\n", err, strings.Join(res.Diagnostics, "\n"))
			os.Exit(1)
		}
		el := time.Since(start)
		fmt.Printf("  threads=%-2d  %10.1f ms\n", ts, float64(el.Microseconds())/1000)
		scored = files["temporalScores.data"]
	}

	// --- Native Go reference ---
	fmt.Println("\n== Native Go reference (eddy.ScoreField) ==")
	start := time.Now()
	ref, err := eddy.ScoreField(ssh, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("  sequential  %10.1f ms\n", float64(time.Since(start).Microseconds())/1000)
	pool := par.NewPool(4)
	start = time.Now()
	_, _ = eddy.ScoreField(ssh, pool)
	fmt.Printf("  pool(4)     %10.1f ms\n", float64(time.Since(start).Microseconds())/1000)

	if scored != nil && matrix.AlmostEqual(scored, ref, 1e-6) {
		fmt.Println("  interpreter result matches the Go reference pointwise")
	} else if scored != nil {
		fmt.Println("  WARNING: interpreter result differs from the Go reference")
	}

	// --- ranking against ground truth ---
	fmt.Println("\n== Top-scored cells vs ground truth ==")
	top := eddy.TopScores(ref, 10)
	for _, c := range top {
		fmt.Printf("  cell (%2d,%2d) score %6.2f  nearest eddy %.1f cells away\n",
			c.Lat, c.Lon, c.Score, nearestEddy(c, truth))
	}

	// --- Fig 4 detection + tracking ---
	fmt.Println("\n== Fig 4 threshold-sweep detection + tracking ==")
	dets, err := eddy.Detect(ssh, eddy.DefaultDetect())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	total := 0
	for _, ds := range dets {
		total += len(ds)
	}
	tracks := eddy.Track(dets, 4)
	long := 0
	for _, tr := range tracks {
		if len(tr) >= 3 {
			long++
		}
	}
	fmt.Printf("  %d detections over %d time steps; %d tracks (%d lasting >= 3 steps; %d true eddies)\n",
		total, o.Time, len(tracks), long, len(truth))
}

func parseSweep(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		if n, err := strconv.Atoi(strings.TrimSpace(part)); err == nil && n > 0 {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

func nearestEddy(c eddy.ScoredCell, truth []eddy.Eddy) float64 {
	best := 1e18
	for _, e := range truth {
		mid := float64(e.Life) / 2
		dla := float64(c.Lat) - (e.Lat0 + e.VLat*mid)
		dlo := float64(c.Lon) - (e.Lon0 + e.VLon*mid)
		d := dla*dla + dlo*dlo
		if d < best {
			best = d
		}
	}
	// sqrt
	x := best
	if x == 0 {
		return 0
	}
	for i := 0; i < 25; i++ {
		x = 0.5 * (x + best/x)
	}
	return x
}
