package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/matrix"
	"repro/internal/parser"
)

// Same seed, byte-identical request stream; another seed, another one.
func TestStreamDeterministic(t *testing.T) {
	corpus := serveCorpus()
	differ := false
	for i := int64(0); i < 200; i++ {
		p1, ep1, b1 := coldRequest(corpus, 7, i)
		p2, ep2, b2 := coldRequest(corpus, 7, i)
		if p1 != p2 || ep1 != ep2 || !bytes.Equal(b1, b2) {
			t.Fatalf("request %d of seed 7 is not reproducible", i)
		}
		if _, _, other := coldRequest(corpus, 8, i); !bytes.Equal(b1, other) {
			differ = true
		}
		if slot(7, i, 8) != slot(7, i, 8) {
			t.Fatalf("slot %d of seed 7 is not reproducible", i)
		}
	}
	if !differ {
		t.Fatal("seeds 7 and 8 give the same stream")
	}
}

// Every cycle of the stream holds each class exactly once, so the
// first cycle is a complete warm-up and class counts stay balanced.
func TestSlotCyclesAreBalanced(t *testing.T) {
	const n = 32
	for cycle := int64(0); cycle < 50; cycle++ {
		seen := map[int]bool{}
		for k := int64(0); k < n; k++ {
			seen[slot(3, cycle*n+k, n)] = true
		}
		if len(seen) != n {
			t.Fatalf("cycle %d holds %d of %d classes", cycle, len(seen), n)
		}
	}
}

// Every cold request is a never-seen source: distinct ring placement
// keys, which also means distinct driver cache keys.
func TestColdSourcesHaveDistinctRouteKeys(t *testing.T) {
	corpus := serveCorpus()
	exts, err := driver.CanonicalExtensions("all")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int64{}
	for i := int64(0); i < 3000; i++ {
		_, _, body := coldRequest(corpus, 1, i)
		var req sourceBody
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		key := driver.RouteKey(req.Name, req.Source, exts)
		if j, dup := seen[key]; dup {
			t.Fatalf("requests %d and %d share a route key", j, i)
		}
		seen[key] = i
		if n := len(req.Source); n < 200 || n > 8<<10 {
			t.Fatalf("request %d: source of %d bytes, outside 0.2-8 KB", i, n)
		}
	}
}

func runTree(t *testing.T, p *program, src string) string {
	t.Helper()
	files := map[string]*matrix.Matrix{}
	if p.prepare != nil {
		files, _ = p.prepare(1)
	}
	var out bytes.Buffer
	res, err := driver.New().Run(context.Background(), driver.RunRequest{
		Name: p.file + ".xc", Source: src, Exts: parser.AllExtensions(),
		Threads: 1, Engine: "tree", Files: files, Stdout: &out,
	})
	if err != nil || !res.OK || res.ExitCode != 0 {
		t.Fatalf("%s under the tree engine: err %v, ok %v, exit %d, diagnostics %v", p.name, err, res.OK, res.ExitCode, res.Diagnostics)
	}
	return out.String()
}

// A sample of variants prints the base program's expected output under
// the tree engine: renaming, comments, layout and padding functions
// change no behaviour. Tags with the most padding are in the sample.
func TestVariantsKeepOutput(t *testing.T) {
	for _, p := range serveCorpus() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			padded := 0
			for i := int64(0); i < 6; i++ {
				src := coldSource(p.src, 5, i)
				if got := runTree(t, p, src); got != p.out {
					t.Fatalf("variant %d prints %q, want %q\n%s", i, got, p.out, src)
				}
				if bytes.Contains([]byte(src), []byte("pad")) {
					padded++
				}
			}
			if padded == 0 {
				t.Fatal("no variant in the sample carries padding functions")
			}
		})
	}
}

// Identifiers take the tag; keywords and whole literals, exponent and
// suffix included, do not.
func TestMutateLeavesLiteralsWhole(t *testing.T) {
	got := mutate("float x2 = 1e5 + 0x1F * y;", "t", newRNG(1, 1))
	if want := "float x2_t = 1e5 + 0x1F * y_t;"; !strings.Contains(got, want) {
		t.Fatalf("mutate gives %q, which lacks %q", got, want)
	}
}

// The committed .out files are what the tree engine, the repo's
// independent oracle, prints.
func TestExpectedOutputs(t *testing.T) {
	for _, p := range allPrograms() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			if got := runTree(t, p, p.src); got != p.out {
				t.Fatalf("tree engine prints %q, programs/%s.out holds %q", got, p.file, p.out)
			}
		})
	}
}

// The two paper programs' file outputs are held to Go references; a
// wrong matrix must fail the check.
func TestReferenceChecksReject(t *testing.T) {
	for _, p := range parallelCorpus() {
		if p.prepare == nil {
			continue
		}
		in, check := p.prepare(3)
		if err := check(map[string]*matrix.Matrix{}); err == nil {
			t.Errorf("%s: a run that wrote nothing passes the check", p.name)
		}
		if err := check(map[string]*matrix.Matrix{"means.data": in["ssh.data"], "temporalScores.data": matrix.New(matrix.Float, 20, 24, 48)}); err == nil {
			t.Errorf("%s: a wrong matrix passes the check", p.name)
		}
	}
}

// A result file is taken only by the run that wrote it: one left over
// from another seed or window, or from another workload, is an error.
func TestReadResultRejectsAnotherRun(t *testing.T) {
	path := t.TempDir() + "/result.json"
	if err := writeJSON(path, map[string]*result{"serve_warm": {Workload: "serve_warm", Seed: 3, Seconds: 16, Correct: true}}); err != nil {
		t.Fatal(err)
	}
	if res, err := readResult(path, "serve_warm", 3, 16); err != nil || !res.Correct {
		t.Fatalf("the run's own result: %v, %v", res, err)
	}
	for _, c := range []struct {
		name    string
		seed    int64
		seconds int
	}{{"serve_warm", 4, 16}, {"serve_warm", 3, 2}, {"serve_cold", 3, 16}} {
		if _, err := readResult(path, c.name, c.seed, c.seconds); err == nil {
			t.Errorf("%s seed %d, %d slices: another run's result is accepted", c.name, c.seed, c.seconds)
		}
	}
	if _, err := readResult(path+".none", "serve_warm", 3, 16); err == nil {
		t.Error("a missing result is accepted")
	}
}

func TestPercentileAndGeomean(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	for p, want := range map[float64]float64{0: 1, 50: 3, 100: 5, 25: 2, 90: 4.6} {
		if got := percentile(v, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", v, p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median = %g, want 4", got)
	}
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1, 100) = %g, want 10", got)
	}
	if got := geomean([]float64{0, 4, 9}); math.Abs(got-6) > 1e-9 {
		t.Errorf("geomean skipping the zero = %g, want 6", got)
	}
}

func TestQuietSlices(t *testing.T) {
	got := quietSlices([]float64{40, 90, 70, 95, 10, 80}, 3)
	want := []bool{false, true, false, true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quietSlices = %v, want %v", got, want)
		}
	}
	// Of equally fast slices the earlier are kept, and never more than asked.
	got = quietSlices([]float64{50, 20, 50, 50}, 2)
	if !got[0] || got[1] || !got[2] || got[3] {
		t.Fatalf("ties: quietSlices = %v, want the first and the third", got)
	}
}

func TestKeptSlices(t *testing.T) {
	for n, want := range map[int]int{1: 1, 2: 1, 4: 1, 5: 2, 16: 4, 24: 6} {
		if got := keptSlices(n); got != want {
			t.Errorf("keptSlices(%d) = %d, want %d", n, got, want)
		}
	}
}

// An op counts towards the slice it ended in, and its latency counts
// only if the slices it started and ended in are both kept.
func TestSummarizeKeepsQuietSlices(t *testing.T) {
	ms := int64(1e6)
	bounds := []boundary{
		{at: 0, cpu: 0, steal: 0, total: 0},
		{at: 1000 * ms, cpu: 100 * 1e6, steal: 50, total: 200}, // slice 0: a quarter stolen, one op
		{at: 2000 * ms, cpu: 300 * 1e6, steal: 50, total: 400}, // slice 1: quiet, three ops
	}
	samples := []sample{
		{class: 0, start: 100 * ms, end: 200 * ms},   // slice 0, dropped
		{class: 0, start: 900 * ms, end: 1100 * ms},  // straddles: counted as an op, latency dropped
		{class: 0, start: 1200 * ms, end: 1210 * ms}, // slice 1
		{class: 0, start: 1300 * ms, end: 1330 * ms}, // slice 1
		{class: 0, start: 1900 * ms, end: 2100 * ms}, // ends after the window
		{class: 0, start: -300 * ms, end: 100 * ms},  // began in the ramp: an op of slice 0, latency dropped
	}
	res := summarize([]string{"a"}, samples, bounds)
	if !res.Slices[1].Kept || res.Slices[0].Kept {
		t.Fatalf("kept = %v %v, want the faster second slice only", res.Slices[0].Kept, res.Slices[1].Kept)
	}
	if got := res.EndToEnd["ops_per_s"]; got != 3 {
		t.Errorf("ops_per_s = %g, want 3 (the straddler and two more in one second)", got)
	}
	if got := res.Classes["a"]; got.Samples != 2 || got.MedianMS != 20 {
		t.Errorf("class a = %+v, want 2 samples with median 20 ms", got)
	}
	if got := res.EndToEnd["cpu_ms_per_op"]; math.Abs(got-200.0/3) > 1e-9 {
		t.Errorf("cpu_ms_per_op = %g, want 200/3", got)
	}
	if got := res.Client["env.steal_share"]; got != 0.125 {
		t.Errorf("env.steal_share = %g, want 0.125", got)
	}
	if res.Disturbed {
		t.Error("the kept slice is quiet, yet the run is flagged disturbed")
	}
}

// Slices in which the reference task took twice its nominal time ran
// on a host at half speed: their rates count double, their times half,
// and the reference task's own CPU time is not the workload's. A slice's
// speed is the median over itself and its neighbours.
func TestSummarizeScalesToHostSpeed(t *testing.T) {
	ms := int64(1e6)
	nominal, slow := []float64{refNominalMS}, []float64{2 * refNominalMS, 2 * refNominalMS}
	refCPU := time.Duration(2 * 2 * refNominalMS * 1e6) // a slow slice's two reference runs
	bounds := []boundary{
		{at: 0},
		{at: 1000 * ms, cpu: 500 * 1e6, ref: nominal},
		{at: 2000 * ms, cpu: 500 * 1e6, ref: nominal},
		{at: 3000 * ms, cpu: 500*1e6 + refCPU, ref: slow},
		{at: 4000 * ms, cpu: 1000*1e6 + 2*refCPU, ref: slow},
	}
	samples := []sample{
		{class: 0, start: 100 * ms, end: 140 * ms},
		{class: 0, start: 200 * ms, end: 240 * ms},
		{class: 0, start: 300 * ms, end: 340 * ms},
		{class: 0, start: 3100 * ms, end: 3140 * ms},
		{class: 0, start: 3200 * ms, end: 3240 * ms},
	}
	res := summarize([]string{"a"}, samples, bounds)
	for i, want := range []float64{1, 1, 0.5, 0.5} {
		if got := res.Slices[i].HostSpeed; got != want {
			t.Errorf("slice %d: host speed %g, want %g", i, got, want)
		}
	}
	if !res.Slices[3].Kept || res.Slices[0].Kept {
		t.Fatalf("kept = %v ... %v, want the last slice: 2 ops at half speed beat 3 at full", res.Slices[0].Kept, res.Slices[3].Kept)
	}
	for name, want := range map[string]float64{"ops_per_s": 4, "op_ms_geomean": 20, "cpu_ms_per_op": 125} {
		if got := res.EndToEnd[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if got := res.Client["env.host_speed"]; got != 0.5 {
		t.Errorf("env.host_speed = %g, want 0.5", got)
	}
}

func TestNestAndSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: 1, Name: "client.op", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: -1, Op: 1, Name: "fleet.handle", StartNS: 10, EndNS: 90},
		// A hedged pair of forwards that overlap from 40 to 60.
		{ID: 2, Parent: -1, Op: 1, Name: "fleet.forward", StartNS: 20, EndNS: 60},
		{ID: 3, Parent: -1, Op: 1, Name: "fleet.forward", StartNS: 40, EndNS: 80},
		{ID: 4, Parent: -1, Op: 1, Name: "server.handle", StartNS: 45, EndNS: 75},
		{ID: 5, Parent: -1, Op: 1, Name: "driver.run", EndNS: 20, Source: "reported", under: "server.handle"},
		{ID: 6, Parent: -1, Op: 1, Name: "parser.parse", EndNS: 5, Source: "reported", under: "driver.run"},
		{ID: 7, Parent: -1, Op: 1, Name: "driver.execute", EndNS: 10, Source: "reported", under: "driver.run"},
		// Another op's span must not become a parent.
		{ID: 8, Parent: -1, Op: 2, Name: "client.op", StartNS: 0, EndNS: 1000},
	}
	nest(spans)
	wantParent := []int{-1, 0, 1, 1, 3, 4, 5, 5, -1}
	for i, want := range wantParent {
		if spans[i].Parent != want {
			t.Errorf("span %d (%s): parent %d, want %d", i, spans[i].Name, spans[i].Parent, want)
		}
	}
	self := selfTimes(spans)
	// client 100-80; gate 80 minus the forwards' union [20,80]; the
	// second forward 40 minus the shard's 30; the shard 30 minus the
	// reported 20; driver.run 20 minus 5+10 laid end to end.
	wantSelf := []int64{20, 20, 40, 10, 10, 5, 5, 10, 1000}
	for i, want := range wantSelf {
		if self[i] != want {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, self[i], want)
		}
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from metrics.go")

// BENCHMARK.json at the root of the repo repeats the tables of
// metrics.go (for a host with more than one CPU); the two must not
// drift apart. go test -run TestBenchmarkJSON -update rewrites it.
func TestBenchmarkJSON(t *testing.T) {
	type row struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []row    `json:"workloads"`
		EndToEnd   []row    `json:"end_to_end"`
		PerLayer   []row    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 24}
	for _, w := range workloadNames {
		doc.Workloads = append(doc.Workloads, row{Name: w, Why: workloadWhy[w]})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		doc.EndToEnd = append(doc.EndToEnd, row{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &bound})
		// The file's one bound per metric is no tighter than any
		// workload's own.
		for _, w := range workloadNames {
			if wb := workloadBound[w][m.Name]; wb <= 0 || wb > m.Bound {
				t.Errorf("%s on %s: workload bound %g, want one in (0, %g]", m.Name, w, wb, m.Bound)
			}
		}
	}
	layers := perLayer(2)
	if len(layers) > 128 {
		t.Fatalf("%d per-layer metrics, at most 128 allowed", len(layers))
	}
	seen := map[string]bool{}
	for _, m := range layers {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("per-layer metric %q (unit %q): duplicate or too long", m.Name, m.Unit)
		}
		seen[m.Name] = true
		doc.PerLayer = append(doc.PerLayer, row{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	want, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from metrics.go; run go test -run TestBenchmarkJSON -update")
	}
}
