package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/ast"
	"repro/internal/cgen"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/vet"
	"repro/internal/vm"
)

const (
	serveReplayOps    = 300 // requests replayed per serve workload
	computeReplayPass = 3   // passes over the corpus per compute workload
	coldSampleSize    = 64  // cold variants in the staged replay
)

// tracedPass is the separate, traced pass behind the per-layer
// metrics. It is the same whichever workload was timed, so that every
// layer row is measured on every traced run: all four workloads are
// replayed one op at a time under spans, then every corpus program is
// taken through the pipeline stage by stage, then the matrix and par
// layers are probed directly. Counter rows and client.* rows describe
// the selected workload's untraced window. End-to-end metrics never
// come from here.
func tracedPass(e *env, sel *workload, win *windowResult, res *result, tracePath string) error {
	out := res.PerLayer // the window's own rows are in already
	sep := map[string]float64{}
	replayed := map[string]map[string]float64{} // workload -> class -> median ms
	for _, name := range workloadNames {
		w, err := e.workload(name)
		if err != nil {
			return err
		}
		n := serveReplayOps
		if w.clients == 1 {
			n = computeReplayPass * len(w.classes)
		}
		// The process-wide kernel counters around the compute_serial
		// replay: nothing may reach the pool or a bulk kernel there.
		pool0, _, _ := matrix.KernelStats()
		tr0, conv0, red0 := matrix.KernelOpStats()
		med, err := replay(e, w, n)
		if err != nil {
			return err
		}
		replayed[name] = med
		if name == "compute_serial" {
			pool1, _, _ := matrix.KernelStats()
			tr1, conv1, red1 := matrix.KernelOpStats()
			sep["compute_serial.kernels_on_pool"] = float64(pool1 - pool0)
			sep["compute_serial.bulk_kernel_ops"] = float64(tr1 + conv1 + red1 - tr0 - conv0 - red0)
		}
		if name != "serve_cold" {
			for class, ms := range med {
				out["prog."+name+"."+class+".run_ms"] = ms
			}
		}
	}
	spans := e.tr.take()
	nest(spans)
	requestPathRows(spans, out, sep)

	var medians []float64
	for _, ms := range replayed[sel.name] {
		medians = append(medians, ms)
	}
	out["client.trace_overhead_share"] = geomean(medians)/win.EndToEnd["op_ms_geomean"] - 1

	st, err := stagedReplay(e, out)
	if err != nil {
		return err
	}
	machineRows(e, st, out)
	kernelRows(out)
	res.ParGrid = parRows(out)
	if nproc == 1 {
		res.Skipped = append(res.Skipped, "par.speedup.*", "par.efficiency.*")
	}

	// Rows that divide a program's replayed run time by its known work.
	perWork := func(row, workload, prog string, scale float64) {
		out[row] = replayed[workload][prog] * scale / programNamed(prog).work
	}
	perWork("matrix.genarray_flat_ns_per_cell", "compute_parallel", "stencil_256x4", 1e6)
	perWork("matrix.fused_ns_per_cell", "compute_parallel", "chain_1m", 1e6)
	perWork("matrix.genarray_closure_ns_per_cell", "compute_serial", "withloop_closure", 1e6)
	perWork("matrix.fold_ns_per_cell", "compute_serial", "fold_nested", 1e6)
	perWork("matrix.withloop_admit_us", "compute_serial", "withloop_flat_small", 1e3)
	// The share of a program's run the direct kernel probe accounts for
	// (one product; two transposes), from flops or bytes over the rate.
	sep["compute_parallel.matmul_kernel_share"] = matmulFlops / out["matrix.matmul_gflops.pool"] / 1e6 / replayed["compute_parallel"]["matmul_256"]
	sep["compute_parallel.transpose_kernel_share"] = 2 * transposeBytes / out["matrix.transpose_gbps.pool"] / 1e6 / replayed["compute_parallel"]["transpose_768"]

	out["parser.first_call_ms"] = e.firstCallMS
	var firsts []float64
	for _, ms := range e.firstParseMS {
		firsts = append(firsts, ms)
	}
	out["parser.new_shape_first_parse_ms"] = median(firsts)
	res.Separation = sep
	return writeJSON(tracePath, spans)
}

// replay performs n further ops of w's stream one at a time with the
// tracer armed, so spans nest by containment, and returns each class's
// median latency in ms.
func replay(e *env, w *workload, n int) (map[string]float64, error) {
	e.tr.arm(w.name)
	defer e.tr.disarm()
	lat := make([][]float64, len(w.classes))
	for k := 0; k < n; k++ {
		i := w.next.Add(1) - 1
		class, start, d, err := w.do(i)
		if err != nil {
			return nil, fmt.Errorf("%s replay: %w", w.name, err)
		}
		e.tr.add(i, "client.op", start, start.Add(d))
		lat[class] = append(lat[class], float64(d)/1e6)
	}
	med := map[string]float64{}
	for c, v := range lat {
		med[w.classes[c]] = median(v)
	}
	return med, nil
}

// requestPathRows derives the fleet and server self-time rows from the
// serve_warm replay, and from all replays the shares that show the
// workloads stress different layers. A share is the median over ops of
// the op's own ratio, so that one stalled op cannot carry the sum.
func requestPathRows(spans []span, out, sep map[string]float64) {
	self := selfTimes(spans)
	var gateSelf, forward, handleSelf []float64
	type opKey struct {
		scope string
		op    int64
	}
	perOp := map[opKey]map[string]float64{} // span name -> ns within the op
	for i, s := range spans {
		k := opKey{s.Scope, s.Op}
		if perOp[k] == nil {
			perOp[k] = map[string]float64{}
		}
		perOp[k][s.Name] += float64(s.dur())
		if s.Scope != "serve_warm" {
			continue
		}
		switch s.Name {
		case "fleet.handle":
			gateSelf = append(gateSelf, float64(self[i])/1e3)
		case "fleet.forward":
			forward = append(forward, float64(s.dur())/1e3)
		case "server.handle":
			handleSelf = append(handleSelf, float64(self[i])/1e3)
		}
	}
	out["fleet.gate_self_us"] = median(gateSelf)
	out["fleet.forward_us"] = median(forward)
	out["fleet.attempts_per_op"] = float64(len(forward)) / float64(max(len(gateSelf), 1))
	out["server.handle_self_us"] = median(handleSelf)
	share := func(scope, whole string, parts ...string) float64 {
		var ratios []float64
		for k, names := range perOp {
			if k.scope != scope || names[whole] == 0 {
				continue
			}
			part := 0.0
			for _, p := range parts {
				part += names[p]
			}
			ratios = append(ratios, part/names[whole])
		}
		return median(ratios)
	}
	for _, w := range []string{"serve_warm", "serve_cold"} {
		sep[w+".frontend_share_of_server"] = share(w, "server.handle", "parser.parse", "sem.check")
	}
	for _, w := range workloadNames {
		sep[w+".execute_share_of_client"] = share(w, "client.op", "driver.execute")
	}
}

// windowRows are the per-layer rows that describe the selected
// workload's untraced window and cost nothing more to take: the
// layers' counter deltas and the client.* and env.* rows.
func windowRows(win *windowResult) map[string]float64 {
	out := map[string]float64{}
	for k, v := range win.Client {
		out[k] = v
	}
	d := win.Counters
	ratio := func(hit, miss string) float64 {
		if d[hit]+d[miss] == 0 {
			return 0
		}
		return d[hit] / (d[hit] + d[miss])
	}
	for row, key := range map[string]string{
		"fleet.retries":              "fleet.retries_total",
		"fleet.hedges_fired":         "fleet.hedges_fired",
		"fleet.hedges_won":           "fleet.hedges_won",
		"fleet.failovers":            "fleet.failovers_total",
		"fleet.peer_fills":           "fleet.peer_cache_fills",
		"fleet.replications":         "fleet.peer_replications",
		"fleet.rate_limited":         "fleet.rate_limited",
		"server.runs_shed":           "server.runs_shed",
		"server.run_timeouts":        "server.run_timeouts",
		"server.client_errors":       "server.client_errors",
		"driver.cache_evictions":     "server.driver.cache_evictions",
		"driver.compile_coalesced":   "server.driver.compile_coalesced",
		"vm.fallback_tree":           "vm.fallback_tree",
		"matrix.kernel_transpose":    "matrix.kernel_transpose",
		"matrix.kernel_conv":         "matrix.kernel_conv",
		"matrix.kernel_reduce":       "matrix.kernel_reduce",
		"server.run_queue_depth_max": "server.run_queue_depth",
	} {
		out[row] = d[key]
	}
	out["driver.cache_entries"] = win.CountersEnd["server.driver.cache_entries"]
	out["driver.cache_bytes"] = win.CountersEnd["server.driver.cache_bytes"]
	out["driver.frontend_hit_ratio"] = ratio("server.driver.frontend_cache_hits", "server.driver.frontend_cache_misses")
	out["driver.vm_cache_hit_ratio"] = ratio("server.driver.vm_cache_hits", "server.driver.vm_cache_misses")
	out["driver.facts_hit_ratio"] = ratio("server.driver.facts_cache_hits", "server.driver.facts_cache_misses")
	out["matrix.kernel_parallel_share"] = ratio("matrix.kernel_parallel", "matrix.kernel_serial")
	if k := d["matrix.kernel_parallel"] + d["matrix.kernel_serial"]; k > 0 {
		out["matrix.freelist_reuse_ratio"] = d["matrix.buffers_reused"] / k
	} else {
		out["matrix.freelist_reuse_ratio"] = 0
	}
	return out
}

// compiled is one program taken through the pipeline by direct calls.
type compiled struct {
	prog *ast.Program
	info *sem.Info
	vmp  *vm.Program
}

// stagedReplay calls each pipeline stage directly, under a span, for
// every corpus program and for a sample of cold variants, and fills in
// the parser, sem, vet, vm-compile and cgen rows. It returns the
// compiled corpus programs by name for the rows that execute them.
func stagedReplay(e *env, out map[string]float64) (map[string]compiled, error) {
	e.tr.arm("staged")
	defer e.tr.disarm()
	id := int64(0)
	timed := func(name string, f func()) float64 {
		t0 := time.Now()
		f()
		t1 := time.Now()
		e.tr.add(id, name, t0, t1)
		return float64(t1.Sub(t0)) / 1e3
	}
	var vetUS, factsUS, compileUS, parseKB, checkKB, genKB, cRatio []float64
	fused, with := 0, 0
	stage := func(name, src string, cold bool) (compiled, error) {
		id++
		var c compiled
		var diags source.Diagnostics
		var err error
		kb := float64(len(src)) / 1024
		t0 := time.Now()
		parse := timed("parser.parse", func() { c.prog = parser.ParseFile(name, src, parser.AllExtensions(), &diags) })
		if c.prog == nil {
			return c, fmt.Errorf("staged replay: %s does not parse: %s", name, diags.String())
		}
		check := timed("sem.check", func() { c.info = sem.Check(c.prog, &diags) })
		if diags.HasErrors() {
			return c, fmt.Errorf("staged replay: %s does not check: %s", name, diags.String())
		}
		vetUS = append(vetUS, timed("vet.check", func() { vet.Check(c.prog, c.info) }))
		var facts *vet.Facts
		factsUS = append(factsUS, timed("vet.facts", func() { facts = vet.ComputeFacts(c.prog, c.info) }))
		compileUS = append(compileUS, timed("vm.compile", func() { c.vmp, err = vm.CompileWithFacts(c.prog, c.info, facts) }))
		if err != nil {
			return c, fmt.Errorf("staged replay: vm declines %s: %w", name, err)
		}
		if cold {
			var csrc string
			gen := timed("cgen.generate", func() { csrc, err = cgen.Generate(c.prog, c.info, cgen.DefaultOptions()) })
			if err != nil {
				return c, fmt.Errorf("staged replay: cgen %s: %w", name, err)
			}
			parseKB, checkKB, genKB = append(parseKB, parse/kb), append(checkKB, check/kb), append(genKB, gen/kb)
			cRatio = append(cRatio, float64(len(csrc))/float64(len(src)))
		} else {
			fused += c.vmp.FusedSites()
			with += c.vmp.WithCompiled()
		}
		e.tr.add(id, "stage."+name, t0, time.Now())
		return c, nil
	}

	byName := map[string]compiled{}
	for _, p := range allPrograms() {
		c, err := stage(p.name, p.src, false)
		if err != nil {
			return nil, err
		}
		byName[p.name] = c
	}
	serve := serveCorpus()
	for k := 0; k < coldSampleSize; k++ {
		p := serve[k%len(serve)]
		// A part of the variant space no request stream reaches.
		if _, err := stage(p.name+".cold", coldSource(p.src, e.seed, int64(1)<<40+int64(k)), true); err != nil {
			return nil, err
		}
	}
	out["parser.parse_us_per_kb"] = median(parseKB)
	out["sem.check_us_per_kb"] = median(checkKB)
	out["vet.check_us"] = median(vetUS)
	out["vet.facts_us"] = median(factsUS)
	out["vet.fused_sites"] = float64(fused)
	out["vet.with_sites"] = float64(with)
	out["vm.compile_us"] = median(compileUS)
	out["cgen.generate_us_per_kb"] = median(genKB)
	out["cgen.c_bytes_per_src_byte"] = median(cRatio)
	return byName, nil
}

// execute runs a compiled program once on the VM (or the tree engine)
// and returns the seconds Run took.
func execute(c compiled, threads int, tree bool) float64 {
	it := interp.New(c.prog, c.info, interp.Options{Threads: threads, Stdout: io.Discard})
	defer it.Close()
	var err error
	t0 := time.Now()
	if tree {
		_, err = it.Run()
	} else {
		_, err = vm.NewMachine(c.vmp, it).Run()
	}
	d := time.Since(t0).Seconds()
	if err != nil {
		// Every program here is a fixed source whose output the replay
		// has just checked; only a bug in this package gets here.
		panic(err)
	}
	return d
}

// filled is a float matrix of the given shape holding small positive
// values: the probes' operand.
func filled(shape ...int) *matrix.Matrix {
	m := matrix.New(matrix.Float, shape...)
	for k, fl := 0, m.Floats(); k < len(fl); k++ {
		fl[k] = float64(k%97) + 0.5
	}
	return m
}

// machineRows fills in the rows that execute compiled programs
// directly: VM dispatch per iteration, call and indexed element;
// interpreter construction; a cilk spawn; the tree engine's cost; the
// driver's own overhead on a cached run.
func machineRows(e *env, st map[string]compiled, out map[string]float64) {
	for row, name := range map[string]string{
		"vm.scalar_ns_per_iter": "scalar_loop", "vm.call_ns": "fib_rec", "vm.idx1_ns_per_elem": "index_sum",
	} {
		out[row] = medianOf(5, func() float64 { return execute(st[name], 1, false) }) * 1e9 / programNamed(name).work
	}
	newClose := func(threads int) float64 {
		c := st["scalar_loop_small"]
		return medianOf(101, func() float64 {
			t0 := time.Now()
			interp.New(c.prog, c.info, interp.Options{Threads: threads, Stdout: io.Discard}).Close()
			return time.Since(t0).Seconds()
		}) * 1e6
	}
	out["interp.new_close_pool_us"] = newClose(max(nproc, 2))
	out["interp.new_close_serial_us"] = newClose(1)
	out["interp.cilk_spawn_us"] = medianOf(5, func() float64 { return execute(st["cilk_fib"], nproc, false) }) * 1e6 / cilkFib().work

	var tree, machine float64
	for _, p := range serveCorpus() {
		tree += medianOf(3, func() float64 { return execute(st[p.name], 1, true) })
		machine += medianOf(3, func() float64 { return execute(st[p.name], 1, false) })
	}
	out["interp.tree_over_vm"] = tree / machine

	// driver.Run's wall minus the run itself, on cached programs, at
	// the thread count serve_warm's requests ask for.
	w, _ := e.workload("serve_warm") // built by the replays above
	var overhead []float64
	for k := 0; k < 10*len(w.classes); k++ {
		p := serveCorpus()[k%len(w.classes)]
		t0 := time.Now()
		res, err := e.localDriver().Run(context.Background(), runRequest(p, warmThreads, map[string]*matrix.Matrix{}, io.Discard))
		if wall := time.Since(t0); err == nil && res.Cached {
			overhead = append(overhead, float64(int64(wall)-res.Stages.RunNS)/1e3)
		}
	}
	out["driver.run_overhead_us"] = median(overhead)
}

// Work of the two direct probes that match a compute_parallel program.
const (
	matmulFlops    = 2 * 256 * 256 * 256 // one 256x256 product
	transposeBytes = 16 * 768 * 768      // one 768x768 float transpose, read + write
)

// kernelRows probes the bulk kernels directly at the shapes
// compute_parallel uses, with the zero Exec and with a pool of nproc.
// Bytes are computed from the shapes, not measured.
func kernelRows(out map[string]float64) {
	pool := par.NewPool(nproc)
	defer pool.Shutdown()
	a256, b256, k3 := filled(256, 256), filled(256, 256), filled(3, 3)
	sq768, sq1024 := filled(768, 768), filled(1024, 1024)
	v1, v2 := filled(1<<20), filled(1<<20)
	for _, x := range []struct {
		name string
		exec matrix.Exec
	}{{"serial", matrix.Exec{}}, {"pool", matrix.Exec{Pool: pool}}} {
		probe := func(f func() (*matrix.Matrix, error)) float64 {
			return medianOf(5, func() float64 {
				t0 := time.Now()
				m, err := f()
				d := time.Since(t0).Seconds()
				if err != nil {
					panic(err) // fixed, valid shapes: a failure is a bug here
				}
				m.Recycle()
				return d
			})
		}
		out["matrix.matmul_gflops."+x.name] = matmulFlops / probe(func() (*matrix.Matrix, error) { return matrix.MatMulExec(a256, b256, x.exec) }) / 1e9
		out["matrix.transpose_gbps."+x.name] = transposeBytes / probe(func() (*matrix.Matrix, error) { return matrix.TransposeExec(sq768, x.exec) }) / 1e9
		out["matrix.conv2d_ms."+x.name] = probe(func() (*matrix.Matrix, error) { return matrix.Conv2DExec(a256, k3, x.exec) }) * 1e3
		out["matrix.elementwise_gbps."+x.name] = 24 * (1 << 20) / probe(func() (*matrix.Matrix, error) { return matrix.ElementwiseExec(matrix.OpAdd, v1, v2, x.exec) }) / 1e9
		out["matrix.reduce_axis_gbps."+x.name] = 8 * 1024 * 1024 / probe(func() (*matrix.Matrix, error) { return matrix.ReduceAxisExec(matrix.FoldAdd, sq1024, 0, x.exec) }) / 1e9
	}
}

// gridRow is one cell of the speed-up grid in result.json.
type gridRow struct {
	Kernel     string  `json:"kernel"`
	Size       int     `json:"size"`
	Threads    int     `json:"threads"`
	MS         float64 `json:"ms"`
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
}

// Whole programs for the two grid kernels that exist only as language
// constructs: a fold and a flat genarray (one stencil step), each
// repeated so the construct outweighs building its input.
const foldGridSrc = `int main() {
	int n = %d;
	Matrix float <2> u;
	u = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 1.0 * ((i + 2 * j) %% 7));
	float s = 0.0;
	for (int r = 0; r < 4; r++) {
		float t = with ([0, 0] <= [i, j] < [n, n]) fold(+, 0.0, u[i, j]);
		s = s + t;
	}
	return 0;
}
`

const genarrayGridSrc = `int main() {
	int n = %d;
	Matrix float <2> u;
	u = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], 1.0 * ((i + 2 * j) %% 7));
	for (int r = 0; r < 4; r++) {
		Matrix float <2> next;
		next = with ([1, 1] <= [i, j] < [n - 1, n - 1])
			genarray([n, n], u[i, j] + 0.25 * (u[i - 1, j] + u[i + 1, j] + u[i, j - 1] + u[i, j + 1] - 4.0 * u[i, j]));
		u = next;
	}
	return 0;
}
`

// parRows measures the pool's fixed costs and, when there is more than
// one CPU, the speed-up grid: SNIPPETS 2's grid cut to threads
// 1..nproc x two sizes x five kernels. The rows report the nproc
// column; the whole grid goes to result.json.
func parRows(out map[string]float64) []gridRow {
	batch := func(f func()) float64 { // µs per call, median of 21 batches of 100
		return medianOf(21, func() float64 {
			t0 := time.Now()
			for k := 0; k < 100; k++ {
				f()
			}
			return time.Since(t0).Seconds()
		}) * 1e6 / 100
	}
	workers := max(nproc, 2)
	out["par.pool_spawn_us"] = batch(func() { par.NewPool(workers).Shutdown() })
	pool := par.NewPool(workers)
	out["par.forkjoin_us"] = batch(func() { pool.ParallelFor(0, workers, func(int) {}) })
	out["par.reduce_us"] = batch(func() {
		pool.ParallelReduce(0, workers, 0, func(int) float64 { return 1 }, func(a, b float64) float64 { return a + b })
	})
	pool.Shutdown()
	out["par.naive_spawn_us"] = batch(func() { par.NaiveSpawn(workers, 0, workers, func(int) {}) })
	if nproc == 1 {
		return nil
	}

	k3 := filled(3, 3)
	language := func(src string, n int) func(threads int) float64 {
		var diags source.Diagnostics
		var c compiled
		c.prog = parser.ParseFile("grid.xc", fmt.Sprintf(src, n), parser.AllExtensions(), &diags)
		c.info = sem.Check(c.prog, &diags)
		var err error
		if c.vmp, err = vm.Compile(c.prog, c.info); err != nil || diags.HasErrors() {
			panic(fmt.Sprintf("grid program: %v %s", err, diags.String())) // fixed source: a bug here
		}
		return func(threads int) float64 { return execute(c, threads, false) }
	}
	direct := func(f func(x matrix.Exec) (*matrix.Matrix, error)) func(threads int) float64 {
		return func(threads int) float64 {
			var x matrix.Exec
			if threads > 1 {
				x.Pool = par.NewPool(threads)
				defer x.Pool.Shutdown()
			}
			t0 := time.Now()
			m, err := f(x)
			d := time.Since(t0).Seconds()
			if err != nil {
				panic(err) // fixed, valid shapes
			}
			m.Recycle()
			return d
		}
	}
	var grid []gridRow
	for _, kernel := range parKernels {
		for _, n := range parSizes[kernel] {
			var run func(threads int) float64
			reps := 9 // the direct kernels take a few ms: cheap to repeat
			a, b := filled(n, n), filled(n, n)
			switch kernel {
			case "matmul":
				run = direct(func(x matrix.Exec) (*matrix.Matrix, error) { return matrix.MatMulExec(a, b, x) })
			case "transpose":
				run = direct(func(x matrix.Exec) (*matrix.Matrix, error) { return matrix.TransposeExec(a, x) })
			case "conv":
				run = direct(func(x matrix.Exec) (*matrix.Matrix, error) { return matrix.Conv2DExec(a, k3, x) })
			case "fold":
				run, reps = language(foldGridSrc, n), 3
			case "genarray":
				run, reps = language(genarrayGridSrc, n), 3
			}
			var serial float64
			for threads := 1; threads <= nproc; threads++ {
				t := medianOf(reps, func() float64 { return run(threads) })
				if threads == 1 {
					serial = t
				}
				row := gridRow{kernel, n, threads, t * 1e3, serial / t, serial / t / float64(threads)}
				grid = append(grid, row)
				if threads == nproc {
					out[fmt.Sprintf("par.speedup.%s.%d", kernel, n)] = row.Speedup
					out[fmt.Sprintf("par.efficiency.%s.%d", kernel, n)] = row.Efficiency
				}
			}
		}
	}
	sort.SliceStable(grid, func(a, b int) bool { return grid[a].Kernel < grid[b].Kernel })
	return grid
}
