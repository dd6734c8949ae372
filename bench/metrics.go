package main

import (
	"fmt"
	"runtime"
)

// nproc is the client and thread count: one per CPU, at most four.
var nproc = min(runtime.NumCPU(), 4)

// A metric is one named number the benchmark reports. BENCHMARK.json
// repeats name, unit, better and bound (TestBenchmarkJSON holds the two
// together); how and moves are the -list and README columns.
type metric struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	How    string  // how it is measured, from outside the program
	Moves  string  // which end-to-end metric on which workload it should move
}

// endToEnd: the same six names on every workload, all from the
// untraced timed window (setup_s: from the set-ups before it). The
// three timing metrics are at the nominal host's speed (hostref.go).
var endToEnd = []metric{
	{"ops_per_s", "1/s", "higher", 0.25, "correct ops completed per second of a slice / the slice's host speed, median over the kept slices", ""},
	{"op_ms_geomean", "ms", "lower", 0.25, "geometric mean over op classes of the class's median latency in kept slices (send to response read and checked), each latency x its slice's host speed", ""},
	{"cpu_ms_per_op", "ms", "lower", 0.25, "process user+sys CPU of a slice / ops completed in it x the slice's host speed, median over the kept slices (counts spinning pool workers)", ""},
	{"alloc_kb_per_op", "KB", "lower", 0.12, "runtime.MemStats.TotalAlloc delta over the window / ops", ""},
	{"ok_share", "ratio", "higher", 0.001, "1 - (non-2xx + refused + timed out + wrong output) / attempted; expected 1", ""},
	{"setup_s", "s", "lower", 0.25, "process start to first timed op (grammar tables, fleet start, corpus, expected outputs, warm-up); median of nine set-ups, each in a process of its own", ""},
}

// workloadBound is the bound per workload and metric that -agree holds
// two sets of runs to, and that a later issue's "no regression" is
// judged by. It follows the issue's rule on runs of this commit (two
// rounds of ten seeded runs per workload; the larger figure counts):
// max(0.05, 2 x the largest deviation from the round's median), rounded
// up to a twentieth, at most 0.25; alloc_kb_per_op at most 0.03 where
// that holds (README, "The bounds", has the runs). BENCHMARK.json has
// room for one bound per metric only: endToEnd's Bound is that one, no
// tighter than any of these.
var workloadBound = map[string]map[string]float64{
	"serve_warm":       {"ops_per_s": 0.25, "op_ms_geomean": 0.25, "cpu_ms_per_op": 0.25, "alloc_kb_per_op": 0.03, "ok_share": 0.001, "setup_s": 0.25},
	"serve_cold":       {"ops_per_s": 0.20, "op_ms_geomean": 0.15, "cpu_ms_per_op": 0.20, "alloc_kb_per_op": 0.03, "ok_share": 0.001, "setup_s": 0.25},
	"compute_parallel": {"ops_per_s": 0.05, "op_ms_geomean": 0.10, "cpu_ms_per_op": 0.10, "alloc_kb_per_op": 0.10, "ok_share": 0.001, "setup_s": 0.25},
	"compute_serial":   {"ops_per_s": 0.15, "op_ms_geomean": 0.10, "cpu_ms_per_op": 0.10, "alloc_kb_per_op": 0.03, "ok_share": 0.001, "setup_s": 0.25},
}

// workloadWhy is each workload's one-line reason for being there.
var workloadWhy = map[string]string{
	"serve_warm":       "cached programs through the gate: the request path itself (fleet, HTTP+JSON, tenant, admission, driver cache hits, interp.New/Close at one thread); frontend and kernels idle",
	"serve_cold":       "never-seen sources on run/compile/vet: parser and sem dominate, and the driver caches take misses and inserts instead of hits",
	"compute_parallel": "in-process driver.Run at Threads = nproc: matrix kernels, the flat with-loop engine and par do the work; no HTTP, no frontend",
	"compute_serial":   "the same path at Threads = 1: VM dispatch, frames, rc and with-loop admission; bulk kernels and par are bypassed",
}

// parKernels and parSizes are the speed-up grid: SNIPPETS 2's grid cut
// to fit a run (threads 1..nproc x two sizes x five kernels).
var parKernels = []string{"matmul", "transpose", "conv", "fold", "genarray"}

var parSizes = map[string][2]int{
	"matmul":    {128, 256},
	"transpose": {384, 768},
	"conv":      {256, 512},
	"fold":      {256, 512},
	"genarray":  {256, 512},
}

// perLayer lists every per-layer metric of a traced run, in print
// order. The par.speedup/efficiency rows exist only when there is more
// than one CPU to speed up on; with one they are listed as skipped,
// never simulated.
func perLayer(cpus int) []metric {
	const (
		warm   = "op_ms_geomean, cpu_ms_per_op on serve_warm"
		cold   = "op_ms_geomean, ops_per_s on serve_cold"
		parl   = "op_ms_geomean, ops_per_s on compute_parallel; nothing on compute_serial or serve"
		serial = "op_ms_geomean on compute_serial; nothing on compute_parallel"
		fails  = "ok_share on both serve workloads; expected 0"
		drift  = "about 1 / 0 on serve_warm, about 0 / >0 on serve_cold; a drift explains an ops_per_s change"
		diag   = "diagnostic"
	)
	counter := "counter: /metrics after the timed window minus before"
	m := []metric{
		{"fleet.gate_self_us", "us", "lower", 0, "span around the gate's Handler minus the forward spans inside it, p50 over the serve_warm replay", warm + "; <3 % of serve_cold"},
		{"fleet.forward_us", "us", "lower", 0, "Config.Transport wrapper, one span per attempt, p50", warm},
		{"fleet.attempts_per_op", "ratio", "lower", 0, "forward spans / ops in the serve_warm replay", ">1 means retries or hedges duplicate work"},
		{"fleet.retries", "count", "lower", 0, counter, "ok_share, cpu_ms_per_op on serve_cold; 0 on serve_warm"},
		{"fleet.hedges_fired", "count", "lower", 0, counter, "cpu_ms_per_op on serve_cold; about 0 on serve_warm"},
		{"fleet.hedges_won", "count", "lower", 0, counter, "as hedges_fired"},
		{"fleet.failovers", "count", "lower", 0, counter, "ok_share; expected 0"},
		{"fleet.peer_fills", "count", "lower", 0, counter, "expected 0 (no shard is lost)"},
		{"fleet.replications", "count", "lower", 0, counter, "cpu_ms_per_op on serve_cold (one per /v1/compile); 0 on serve_warm"},
		{"fleet.rate_limited", "count", "lower", 0, counter, "ok_share; expected 0 (quotas never bind)"},
		{"server.handle_self_us", "us", "lower", 0, "span around each shard's Handler minus the reply's duration_ms (decode, tenant, admission, encode), p50", "op_ms_geomean on serve_warm"},
		{"server.runs_shed", "count", "lower", 0, counter, fails},
		{"server.run_queue_depth_max", "count", "lower", 0, "largest /healthz run_queue_depth seen at a slice boundary", fails},
		{"server.run_timeouts", "count", "lower", 0, counter, fails},
		{"server.client_errors", "count", "lower", 0, counter, fails},
		{"driver.run_overhead_us", "us", "lower", 0, "in-process driver.Run wall minus Stages.RunNS on cached serve programs at serve_warm's one thread (key hashes, cache lookups, interp.New/Close), p50", warm + "; nothing on compute_*"},
		{"driver.frontend_hit_ratio", "ratio", "higher", 0, counter + ": hits / (hits + misses); 0 when there were no lookups", drift},
		{"driver.vm_cache_hit_ratio", "ratio", "higher", 0, counter + ", as above", drift},
		{"driver.facts_hit_ratio", "ratio", "higher", 0, counter + ", as above (looked up only on a vm cache miss)", drift},
		{"driver.cache_evictions", "count", "lower", 0, counter + "; expected 0: a window inserts fewer sources per shard than the 4096-entry cap", "a rise on serve_cold means the caches shrank or its throughput rose by a quarter"},
		{"driver.cache_entries", "count", "lower", 0, "gauge after the timed window, all drivers", drift},
		{"driver.cache_bytes", "count", "lower", 0, "gauge after the timed window, all drivers", drift},
		{"driver.compile_coalesced", "count", "higher", 0, counter, drift},
		{"parser.parse_us_per_kb", "us", "lower", 0, "span around parser.ParseFile over a sample of cold variants, median of time / KB", cold},
		{"parser.first_call_ms", "ms", "lower", 0, "the process's first ParseFile (grammar composition, LALR table)", "setup_s only"},
		{"parser.new_shape_first_parse_ms", "ms", "lower", 0, "reported parse time of each program's first compile in the process (lazy scanner states), median", "setup_s only"},
		{"sem.check_us_per_kb", "us", "lower", 0, "span around sem.Check, as parse_us_per_kb", cold},
		{"vet.check_us", "us", "lower", 0, "span around vet.Check over the corpus, median", "<2 % of serve_cold"},
		{"vet.facts_us", "us", "lower", 0, "span around vet.ComputeFacts, median", "<2 % of serve_cold"},
		{"vet.fused_sites", "count", "higher", 0, "sum of Program.FusedSites over the corpus", "gates compute_*: a lost proof is a drop here and a rise in op_ms_geomean there"},
		{"vet.with_sites", "count", "higher", 0, "sum of Program.WithCompiled over the corpus", "as fused_sites"},
		{"vm.compile_us", "us", "lower", 0, "span around vm.CompileWithFacts, median", "serve_cold"},
		{"vm.fallback_tree", "count", "lower", 0, "ops whose reply says engine tree, warm-up to end of run", "must stay 0 on every corpus program"},
		{"vm.scalar_ns_per_iter", "ns", "lower", 0, "vm.NewMachine(p, i).Run() on scalar_loop / 400000 iterations", serial},
		{"vm.call_ns", "ns", "lower", 0, "the same on fib_rec / 35421 calls", serial},
		{"vm.idx1_ns_per_elem", "ns", "lower", 0, "the same on index_sum / 135168 indexed elements", serial},
		{"interp.new_close_pool_us", "us", "lower", 0, "interp.New + Close at Threads = max(nproc, 2) (spawns and stops a pool)", "cpu_ms_per_op, op_ms_geomean on the run requests of serve_cold (a pool per run); serve_warm asks for one thread and has none"},
		{"interp.new_close_serial_us", "us", "lower", 0, "interp.New + Close at Threads = 1", "op_ms_geomean on serve_warm, compute_serial"},
		{"interp.cilk_spawn_us", "us", "lower", 0, "cilk_fib run / 609 spawns (spreads 2-60 ms per run)", "none claimed"},
		{"interp.tree_over_vm", "ratio", "lower", 0, "tree-engine time / VM time over the serve corpus", "none (cost of the oracle)"},
	}
	for _, k := range []struct{ name, unit, how string }{
		{"matmul_gflops", "GFLOP/s", "MatMulExec 256x256 float, 2n^3 flops"},
		{"transpose_gbps", "GB/s", "TransposeExec 768x768 float, 16n^2 bytes computed from the shape"},
		{"conv2d_ms", "ms", "Conv2DExec 256x256 float with a 3x3 kernel"},
		{"elementwise_gbps", "GB/s", "ElementwiseExec add on 2^20 floats, 24n bytes computed from the shape"},
		{"reduce_axis_gbps", "GB/s", "ReduceAxisExec sum along axis 0 of 1024x1024 float, 8n^2 bytes computed from the shape"},
	} {
		better := "higher"
		if k.unit == "ms" {
			better = "lower"
		}
		m = append(m,
			metric{"matrix." + k.name + ".serial", k.unit, better, 0, k.how + ", zero Exec", parl},
			metric{"matrix." + k.name + ".pool", k.unit, better, 0, k.how + ", pool of nproc", parl})
	}
	m = append(m,
		metric{"matrix.genarray_flat_ns_per_cell", "ns", "lower", 0, "stencil_256x4 run / 4*254^2 stencil cells", parl},
		metric{"matrix.genarray_closure_ns_per_cell", "ns", "lower", 0, "withloop_closure run / 96^2 cells", serial},
		metric{"matrix.fold_ns_per_cell", "ns", "lower", 0, "fold_nested run / 40*40*32 cells", serial},
		metric{"matrix.fused_ns_per_cell", "ns", "lower", 0, "chain_1m run / 3*2^20 cells", parl},
		metric{"matrix.withloop_admit_us", "us", "lower", 0, "withloop_flat_small run / 1500 16x16 genarrays", serial},
		metric{"matrix.freelist_reuse_ratio", "ratio", "higher", 0, counter + ": buffers reused / kernels run", "alloc_kb_per_op on compute_parallel"},
		metric{"matrix.kernel_parallel_share", "ratio", "higher", 0, counter + ": kernels run on the pool / kernels run", "compute_parallel; 0 on compute_serial"},
		metric{"matrix.kernel_transpose", "count", "higher", 0, counter, "a pattern-match regression is a drop on compute_parallel"},
		metric{"matrix.kernel_conv", "count", "higher", 0, counter, "0 until a with-loop matches the conv kernel"},
		metric{"matrix.kernel_reduce", "count", "higher", 0, counter, "0 until a with-loop matches the reduce kernel"},
		metric{"par.pool_spawn_us", "us", "lower", 0, "NewPool(max(nproc, 2)) + Shutdown", parl + "; also the run requests of serve_cold"},
		metric{"par.forkjoin_us", "us", "lower", 0, "ParallelFor over one empty item per worker", parl},
		metric{"par.reduce_us", "us", "lower", 0, "ParallelReduce over one item per worker", parl},
		metric{"par.naive_spawn_us", "us", "lower", 0, "NaiveSpawn beside it (paper III-C's contrast)", "none (the exhibit)"},
	)
	if cpus > 1 {
		for _, k := range parKernels {
			for _, n := range parSizes[k] {
				how := fmt.Sprintf("%s at size %d: time at 1 thread / time at %d threads", k, n, cpus)
				m = append(m,
					metric{fmt.Sprintf("par.speedup.%s.%d", k, n), "ratio", "higher", 0, how, "ops_per_s on compute_parallel"},
					metric{fmt.Sprintf("par.efficiency.%s.%d", k, n), "ratio", "higher", 0, how + " / threads", "ops_per_s on compute_parallel"})
			}
		}
	}
	m = append(m,
		metric{"cgen.generate_us_per_kb", "us", "lower", 0, "span around cgen.Generate over the cold sample, median of time / source KB", "the /v1/compile classes of serve_cold"},
		metric{"cgen.c_bytes_per_src_byte", "ratio", "lower", 0, "emitted C bytes / source bytes over the same sample", "as generate_us_per_kb"},
	)
	for _, w := range []struct {
		name   string
		corpus []*program
	}{{"serve_warm", serveCorpus()}, {"compute_parallel", parallelCorpus()}, {"compute_serial", serialCorpus()}} {
		for _, p := range w.corpus {
			m = append(m, metric{"prog." + w.name + "." + p.name + ".run_ms", "ms", "lower", 0,
				"the op class's median over the serial replay", "the row that explains a geomean change on " + w.name})
		}
	}
	return append(m,
		metric{"client.latency_p50_ms", "ms", "lower", 0, "all kept latencies of the timed window pooled, at the nominal host's speed", diag},
		metric{"client.latency_p99_ms", "ms", "lower", 0, "as p50; moved 10x between identical runs under steal", diag},
		metric{"client.latency_max_ms", "ms", "lower", 0, "as p50", diag},
		metric{"client.samples", "count", "higher", 0, "latencies behind the three rows above", diag},
		metric{"client.ops_per_s_wall", "1/s", "higher", 0, "correct ops / whole window, no slice dropped", diag},
		metric{"client.trace_overhead_share", "ratio", "lower", 0, "replayed / timed-window op_ms_geomean - 1", diag},
		metric{"env.steal_share", "ratio", "lower", 0, "/proc/stat steal / all jiffies over the window", diag + "; disturbed runs are re-run, not compared"},
		metric{"env.steal_share_kept", "ratio", "lower", 0, "the same over the kept slices", diag},
		metric{"env.host_speed", "ratio", "higher", 0, "nominal / measured CPU time of the fixed reference task run ten times a slice, median over the kept slices; the three timing metrics are scaled by it", diag + "; raw figure = reported x (rates) or / (times) this"},
		metric{"env.nproc", "count", "higher", 0, "CPUs seen; threads and the serve workloads' clients are min(this, 4)", diag},
	)
}

// printList prints every metric without running anything.
func printList() {
	fmt.Println("workloads:")
	for _, w := range workloadNames {
		fmt.Printf("  %-18s %s\n", w, workloadWhy[w])
	}
	fmt.Println("end-to-end (every workload; bound = share of the parent's median it may worsen by: BENCHMARK.json's, then per workload):")
	for _, m := range endToEnd {
		fmt.Printf("  %-44s %-8s %-7s bound %-6g", m.Name, m.Unit, m.Better, m.Bound)
		for _, w := range workloadNames {
			fmt.Printf(" %-6g", workloadBound[w][m.Name])
		}
		fmt.Printf(" %s\n", m.How)
	}
	fmt.Println("per-layer (traced run):")
	for _, m := range perLayer(nproc) {
		fmt.Printf("  %-44s %-8s %-7s %s | moves: %s\n", m.Name, m.Unit, m.Better, m.How, m.Moves)
	}
}
