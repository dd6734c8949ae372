package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/driver"
	"repro/internal/matrix"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/vm"
)

var workloadNames = []string{"serve_warm", "serve_cold", "compute_parallel", "compute_serial"}

// env is what one benchmark process has built so far. A workload's
// constructor builds and warms only what that workload needs, so
// setup_s is the selected workload's own set-up; the traced pass
// builds the rest afterwards.
type env struct {
	seed int64
	tr   *tracer

	fleet *fleetEnv
	local *driver.Driver // the cmrun path: compute workloads call it in-process
	loads map[string]*workload

	firstCallMS  float64            // the process's first frontend call: grammar-table build
	firstParseMS map[string]float64 // by corpus program: reported parse time of its first compile here
	warming      bool               // set-up is single-threaded; ops note first parses while it is on
	fallbackTree atomic.Int64       // runs that fell back from the VM to the tree engine
}

func newEnv(seed int64) *env {
	e := &env{seed: seed, tr: newTracer(), loads: map[string]*workload{}, firstParseMS: map[string]float64{}}
	// The first frontend call in a process composes the grammars and
	// builds the LALR table (cmserved -warm pays the same at start-up).
	t0 := time.Now()
	var diags source.Diagnostics
	parser.ParseFile("warm.xc", "int main() { return 0; }", parser.AllExtensions(), &diags)
	e.firstCallMS = float64(time.Since(t0)) / 1e6
	return e
}

func (e *env) close() {
	if e.fleet != nil {
		e.fleet.close()
	}
}

// workload returns the named workload, building and warming it on
// first use: every op class is performed once, so grammar tables,
// scanner states and all five driver caches are hot before timing.
func (e *env) workload(name string) (*workload, error) {
	if w := e.loads[name]; w != nil {
		return w, nil
	}
	var w *workload
	var warm int
	var err error
	switch name {
	case "serve_warm":
		w, warm, err = e.serveWarm()
	case "serve_cold":
		w, warm, err = e.serveCold()
	case "compute_parallel":
		w, warm = e.compute(name, parallelCorpus(), nproc)
	case "compute_serial":
		w, warm = e.compute(name, serialCorpus(), 1)
	default:
		err = fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	e.warming = true
	defer func() { e.warming = false }()
	for k := 0; k < warm; k++ {
		if _, _, _, err := w.do(w.next.Add(1) - 1); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", name, err)
		}
	}
	e.loads[name] = w
	return w, nil
}

// noteStages keeps the parse time a warm-up op reports for the first
// compile of p (or of a variant of p) in this process: the price of a
// new program shape, lazy scanner states included.
func (e *env) noteStages(p *program, cached bool, st driver.StageTimings) {
	if _, seen := e.firstParseMS[p.name]; e.warming && !cached && !seen {
		e.firstParseMS[p.name] = float64(st.ParseNS) / 1e6
	}
}

// --- serve workloads: HTTP through the gate ---

func (e *env) needFleet() error {
	if e.fleet != nil {
		return nil
	}
	f, err := startFleet(e.tr, warmClients)
	e.fleet = f
	return err
}

// post sends one request through the gate as op id and returns the
// status and the whole body.
func (e *env) post(id int64, path, key string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, e.fleet.gateURL+path+"?op="+strconv.FormatInt(id, 10), bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+key)
	resp, err := e.fleet.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

type sourceBody struct {
	Name    string `json:"name"`
	Source  string `json:"source"`
	Threads int    `json:"threads,omitempty"` // omitted: the service default, a pool of GOMAXPROCS workers per run
}

// The parts of the shards' replies the harness checks or reports.
type runReply struct {
	Cached     bool                `json:"cached"`
	Engine     string              `json:"engine"`
	ExitCode   int                 `json:"exit_code"`
	Stdout     string              `json:"stdout"`
	Stages     driver.StageTimings `json:"stages"`
	DurationMS float64             `json:"duration_ms"`
}

type compileReply struct {
	Cached bool                `json:"cached"`
	Output string              `json:"output"`
	Stages driver.StageTimings `json:"stages"`
}

type vetReply struct {
	Cached bool                `json:"cached"`
	Errors int                 `json:"errors"`
	Stages driver.StageTimings `json:"stages"`
}

func decodeOK(status int, raw []byte, v any) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, raw)
	}
	return json.Unmarshal(raw, v)
}

// run posts to /v1/run and checks the reply against the expected
// standard output. While tracing it records what the reply reports of
// the shard's inside: the driver call, and under it the stages that
// actually executed for this request.
func (e *env) run(id int64, key string, body []byte, p *program) error {
	status, raw, err := e.post(id, "/v1/run", key, body)
	if err != nil {
		return err
	}
	var r runReply
	if err := decodeOK(status, raw, &r); err != nil {
		return err
	}
	if r.Engine == "tree" {
		e.fallbackTree.Add(1)
	}
	e.noteStages(p, r.Cached, r.Stages)
	if e.tr.armed.Load() {
		e.tr.addReported(id, "driver.run", "server.handle", time.Duration(r.DurationMS*1e6))
		e.reportStages(id, "driver.run", r.Cached, r.Stages)
	}
	if r.ExitCode != 0 || r.Stdout != p.out {
		return fmt.Errorf("%s: wrong output: exit %d, stdout %q, want %q", p.name, r.ExitCode, r.Stdout, p.out)
	}
	return nil
}

// reportStages records the reply's stage times under the span named
// under. A cached reply carries the stage times of the original
// execution; nothing but the run itself executed for this request.
func (e *env) reportStages(id int64, under string, cached bool, st driver.StageTimings) {
	if !cached {
		e.tr.addReported(id, "parser.parse", under, time.Duration(st.ParseNS))
		e.tr.addReported(id, "sem.check", under, time.Duration(st.CheckNS))
		if st.VetNS > 0 {
			e.tr.addReported(id, "vet.check", under, time.Duration(st.VetNS))
		}
		if st.EmitNS > 0 {
			e.tr.addReported(id, "cgen.generate", under, time.Duration(st.EmitNS))
		}
	}
	if st.RunNS > 0 {
		e.tr.addReported(id, "driver.execute", under, time.Duration(st.RunNS))
	}
}

func (e *env) compile(id int64, key string, body []byte, p *program) error {
	status, raw, err := e.post(id, "/v1/compile", key, body)
	if err != nil {
		return err
	}
	var r compileReply
	if err := decodeOK(status, raw, &r); err != nil {
		return err
	}
	e.noteStages(p, r.Cached, r.Stages)
	if e.tr.armed.Load() {
		st := r.Stages
		e.tr.addReported(id, "driver.compile", "server.handle", time.Duration(st.ParseNS+st.CheckNS+st.EmitNS))
		e.reportStages(id, "driver.compile", r.Cached, st)
	}
	if !strings.Contains(r.Output, "main") {
		return fmt.Errorf("%s: compile: emitted C has no main (%d bytes)", p.name, len(r.Output))
	}
	return nil
}

func (e *env) vet(id int64, key string, body []byte, p *program) error {
	status, raw, err := e.post(id, "/v1/vet", key, body)
	if err != nil {
		return err
	}
	var r vetReply
	if err := decodeOK(status, raw, &r); err != nil {
		return err
	}
	e.noteStages(p, r.Cached, r.Stages)
	if e.tr.armed.Load() {
		st := r.Stages
		e.tr.addReported(id, "driver.vet", "server.handle", time.Duration(st.ParseNS+st.CheckNS+st.VetNS))
		e.reportStages(id, "driver.vet", r.Cached, st)
	}
	if r.Errors != 0 { // every corpus program vets clean
		return fmt.Errorf("%s: vet: %d error findings, want 0", p.name, r.Errors)
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain strings always marshal
	}
	return b
}

// warmThreads is the "threads" field of a serve_warm request. The issue
// left it out, so that every run spun up the service default, a pool of
// GOMAXPROCS workers that spin (yielding) until Close. With several
// such runs in flight the spinners keep both run queues non-empty, the
// scheduler then reaches the network poller only through sysmon's
// 10 ms back-stop, whole-process stalls of 5-25 ms follow (a run with
// them completed nothing in 295 of its 3200 5-ms bins), hedges fire at
// 20 ms, and ops_per_s of identical runs ranged 2660-4740: the
// benchmark driver measured a spread of 21 % and 27 % and refused it.
// At one thread no pool exists, the stalls and the hedges are gone and
// runs taking turns with the above read 4515-4590. What a pool per run
// costs is priced by interp.new_close_pool_us and par.pool_spawn_us and
// met by serve_cold, whose run requests still leave the field out.
const warmThreads = 1

// warmClients is serve_warm's closed-loop client count: one per CPU, as
// serve_cold's and as the issue has it. While every run spun a pool,
// four per CPU spread less (README, "Sizing"). At one thread they do
// not, and above two requests in flight per shard the gate opens a
// connection for about one request in six (its transport keeps two idle
// connections per shard): 900-1100 sockets a second went to TIME_WAIT
// and were left to the next run.
var warmClients = nproc

// serveWarm: every request is one of eight already-cached programs,
// so the time is the request path itself.
func (e *env) serveWarm() (*workload, int, error) {
	if err := e.needFleet(); err != nil {
		return nil, 0, err
	}
	corpus := serveCorpus()
	n := int64(len(corpus))
	w := e.serveWorkload("serve_warm", warmClients)
	bodies := make([][]byte, n)
	for c, p := range corpus {
		w.classes = append(w.classes, p.name)
		bodies[c] = mustJSON(sourceBody{Name: p.file + ".xc", Source: p.src, Threads: warmThreads})
	}
	w.do = func(i int64) (int, time.Time, time.Duration, error) {
		c := slot(e.seed, i, n)
		key := apiKeys[(i/n)%int64(len(apiKeys))]
		t0 := time.Now()
		err := e.run(i, key, bodies[c], corpus[c])
		return c, t0, time.Since(t0), err
	}
	return w, len(corpus), nil
}

var coldEndpoints = []string{"run", "run", "compile", "vet"} // 50 % / 25 % / 25 %

// serveCold: every request is a never-seen source, so the frontend
// runs in full and the driver caches take misses and inserts (a window
// is too short to fill them to the 4096-entry cap, so no evictions).
func (e *env) serveCold() (*workload, int, error) {
	if err := e.needFleet(); err != nil {
		return nil, 0, err
	}
	corpus := serveCorpus()
	cycle := len(corpus) * len(coldEndpoints)
	w := e.serveWorkload("serve_cold", nproc)
	for _, p := range corpus {
		for _, ep := range []string{"run", "compile", "vet"} {
			w.classes = append(w.classes, p.name+"."+ep)
		}
	}
	w.do = func(i int64) (int, time.Time, time.Duration, error) {
		p, ep, body := coldRequest(corpus, e.seed, i)
		key := apiKeys[i%int64(len(apiKeys))]
		class := 3 * p
		var err error
		t0 := time.Now()
		switch ep {
		case "run":
			err = e.run(i, key, body, corpus[p])
		case "compile":
			class++
			err = e.compile(i, key, body, corpus[p])
		case "vet":
			class += 2
			err = e.vet(i, key, body, corpus[p])
		}
		return class, t0, time.Since(t0), err
	}
	return w, cycle, nil
}

// slot places stream index i in its cycle of n classes: every cycle
// is a fresh seeded permutation, so each class comes up once per cycle
// (class counts stay balanced, warm-up over the first cycle meets every
// class) while the classes that run side by side on the clients vary
// from cycle to cycle and no pairing is baked into a run.
func slot(seed, i, n int64) int {
	return shuffled(int(n), newRNG(seed, -1-i/n))[i%n]
}

// coldRequest is the i-th request of the serve_cold stream under seed:
// the corpus program it varies, the endpoint it goes to, and its body.
func coldRequest(corpus []*program, seed, i int64) (prog int, endpoint string, body []byte) {
	s := slot(seed, i, int64(len(corpus)*len(coldEndpoints)))
	prog, endpoint = s/len(coldEndpoints), coldEndpoints[s%len(coldEndpoints)]
	p := corpus[prog]
	return prog, endpoint, mustJSON(sourceBody{Name: p.file + ".xc", Source: coldSource(p.src, seed, i)})
}

// coldSource is the i-th never-seen variant of src under seed.
func coldSource(src string, seed, i int64) string {
	return mutate(src, fmt.Sprintf("s%dn%d", seed, i), newRNG(seed, i))
}

func (e *env) serveWorkload(name string, clients int) *workload {
	return &workload{name: name, clients: clients, counters: e.counters, gauges: e.fleetGauges}
}

// fleetGauges reads each shard's run-queue depth from /healthz.
func (e *env) fleetGauges() map[string]float64 {
	depth := 0.0
	for _, u := range e.fleet.shardURLs {
		resp, err := e.fleet.client.Get(u + "/healthz")
		if err != nil {
			continue
		}
		var h struct {
			QueueDepth float64 `json:"run_queue_depth"`
		}
		if json.NewDecoder(resp.Body).Decode(&h) == nil {
			depth = max(depth, h.QueueDepth)
		}
		resp.Body.Close()
	}
	return map[string]float64{"server.run_queue_depth": depth}
}

// --- compute workloads: in-process driver.Run, the cmrun path ---

func (e *env) localDriver() *driver.Driver {
	if e.local == nil {
		e.local = driver.New()
	}
	return e.local
}

func runRequest(p *program, threads int, files map[string]*matrix.Matrix, stdout io.Writer) driver.RunRequest {
	return driver.RunRequest{
		Name: p.file + ".xc", Source: p.src, Exts: parser.AllExtensions(),
		Threads: threads, Files: files, Stdout: stdout,
	}
}

func (e *env) compute(name string, corpus []*program, threads int) (*workload, int) {
	d := e.localDriver()
	n := int64(len(corpus))
	w := &workload{name: name, clients: 1, counters: e.counters}
	inputs := make([]map[string]*matrix.Matrix, n)
	checks := make([]func(map[string]*matrix.Matrix) error, n)
	for c, p := range corpus {
		w.classes = append(w.classes, p.name)
		if p.prepare != nil {
			inputs[c], checks[c] = p.prepare(e.seed)
		}
	}
	w.do = func(i int64) (int, time.Time, time.Duration, error) {
		// One caller, fixed round-robin: the seed sets the input data.
		c := int(i % n)
		p := corpus[c]
		// A fresh file map per run, as the server makes one per request;
		// readMatrix copies, so the input matrices are shared read-only.
		files := map[string]*matrix.Matrix{}
		for k, m := range inputs[c] {
			files[k] = m
		}
		var out bytes.Buffer
		t0 := time.Now()
		res, err := d.Run(context.Background(), runRequest(p, threads, files, &out))
		t1 := time.Now()
		switch {
		case err != nil:
		case !res.OK:
			err = fmt.Errorf("%s: does not compile: %v", p.name, res.Diagnostics)
		case res.ExitCode != 0 || out.String() != p.out:
			err = fmt.Errorf("%s: wrong output: exit %d, stdout %q, want %q", p.name, res.ExitCode, out.String(), p.out)
		case checks[c] != nil:
			err = checks[c](files)
		}
		lat := time.Since(t0)
		if err == nil {
			if res.Engine == "tree" {
				e.fallbackTree.Add(1)
			}
			e.noteStages(p, res.Cached, res.Stages)
			if e.tr.armed.Load() {
				e.tr.add(i, "driver.run", t0, t1)
				e.reportStages(i, "driver.run", res.Cached, res.Stages)
			}
		}
		return c, t0, lat, err
	}
	return w, len(corpus)
}

// counters gathers the layers' own cumulative counters: the gate's and
// shards' /metrics documents as an operator would fetch them (shards
// summed), the in-process driver's MetricsSnapshot, and the
// process-wide matrix and vm counters read once, not per shard.
func (e *env) counters() map[string]float64 {
	out := map[string]float64{}
	add := func(prefix string, doc map[string]float64) {
		for k, v := range doc {
			if strings.HasPrefix(k, "driver.kernel_") || k == "driver.vm_fused_loops" || k == "driver.with_loops_flat_runs" {
				continue // process-wide, not this driver's: read below
			}
			out[prefix+k] += v
		}
	}
	if e.fleet != nil {
		if doc, err := e.fleet.metricsDoc(e.fleet.gateURL); err == nil {
			add("fleet.", doc)
		}
		for _, u := range e.fleet.shardURLs {
			if doc, err := e.fleet.metricsDoc(u); err == nil {
				add("server.", doc)
			}
		}
	}
	if e.local != nil {
		var doc map[string]any
		if json.Unmarshal(mustJSON(e.local.MetricsSnapshot()), &doc) == nil {
			flat := map[string]float64{}
			flatten("driver.", doc, flat)
			add("server.", flat)
		}
	}
	par, ser, reused := matrix.KernelStats()
	tr, conv, red := matrix.KernelOpStats()
	out["matrix.kernel_parallel"], out["matrix.kernel_serial"], out["matrix.buffers_reused"] = float64(par), float64(ser), float64(reused)
	out["matrix.kernel_transpose"], out["matrix.kernel_conv"], out["matrix.kernel_reduce"] = float64(tr), float64(conv), float64(red)
	out["vm.fused_loops_run"], out["vm.with_flat_runs"] = float64(vm.FusedLoopsRun()), float64(vm.WithFlatLoopsRun())
	out["vm.fallback_tree"] = float64(e.fallbackTree.Load())
	return out
}
