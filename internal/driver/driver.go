// Package driver is the staged compile/run pipeline behind every entry
// point (cmc, cmrun, cmserved, the examples): parse with the composed
// extension grammars → check with the composed attribute-grammar
// semantics → {emit C / print AST, interpret}. It is the only such
// pipeline, and adds what a long-lived compile service needs on top of
// the one-shot use:
//
//   - two content-addressed caches. units holds one program unit per
//     (name, source, extension set): the parse+check result and, on
//     the unit, the two products derived from it at most once — the
//     bytecode program (first Run) and the vet findings (first Vet).
//     emits holds the emitted artifacts, keyed by the same triple plus
//     the codegen flags. Both are LRU-bounded (entries and approximate
//     bytes, see Config) so the daemon's memory ceiling is a knob, not
//     traffic; a unit is charged once and evicted whole, so a bytecode
//     program never outlives the AST it points into;
//   - an optional crash-safe on-disk artifact tier (Config.CacheDir):
//     compile artifacts persist across restarts, written atomically
//     and digest-verified on read (see diskcache.go);
//   - singleflight request coalescing — concurrent identical requests
//     execute the pipeline exactly once and share the result;
//   - per-stage latency histograms and cache hit/miss counters
//     (see Metrics) for the service's /metrics endpoint;
//   - memoized §VI analysis results (see Analyses) so the analyses are
//     run once per process, not once per request.
//
// The composed grammar tables themselves are memoized per extension
// set inside internal/parser; the driver's unit cache sits above that
// and memoizes whole parse+check results per source text.
package driver

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/ast"
	"repro/internal/cgen"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/vm"
)

// Config bounds a Driver's caches. Zero values select the defaults;
// the caches are always bounded (there is deliberately no "unlimited"
// setting — an unbounded cache under sustained unique traffic is an
// OOM scheduled for later).
type Config struct {
	// MaxCacheEntries caps completed entries per cache (units and
	// artifacts each); default 4096.
	MaxCacheEntries int
	// MaxCacheBytes caps the approximate bytes retained per cache;
	// default 256 MiB. A unit is charged the source length (a proxy for
	// AST and bytecode size) plus its diagnostics, and its vet findings
	// once they exist; an artifact its output + diagnostic lengths.
	MaxCacheBytes int64
	// CacheDir enables the on-disk artifact tier (see diskcache.go):
	// successful compile artifacts are persisted content-addressed and
	// survive restarts. Empty disables the tier. If the directory is
	// unusable the driver runs memory-only (recorded in
	// DiskWriteErrors).
	CacheDir string
}

// Driver is a concurrency-safe compile/run pipeline with a bounded
// content-addressed cache and an optional on-disk artifact tier. The
// zero value is not usable; call New or NewWith.
type Driver struct {
	metrics Metrics

	units *lru[*unit]       // program units by (name, source, extensions)
	emits *lru[*emitResult] // emitted artifacts by that triple + codegen flags
	disk  *diskCache
}

// New returns a driver with the default cache bounds and no disk tier.
func New() *Driver { return NewWith(Config{}) }

// NewWith returns a driver configured by cfg; see Config for defaults.
func NewWith(cfg Config) *Driver {
	if cfg.MaxCacheEntries <= 0 {
		cfg.MaxCacheEntries = 4096
	}
	if cfg.MaxCacheBytes <= 0 {
		cfg.MaxCacheBytes = 256 << 20
	}
	d := &Driver{}
	d.units = newLRU[*unit](cfg.MaxCacheEntries, cfg.MaxCacheBytes, &d.metrics.UnitEvictions)
	d.emits = newLRU[*emitResult](cfg.MaxCacheEntries, cfg.MaxCacheBytes, &d.metrics.CompileEvictions)
	if cfg.CacheDir != "" {
		disk, err := newDiskCache(cfg.CacheDir, &d.metrics)
		if err != nil {
			d.metrics.DiskWriteErrors.Add(1)
		} else {
			d.disk = disk
		}
	}
	return d
}

// Metrics exposes the driver's live counters.
func (d *Driver) Metrics() *Metrics { return &d.metrics }

// StageTimings records where a request's time went, in nanoseconds.
// Cached requests carry the stage times of the original execution.
type StageTimings struct {
	ParseNS int64 `json:"parse_ns"`
	CheckNS int64 `json:"check_ns"`
	VetNS   int64 `json:"vet_ns,omitempty"`
	EmitNS  int64 `json:"emit_ns,omitempty"`
	RunNS   int64 `json:"run_ns,omitempty"`
}

// frontResult is a parse+check outcome. prog and info are immutable
// after Check and are shared by concurrent consumers.
type frontResult struct {
	prog   *ast.Program
	info   *sem.Info
	diags  []string
	ok     bool
	stages StageTimings
}

// unit is everything the driver derives from one (name, source,
// extension set): the frontend result, which the singleflight owner
// stores before the slot completes (failed frontends included), and the
// two products later requests add to it.
type unit struct {
	frontResult
	code product[vmEntry]  // bytecode program, computed by the first Run
	vet  product[vetEntry] // vet findings, computed by the first Vet
}

// emitResult is a cached back-end artifact (C text or printed AST).
type emitResult struct {
	output string
	diags  []string
	ok     bool
	stages StageTimings
}

// CompileRequest describes one translation.
type CompileRequest struct {
	// Name labels diagnostics (it participates in the cache key, since
	// diagnostics embed it).
	Name   string
	Source string
	Exts   parser.Options
	// Emit selects the artifact: "c" (default) or "ast".
	Emit    string
	Codegen cgen.Options
}

// CompileResult is the outcome of a Compile.
type CompileResult struct {
	// Key is the content address of the artifact.
	Key string
	// Cached reports that the pipeline did not execute for this
	// request: the artifact was already stored, or an identical
	// in-flight request produced it.
	Cached      bool
	OK          bool
	Output      string
	Diagnostics []string
	Stages      StageTimings
	// Canceled reports the request's context was already dead on
	// arrival: no pipeline work was started and nothing was cached.
	// A disconnected client costs nothing.
	Canceled bool
}

// RunRequest describes one interpreter execution.
type RunRequest struct {
	Name   string
	Source string
	Exts   parser.Options
	// Threads is the worker-pool size; <= 0 selects
	// runtime.GOMAXPROCS(0), never a silent sequential fallback.
	Threads  int
	MaxSteps int64
	// MaxCells bounds the cells the program may allocate (0 =
	// unlimited); exceeding it fails with the "oom" trap.
	MaxCells int64
	// Dir is the base directory for readMatrix/writeMatrix; empty with
	// non-nil Files confines file I/O to the in-memory map.
	Dir    string
	Files  map[string]*matrix.Matrix
	Stdout io.Writer
	// Engine selects the execution engine: "vm" (the default, also
	// selected by "") runs the register bytecode machine, production's
	// one engine; "tree" runs the tree-walking interpreter, the oracle
	// the differential tests and bench/ compare the VM against.
	Engine string
	// Tenant labels the execution for per-tenant metrics attribution;
	// empty counts as anonymous. It does not participate in cache keys
	// — the artifact a program compiles to is tenant-independent.
	Tenant string
}

// RunResult is the outcome of a Run.
type RunResult struct {
	Key string
	// Cached reports the parse+check half came from the unit cache.
	Cached      bool
	OK          bool
	Diagnostics []string
	ExitCode    int
	Stages      StageTimings
	// Engine is the engine that executed: "vm", or "tree" when the
	// request asked for the oracle.
	Engine string
}

// ErrInternal marks a run that failed through no fault of the program:
// the bytecode compiler bailed on a checked program. The error's text
// names the bail.
var ErrInternal = errors.New("internal error")

// hashKey content-addresses a request: a SHA-256 over length-prefixed
// fields, so no field boundary ambiguity. Fields pass through a small
// stack buffer: sha256's digest has no WriteString, so io.WriteString
// (like h.Write([]byte(p))) would copy every source to the heap.
func hashKey(parts ...string) string {
	h := sha256.New()
	var buf [512]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(buf[:8], uint64(len(p)))
		h.Write(buf[:8])
		for len(p) > 0 {
			n := copy(buf[:], p)
			h.Write(buf[:n])
			p = p[n:]
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func compileKey(req *CompileRequest) string {
	return hashKey("compile", req.Name, req.Source, FormatExtensions(req.Exts),
		req.Emit, string(req.Codegen.Par), fmt.Sprint(req.Codegen.Optimize))
}

// diagBytes is the retained-size contribution of a diagnostic list.
func diagBytes(diags []string) int64 {
	var n int64
	for _, d := range diags {
		n += int64(len(d))
	}
	return n
}

// unitFor returns the slot holding the program unit of (name, src, exts) —
// the slot's key is the unit's content address — parsing and checking
// the source if no request has asked for it yet. cached reports that
// this caller did not execute the frontend.
func (d *Driver) unitFor(name, src string, exts parser.Options) (s *slot[*unit], cached bool) {
	s, how := d.units.lookup(hashKey("front", name, src, FormatExtensions(exts)))
	tally{hit: &d.metrics.FrontendHits, miss: &d.metrics.FrontendMisses}.count(how)
	if how != miss {
		<-s.done
		return s, true
	}
	d.metrics.FrontendExecutions.Add(1)
	u := &unit{}
	var diags source.Diagnostics

	t0 := time.Now()
	u.prog = parser.ParseFile(name, src, exts, &diags)
	parseD := time.Since(t0)
	d.metrics.ParseLatency.Observe(parseD)
	u.stages.ParseNS = int64(parseD)

	if u.prog != nil {
		t1 := time.Now()
		u.info = sem.Check(u.prog, &diags)
		checkD := time.Since(t1)
		d.metrics.CheckLatency.Observe(checkD)
		u.stages.CheckNS = int64(checkD)
	}
	for _, diag := range diags.All() {
		u.diags = append(u.diags, diag.String())
	}
	u.ok = u.prog != nil && !diags.HasErrors()

	d.units.complete(s, u, int64(len(src))+diagBytes(u.diags))
	return s, false
}

// Compile translates req.Source, serving repeated identical requests
// from the artifact cache and coalescing concurrent identical requests
// into one pipeline execution. ctx (nil means background) covers the
// caller's interest in the result: a context already dead on arrival
// returns immediately with Canceled set, and a context that dies while
// the disk tier is being read degrades the read to a miss rather than
// pinning the caller behind a hung disk. The pipeline itself, once
// started, always runs to completion — concurrent identical requests
// share the slot, and one caller's disconnect must not fail the
// others.
func (d *Driver) Compile(ctx context.Context, req CompileRequest) *CompileResult {
	t0 := time.Now()
	defer func() { d.metrics.CompileLatency.Observe(time.Since(t0)) }()
	if req.Emit == "" {
		req.Emit = "c"
	}
	key := compileKey(&req)
	out := &CompileResult{Key: key}
	if ctx != nil && ctx.Err() != nil {
		out.Canceled = true
		out.Diagnostics = []string{fmt.Sprintf("%s: error: compile canceled: %v", req.Name, ctx.Err())}
		return out
	}

	s, how := d.emits.lookup(key)
	tally{&d.metrics.CompileHits, &d.metrics.CompileCoalesced, &d.metrics.CompileMisses}.count(how)
	if how != miss {
		<-s.done
		res := s.res
		out.Cached = true
		out.OK, out.Output, out.Diagnostics, out.Stages = res.ok, res.output, res.diags, res.stages
		return out
	}

	// Second tier: a prior process may have left the artifact on disk.
	// A verified disk object skips the whole pipeline; the result is
	// promoted into the in-memory LRU like any other completed entry.
	if d.disk != nil {
		if art, ok := d.disk.get(ctx, key); ok {
			res := &emitResult{output: art.Output, diags: art.Diags, ok: true}
			d.emits.complete(s, res, int64(len(res.output))+diagBytes(res.diags))
			out.Cached = true
			out.OK, out.Output, out.Diagnostics = res.ok, res.output, res.diags
			return out
		}
	}
	d.metrics.CompileExecutions.Add(1)

	res := &emitResult{}
	us, _ := d.unitFor(req.Name, req.Source, req.Exts)
	fr := &us.res.frontResult
	res.diags = fr.diags
	res.stages = fr.stages
	if fr.ok {
		t1 := time.Now()
		output, err := emit(fr, &req)
		emitD := time.Since(t1)
		d.metrics.EmitLatency.Observe(emitD)
		res.stages.EmitNS = int64(emitD)
		if err != nil {
			res.diags = append(res.diags,
				fmt.Sprintf("%s: error: code generation: %v", fr.prog.Span(), err))
		} else {
			res.output, res.ok = output, true
		}
	}
	d.emits.complete(s, res, int64(len(res.output))+diagBytes(res.diags))
	if d.disk != nil && res.ok {
		d.disk.put(key, &diskArtifact{Output: res.output, Diags: res.diags})
	}

	out.OK, out.Output, out.Diagnostics, out.Stages = res.ok, res.output, res.diags, res.stages
	return out
}

// emit produces the requested artifact from a checked program.
func emit(fr *frontResult, req *CompileRequest) (string, error) {
	switch req.Emit {
	case "ast":
		return ast.Print(fr.prog), nil
	case "c":
		return cgen.Generate(fr.prog, fr.info, req.Codegen)
	default:
		return "", fmt.Errorf("unknown emit kind %q (have: c, ast)", req.Emit)
	}
}

// vmEntry is a bytecode compilation outcome. err records a compiler
// bail, kept on the unit like a program so every run of the unit fails
// at once without compiling again.
type vmEntry struct {
	p   *vm.Program
	err error
}

// bytecode returns u's compiled program, running the bytecode compiler
// (and, inside it, the vet.Facts analysis it consumes as its fusion and
// with-loop legality oracle) on the first call only.
func (d *Driver) bytecode(u *unit) (*vm.Program, error) {
	e, how := u.code.get(func() vmEntry {
		d.metrics.VMCompileTotal.Add(1)
		p, err := vm.Compile(u.prog, u.info)
		if err != nil {
			return vmEntry{err: fmt.Errorf("%w: %v", ErrInternal, err)}
		}
		d.metrics.VMFusedSites.Add(int64(p.FusedSites()))
		d.metrics.VMWithSites.Add(int64(p.WithCompiled()))
		return vmEntry{p: p}
	})
	tally{&d.metrics.VMCacheHits, &d.metrics.VMCacheHits, &d.metrics.VMCacheMisses}.count(how)
	return e.p, e.err
}

// Run parses and checks req.Source through the unit cache, then
// executes it — on the register bytecode machine, or on the
// tree-walking interpreter when req.Engine asks for the oracle. The
// returned error is nil unless execution itself failed (including ctx
// cancellation) or the bytecode compiler bailed (ErrInternal); frontend
// failures are reported through RunResult.OK and Diagnostics.
func (d *Driver) Run(ctx context.Context, req RunRequest) (*RunResult, error) {
	engine := req.Engine
	switch engine {
	case "", "vm":
		engine = "vm"
	case "tree":
	default:
		return &RunResult{}, fmt.Errorf("unknown engine %q (have: vm, tree)", req.Engine)
	}
	s, cached := d.unitFor(req.Name, req.Source, req.Exts)
	u := s.res
	out := &RunResult{Key: s.key, Cached: cached, Diagnostics: u.diags, Stages: u.stages}
	if !u.ok {
		return out, nil
	}
	var prog *vm.Program
	if engine == "vm" {
		p, err := d.bytecode(u)
		if err != nil {
			return out, err
		}
		prog = p
	}
	out.Engine = engine
	threads := req.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	d.metrics.RunsStarted.Add(1)
	d.metrics.countTenantRun(req.Tenant)
	i := interp.New(u.prog, u.info, interp.Options{
		Threads:  threads,
		Stdout:   req.Stdout,
		Dir:      req.Dir,
		MaxSteps: req.MaxSteps,
		MaxCells: req.MaxCells,
		Files:    req.Files,
		Context:  ctx,
	})
	defer i.Close()
	t0 := time.Now()
	var code int
	var err error
	if prog != nil {
		d.metrics.VMExecTotal.Add(1)
		code, err = vm.NewMachine(prog, i).Run()
		d.metrics.VMDispatchNS.Add(int64(time.Since(t0)))
	} else {
		code, err = i.Run()
	}
	runD := time.Since(t0)
	d.metrics.RunLatency.Observe(runD)
	out.Stages.RunNS = int64(runD)
	if err != nil {
		if ctx != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			d.metrics.RunsCancelled.Add(1)
		}
		var rte *interp.RuntimeError
		if errors.As(err, &rte) && rte.Trap != interp.TrapNone {
			d.metrics.RunsTrapped.Add(1)
		}
		return out, err
	}
	out.OK = true
	out.ExitCode = code
	return out, nil
}
