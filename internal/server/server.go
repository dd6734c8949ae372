// Package server turns the driver pipeline into
// compilation-as-a-service: an HTTP JSON API serving concurrent
// compile and run requests over one shared content-addressed cache.
//
// Endpoints:
//
//	POST /v1/compile   translate extended-C to parallel C (or AST)
//	POST /v1/run       execute a program on the parallel interpreter
//	POST /v1/vet       cmvet static analysis: structured findings
//	GET  /v1/analyses  the §VI modular analysis report (memoized)
//	GET  /v1/artifact/{key}  export a compile artifact to a fleet peer
//	PUT  /v1/artifact/{key}  import a digest-verified peer artifact
//	GET  /healthz      liveness probe (also the cmgate shard probe)
//	GET  /metrics      request counters, cache ratios, stage latencies
//
// Interpreter executions go through admission control (admission.go):
// MaxConcurrentRuns execute, a bounded deadline-aware queue waits, and
// everything beyond that is shed with 429 + Retry-After instead of
// pinning a goroutine — aggregate overload degrades service, never
// availability. Admitted runs execute under a per-request deadline
// threaded into the interpreter's eval loop via context.Context, so a
// runaway program times out without taking the server down. Run
// requests touch no server filesystem: readMatrix and writeMatrix are
// confined to an in-memory, per-request file map.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cgen"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/source"
	"repro/internal/tenant"
)

// Config parameterizes a Server. Zero values select the defaults.
type Config struct {
	// Driver is the shared pipeline + cache (required; New fills in a
	// fresh one if nil).
	Driver *driver.Driver
	// MaxConcurrentRuns bounds simultaneous interpreter executions;
	// defaults to runtime.GOMAXPROCS(0), the internal/par pool's own
	// default worker count.
	MaxConcurrentRuns int
	// DefaultTimeout applies to run requests that specify none;
	// MaxTimeout clamps what a request may ask for.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxSourceBytes bounds request bodies (default 1 MiB).
	MaxSourceBytes int64
	// MaxCells caps the matrix cells one run may allocate; requests
	// asking for more (or for nothing) are clamped to it. Defaults to
	// 1<<26 cells (512 MiB of float64), so one adversarial genarray
	// cannot OOM the daemon.
	MaxCells int64
	// RunQueueSize bounds how many run requests may wait for a slot
	// beyond the MaxConcurrentRuns executing; arrivals past it are shed
	// with 429. Defaults to 4×MaxConcurrentRuns.
	RunQueueSize int
	// MaxQueueWait caps how long a request may wait for admission
	// (each request actually waits min(MaxQueueWait, its own execution
	// timeout) — a run that cannot start before its deadline is shed,
	// not left to occupy the queue). Defaults to DefaultTimeout.
	MaxQueueWait time.Duration
	// ShardID, when set, labels this instance in an X-CM-Shard response
	// header on every reply. The cmgate router and the chaos harness use
	// it to attribute responses to fleet members.
	ShardID string
	// Tenants is the API-key registry (tenant.LoadFile). Nil keeps the
	// pre-tenancy zero-config behavior: every request is the anonymous
	// tenant, nothing is authenticated or rate-limited.
	Tenants *tenant.Registry
	// TrustGateHeader accepts the cmgate-stamped X-CM-Tenant identity
	// header instead of requiring a key on every routed request. Enable
	// only when the daemon is reachable exclusively through the gate —
	// the header is trivially forgeable on an open port.
	TrustGateHeader bool
	// MinRetryAfter floors the Retry-After estimate on shed responses
	// (default 50ms) so a server with no latency history never invites
	// an immediate retry storm.
	MinRetryAfter time.Duration
}

// TestHookRunBarrier, when non-nil, is called by handleRun while its
// admission slot is held, before execution. Chaos tests use it to pin
// runs at a barrier so queue occupancy is exact and observable; nil in
// production.
var TestHookRunBarrier func()

// Server handles the HTTP API over a shared driver.
type Server struct {
	cfg   Config
	d     *driver.Driver
	admit *admitter

	compileReqs  atomic.Int64
	runReqs      atomic.Int64
	vetReqs      atomic.Int64
	analysesReqs atomic.Int64
	clientErrors atomic.Int64
	runTimeouts  atomic.Int64
	inflightRuns atomic.Int64
	runTraps     atomic.Int64
	panicsCaught atomic.Int64
	rateLimited  atomic.Int64
	authRefused  atomic.Int64
	startedAt    time.Time

	trapMu sync.Mutex
	traps  map[string]int64 // per-TrapCode counts
}

// New builds a server; see Config for defaults.
func New(cfg Config) *Server {
	if cfg.Driver == nil {
		cfg.Driver = driver.New()
	}
	if cfg.MaxConcurrentRuns <= 0 {
		cfg.MaxConcurrentRuns = runtime.GOMAXPROCS(0)
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 60 * time.Second
	}
	if cfg.MaxSourceBytes <= 0 {
		cfg.MaxSourceBytes = 1 << 20
	}
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = 1 << 26
	}
	if cfg.RunQueueSize <= 0 {
		cfg.RunQueueSize = 4 * cfg.MaxConcurrentRuns
	}
	if cfg.MaxQueueWait <= 0 {
		cfg.MaxQueueWait = cfg.DefaultTimeout
	}
	return &Server{
		cfg:       cfg,
		d:         cfg.Driver,
		admit:     newAdmitter(cfg.MaxConcurrentRuns, cfg.RunQueueSize, cfg.MaxQueueWait, cfg.MinRetryAfter),
		startedAt: time.Now(),
		traps:     map[string]int64{},
	}
}

// Drain puts the server into graceful-shutdown mode: in-flight runs
// finish, queued runs are shed immediately with 429, and new run
// requests are shed on arrival. It returns when no runs remain in
// flight or ctx expires, whichever is first. Call before closing the
// HTTP listener so clients get structured sheds instead of connection
// resets.
func (s *Server) Drain(ctx context.Context) error {
	s.admit.drain()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for s.inflightRuns.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	return nil
}

// Handler returns the route mux wrapped in the recover middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", s.handleCompile)
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/vet", s.handleVet)
	mux.HandleFunc("/v1/analyses", s.handleAnalyses)
	mux.HandleFunc("/v1/artifact/", s.handleArtifact)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	var h http.Handler = mux
	if s.cfg.ShardID != "" {
		h = s.withShardID(h)
	}
	return s.withRecover(h)
}

// withShardID stamps every response with this instance's fleet
// identity, before the handler writes the status line.
func (s *Server) withShardID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-CM-Shard", s.cfg.ShardID)
		next.ServeHTTP(w, r)
	})
}

// withRecover is the last-resort backstop: the interpreter's trap
// layer should convert every program failure into an error, but if a
// panic ever escapes a handler anyway it is counted and answered with
// a 500 instead of killing the daemon's connection goroutine
// unhandled.
func (s *Server) withRecover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panicsCaught.Add(1)
				// Best effort — if the handler already wrote a status
				// this only appends to the body.
				writeJSON(w, http.StatusInternalServerError,
					errorResponse{Error: fmt.Sprintf("internal error: %v", rec)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// countTrap records a trap-coded run failure for /metrics.
func (s *Server) countTrap(code interp.TrapCode) {
	s.runTraps.Add(1)
	s.trapMu.Lock()
	s.traps[string(code)]++
	s.trapMu.Unlock()
}

func (s *Server) trapSnapshot() map[string]int64 {
	s.trapMu.Lock()
	defer s.trapMu.Unlock()
	if len(s.traps) == 0 {
		return nil
	}
	out := make(map[string]int64, len(s.traps))
	for k, v := range s.traps {
		out[k] = v
	}
	return out
}

// --- request/response shapes ---

type compileRequest struct {
	// Name labels diagnostics (default "request.xc").
	Name   string `json:"name,omitempty"`
	Source string `json:"source"`
	// Extensions is the -ext syntax: "matrix,transform,rc,cilk", "all",
	// "none" (default "all").
	Extensions string `json:"extensions,omitempty"`
	// Emit is "c" (default) or "ast".
	Emit string `json:"emit,omitempty"`
	// Par is "pthread" (default), "omp" or "none".
	Par string `json:"par,omitempty"`
	// Optimize enables the §III-A.4 optimizations (default true).
	Optimize *bool `json:"optimize,omitempty"`
}

type compileResponse struct {
	Key         string              `json:"key"`
	Cached      bool                `json:"cached"`
	Output      string              `json:"output"`
	Diagnostics []string            `json:"diagnostics,omitempty"`
	Stages      driver.StageTimings `json:"stages"`
}

type runRequest struct {
	Name       string `json:"name,omitempty"`
	Source     string `json:"source"`
	Extensions string `json:"extensions,omitempty"`
	// Threads sizes the worker pool; <= 0 selects GOMAXPROCS.
	Threads int `json:"threads,omitempty"`
	// TimeoutMS is the execution deadline (default/clamped by server
	// config).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxSteps bounds interpreter steps (0 = unlimited).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// MaxCells bounds matrix cells the run may allocate; 0 or a value
	// above the server's cap selects the cap.
	MaxCells int64 `json:"max_cells,omitempty"`
}

type runResponse struct {
	Key    string `json:"key"`
	Cached bool   `json:"cached"`
	// Engine is the engine that executed: "vm", or "tree" when the
	// bytecode compiler declined the program and the run fell back.
	Engine      string              `json:"engine"`
	ExitCode    int                 `json:"exit_code"`
	Stdout      string              `json:"stdout"`
	Diagnostics []string            `json:"diagnostics,omitempty"`
	Stages      driver.StageTimings `json:"stages"`
	DurationMS  float64             `json:"duration_ms"`
}

type vetRequest struct {
	Name       string `json:"name,omitempty"`
	Source     string `json:"source"`
	Extensions string `json:"extensions,omitempty"`
}

// vetResponse is the /v1/vet document, returned with 200 when the
// program passes (no error-severity findings) and 422 when it is
// rejected — the structured findings ride along either way. Findings
// carry stable codes (CM-SHAPE-*, CM-RC-*, CM-RACE, CM-SYNC-MISSING,
// CM-SPAWN-DEAD, ...; see the README's diagnostic table); race
// findings include a related span marking the outstanding spawn.
type vetResponse struct {
	Key         string              `json:"key"`
	Cached      bool                `json:"cached"`
	OK          bool                `json:"ok"`
	Findings    []source.Diagnostic `json:"findings"`
	Errors      int                 `json:"errors"`
	Diagnostics []string            `json:"diagnostics,omitempty"`
	Stages      driver.StageTimings `json:"stages"`
}

type errorResponse struct {
	Error       string   `json:"error"`
	Diagnostics []string `json:"diagnostics,omitempty"`
	// Trap is the stable trap code ("shape", "rc", "oom", "step",
	// "depth", "panic") when execution hit the crash-proofing layer;
	// Span is the source position of the failing construct.
	Trap string `json:"trap,omitempty"`
	Span string `json:"span,omitempty"`
	// RetryAfterMS accompanies a 429 shed: the server's estimate of
	// when capacity will free up (also sent as a Retry-After header,
	// in whole seconds). Tenant names the authenticated tenant the
	// refusal applies to.
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	Tenant       string `json:"tenant,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func (s *Server) clientError(w http.ResponseWriter, code int, resp errorResponse) {
	s.clientErrors.Add(1)
	writeJSON(w, code, resp)
}

// shedResponse answers a load-shed run request: 429, a Retry-After
// header, and retry_after_ms in the body. The retry estimate scales
// with queue depth × observed mean run latency; quota sheds name the
// tenant so a noisy client's logs say whose limit was hit.
func (s *Server) shedResponse(w http.ResponseWriter, res admitResult, tenantName string) {
	retry := s.admit.retryAfter(s.d.Metrics().RunLatency.Snapshot().MeanUS / 1e3)
	reason := "run queue full"
	switch res {
	case shedDeadline:
		reason = "not admitted before the request deadline"
	case shedDraining:
		reason = "server draining for shutdown"
	case shedTenantQuota:
		reason = fmt.Sprintf("tenant %q concurrency quota exhausted", tenantName)
	}
	writeRetryAfter(w, retry)
	writeJSON(w, http.StatusTooManyRequests, errorResponse{
		Error:        fmt.Sprintf("%v: %s", ErrOverloaded, reason),
		Tenant:       tenantName,
		RetryAfterMS: int64(retry / time.Millisecond),
	})
}

// writeRetryAfter sets the header form of a backoff estimate (whole
// seconds, rounded up so it is never 0).
func writeRetryAfter(w http.ResponseWriter, retry time.Duration) {
	w.Header().Set("Retry-After", fmt.Sprint(int64((retry+time.Second-1)/time.Second)))
}

// resolveTenant authenticates a request against the key registry and
// charges the tenant's token bucket. With no registry configured it is
// a no-op returning a nil tenant (anonymous, unlimited). Requests that
// arrived through a trusted gate are identified by the X-CM-Tenant
// stamp and NOT charged again — the gate already spent a token. On a
// refusal (401 unknown key, 403 disabled tenant, 429 over rate) the
// structured response has been written and ok is false.
func (s *Server) resolveTenant(w http.ResponseWriter, r *http.Request) (tn *tenant.Tenant, ok bool) {
	tn, viaGate, err := s.cfg.Tenants.Resolve(r, s.cfg.TrustGateHeader)
	if err != nil {
		s.authRefused.Add(1)
		status := http.StatusUnauthorized
		var ae *tenant.AuthError
		if errors.As(err, &ae) {
			status = ae.Status
		}
		s.clientError(w, status, errorResponse{Error: err.Error()})
		return nil, false
	}
	if tn == nil || viaGate {
		return tn, true
	}
	if allow, retry := tn.Take(); !allow {
		s.rateLimited.Add(1)
		writeRetryAfter(w, retry)
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error:        fmt.Sprintf("tenant %q over rate limit", tn.Name()),
			Tenant:       tn.Name(),
			RetryAfterMS: int64(retry / time.Millisecond),
		})
		return nil, false
	}
	return tn, true
}

// decode parses a JSON body into v, enforcing the size limit.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.clientError(w, http.StatusBadRequest, errorResponse{Error: "bad request: " + err.Error()})
		return false
	}
	return true
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeJSON(w, http.StatusMethodNotAllowed,
			errorResponse{Error: fmt.Sprintf("method %s not allowed", r.Method)})
		return false
	}
	return true
}

// --- handlers ---

// buildCompileRequest maps the wire-format compile body (already
// decoded JSON) to the driver request, applying the handler's
// defaults. CompileKeyForBody builds on it so the cmgate router
// derives the same content-addressed cache key the shard will store
// the artifact under — the address peer cache-fill moves objects by.
func buildCompileRequest(req compileRequest) (driver.CompileRequest, error) {
	if req.Source == "" {
		return driver.CompileRequest{}, errors.New(`missing "source"`)
	}
	name := req.Name
	if name == "" {
		name = "request.xc"
	}
	if req.Extensions == "" {
		req.Extensions = "all"
	}
	exts, err := driver.ParseExtensions(req.Extensions)
	if err != nil {
		return driver.CompileRequest{}, err
	}
	if req.Par == "" {
		req.Par = "pthread"
	}
	par, err := driver.ParseParMode(req.Par)
	if err != nil {
		return driver.CompileRequest{}, err
	}
	if req.Emit != "" && req.Emit != "c" && req.Emit != "ast" {
		return driver.CompileRequest{}, fmt.Errorf("unknown emit kind %q (have: c, ast)", req.Emit)
	}
	optimize := req.Optimize == nil || *req.Optimize
	return driver.CompileRequest{
		Name: name, Source: req.Source, Exts: exts, Emit: req.Emit,
		Codegen: cgen.Options{Par: par, Optimize: optimize},
	}, nil
}

// CompileKeyForBody derives the artifact cache key for a raw compile
// request body, without compiling anything. The router uses it for
// peer cache-fill; ok is false when the body does not decode to a
// valid compile request (the shard will reject it with a 400 anyway).
func CompileKeyForBody(raw []byte) (key string, ok bool) {
	var req compileRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return "", false
	}
	dreq, err := buildCompileRequest(req)
	if err != nil {
		return "", false
	}
	return driver.CompileCacheKey(dreq), true
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.compileReqs.Add(1)
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	if _, ok := s.resolveTenant(w, r); !ok {
		return
	}
	var req compileRequest
	if !s.decode(w, r, &req) {
		return
	}
	dreq, err := buildCompileRequest(req)
	if err != nil {
		s.clientError(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	// The request context rides into the driver: a client that is
	// already gone costs nothing, and one that disappears mid-request
	// cannot pin its slot behind a hung disk read.
	res := s.d.Compile(r.Context(), dreq)
	if res.Canceled {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "client went away"})
		return
	}
	if !res.OK {
		// Source the pipeline rejected: the parser's error-recovery
		// diagnostics (and any semantic errors) ride in the body.
		s.clientError(w, http.StatusUnprocessableEntity, errorResponse{
			Error: "compilation failed", Diagnostics: res.Diagnostics,
		})
		return
	}
	writeJSON(w, http.StatusOK, compileResponse{
		Key: res.Key, Cached: res.Cached, Output: res.Output,
		Diagnostics: res.Diagnostics, Stages: res.Stages,
	})
}

// handleArtifact is the fleet transfer endpoint:
//
//	GET /v1/artifact/{key}  digest-framed artifact bytes, or 404
//	PUT /v1/artifact/{key}  install a verified peer artifact, 204
//
// GET serves from the memory tier first, then the disk tier; PUT
// re-verifies the embedded digest before anything is installed, so a
// corrupted or hostile peer object can never poison the cache. Both
// directions exist for cmgate's peer cache-fill: after a shard loss
// the router copies artifacts to a key's new owner instead of letting
// it recompile.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/v1/artifact/")
	if !driver.ValidArtifactKey(key) {
		s.clientError(w, http.StatusBadRequest,
			errorResponse{Error: "malformed artifact key (want 64 hex bytes)"})
		return
	}
	switch r.Method {
	case http.MethodGet:
		raw, ok := s.d.ExportArtifact(r.Context(), key)
		if !ok {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "no artifact under key"})
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		w.Write(raw)
	case http.MethodPut:
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes*4))
		if err != nil {
			s.clientError(w, http.StatusBadRequest, errorResponse{Error: "artifact body: " + err.Error()})
			return
		}
		if err := s.d.ImportArtifact(key, raw); err != nil {
			s.clientError(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, PUT")
		writeJSON(w, http.StatusMethodNotAllowed,
			errorResponse{Error: fmt.Sprintf("method %s not allowed", r.Method)})
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.runReqs.Add(1)
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	tn, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	var req runRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Source == "" {
		s.clientError(w, http.StatusBadRequest, errorResponse{Error: `missing "source"`})
		return
	}
	name := req.Name
	if name == "" {
		name = "request.xc"
	}
	if req.Extensions == "" {
		req.Extensions = "all"
	}
	exts, err := driver.ParseExtensions(req.Extensions)
	if err != nil {
		s.clientError(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	maxCells := req.MaxCells
	if maxCells <= 0 || maxCells > s.cfg.MaxCells {
		maxCells = s.cfg.MaxCells
	}
	// The tenant's own cell cap clamps below the server-wide cap: a
	// request asking for more is clamped, not refused, mirroring how
	// the server cap has always behaved.
	tenantName, quota := tenant.Anonymous, tenant.Quota{}
	if tn != nil {
		tenantName, quota = tn.Name(), tn.Quota()
	}
	if quota.MaxCells > 0 && maxCells > quota.MaxCells {
		maxCells = quota.MaxCells
	}

	// Admission control: acquire an execution slot through the bounded,
	// deadline-aware, tenant-partitioned run queue, or shed now with a
	// structured backpressure signal (see admission.go).
	release, admit := s.admit.admitTenant(r.Context(), tenantName, quota, timeout)
	switch admit {
	case admitted:
		defer release()
	case clientGone:
		// The caller disconnected while queued; nothing useful can be
		// written, and it is not a shed — the server did not refuse work.
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "client went away while queued"})
		return
	default:
		s.shedResponse(w, admit, tenantName)
		return
	}
	s.inflightRuns.Add(1)
	defer s.inflightRuns.Add(-1)
	if hook := TestHookRunBarrier; hook != nil {
		hook()
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	var stdout bytes.Buffer
	t0 := time.Now()
	res, err := s.d.Run(ctx, driver.RunRequest{
		Name: name, Source: req.Source, Exts: exts,
		Threads: req.Threads, MaxSteps: req.MaxSteps, MaxCells: maxCells,
		Tenant: tenantName,
		// No Dir + non-nil Files: file I/O stays in this request-local
		// in-memory map, never the server's filesystem.
		Files:  map[string]*matrix.Matrix{},
		Stdout: &stdout,
	})
	dur := time.Since(t0)
	if err != nil {
		if ctx.Err() != nil {
			s.runTimeouts.Add(1)
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{
				Error: fmt.Sprintf("execution timed out after %s: %v", timeout, err),
			})
			return
		}
		// Trap-coded failures get a structured response: the stable
		// code plus the failing construct's source span, so clients
		// can dispatch without parsing the message.
		var rte *interp.RuntimeError
		if errors.As(err, &rte) && rte.Trap != interp.TrapNone {
			s.countTrap(rte.Trap)
			s.clientError(w, http.StatusUnprocessableEntity, errorResponse{
				Error:       fmt.Sprintf("execution trapped: %v", err),
				Diagnostics: res.Diagnostics,
				Trap:        string(rte.Trap),
				Span:        rte.SpanString(),
			})
			return
		}
		s.clientError(w, http.StatusUnprocessableEntity, errorResponse{
			Error: fmt.Sprintf("execution failed: %v", err), Diagnostics: res.Diagnostics,
		})
		return
	}
	if !res.OK {
		s.clientError(w, http.StatusUnprocessableEntity, errorResponse{
			Error: "compilation failed", Diagnostics: res.Diagnostics,
		})
		return
	}
	writeJSON(w, http.StatusOK, runResponse{
		Key: res.Key, Cached: res.Cached, Engine: res.Engine, ExitCode: res.ExitCode,
		Stdout: stdout.String(), Diagnostics: res.Diagnostics,
		Stages: res.Stages, DurationMS: float64(dur) / float64(time.Millisecond),
	})
}

func (s *Server) handleVet(w http.ResponseWriter, r *http.Request) {
	s.vetReqs.Add(1)
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	if _, ok := s.resolveTenant(w, r); !ok {
		return
	}
	var req vetRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Source == "" {
		s.clientError(w, http.StatusBadRequest, errorResponse{Error: `missing "source"`})
		return
	}
	name := req.Name
	if name == "" {
		name = "request.xc"
	}
	if req.Extensions == "" {
		req.Extensions = "all"
	}
	exts, err := driver.ParseExtensions(req.Extensions)
	if err != nil {
		s.clientError(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	res := s.d.Vet(driver.VetRequest{Name: name, Source: req.Source, Exts: exts})
	resp := vetResponse{
		Key: res.Key, Cached: res.Cached, OK: res.OK,
		Findings: res.Findings, Errors: res.Errors,
		Diagnostics: res.Diagnostics, Stages: res.Stages,
	}
	if resp.Findings == nil {
		resp.Findings = []source.Diagnostic{}
	}
	if !res.OK {
		// Rejected program — frontend errors or error-severity findings.
		// The structured findings still ride in the body so clients can
		// show spans and codes.
		s.clientErrors.Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAnalyses(w http.ResponseWriter, r *http.Request) {
	s.analysesReqs.Add(1)
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, driver.Analyses())
}

// healthzResponse is the liveness document. Status is "ok" or
// "degraded": degraded means the daemon is alive and serving (still
// 200) but has shed runs within the last shedWindowSeconds — a signal
// for load balancers to prefer other replicas and for operators to
// look at queue sizing.
type healthzResponse struct {
	Status       string `json:"status"`
	QueueDepth   int64  `json:"run_queue_depth"`
	RecentSheds  int64  `json:"recent_sheds"`
	InflightRuns int64  `json:"inflight_runs"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	recent := s.admit.recentSheds()
	status := "ok"
	if recent > 0 {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:       status,
		QueueDepth:   s.admit.queued.Load(),
		RecentSheds:  recent,
		InflightRuns: s.inflightRuns.Load(),
	})
}

// metricsSnapshot is the /metrics JSON document.
type metricsSnapshot struct {
	UptimeSeconds   float64 `json:"uptime_seconds"`
	CompileRequests int64   `json:"compile_requests"`
	RunRequests     int64   `json:"run_requests"`
	VetRequests     int64   `json:"vet_requests"`
	AnalysisReqs    int64   `json:"analyses_requests"`
	ClientErrors    int64   `json:"client_errors"`
	RunTimeouts     int64   `json:"run_timeouts"`
	InflightRuns    int64   `json:"inflight_runs"`
	MaxRuns         int     `json:"max_concurrent_runs"`

	// Admission control: current waiters, the queue's capacity, and
	// requests refused with 429 (cumulative).
	RunQueueDepth int64 `json:"run_queue_depth"`
	RunQueueMax   int   `json:"run_queue_max"`
	RunsShed      int64 `json:"runs_shed"`

	// Tenancy: refusals at the front door, the live key-file
	// generation (0 = no registry), and per-tenant admission rows.
	RateLimited      int64                `json:"rate_limited"`
	AuthRefused      int64                `json:"auth_refused"`
	TenantGeneration int64                `json:"tenant_generation,omitempty"`
	Tenants          []TenantAdmissionRow `json:"tenants,omitempty"`

	// Crash-proofing counters: trap-coded run failures (total and by
	// code) and handler panics absorbed by the recover middleware.
	RunTraps        int64            `json:"run_traps"`
	Traps           map[string]int64 `json:"traps,omitempty"`
	PanicsRecovered int64            `json:"panics_recovered"`

	Driver driver.MetricsSnapshot `json:"driver"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, metricsSnapshot{
		UptimeSeconds:    time.Since(s.startedAt).Seconds(),
		CompileRequests:  s.compileReqs.Load(),
		RunRequests:      s.runReqs.Load(),
		VetRequests:      s.vetReqs.Load(),
		AnalysisReqs:     s.analysesReqs.Load(),
		ClientErrors:     s.clientErrors.Load(),
		RunTimeouts:      s.runTimeouts.Load(),
		InflightRuns:     s.inflightRuns.Load(),
		MaxRuns:          s.cfg.MaxConcurrentRuns,
		RunQueueDepth:    s.admit.queued.Load(),
		RunQueueMax:      s.cfg.RunQueueSize,
		RunsShed:         s.admit.shed.Load(),
		RateLimited:      s.rateLimited.Load(),
		AuthRefused:      s.authRefused.Load(),
		TenantGeneration: s.cfg.Tenants.Generation(),
		Tenants:          s.admit.tenantRows(),
		RunTraps:         s.runTraps.Load(),
		Traps:            s.trapSnapshot(),
		PanicsRecovered:  s.panicsCaught.Load(),
		Driver:           s.d.MetricsSnapshot(),
	})
}
