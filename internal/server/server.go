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
	"maps"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/parser"
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
	// DefaultTimeout applies to run requests that specify none; no
	// request gets more than maxTimeout.
	DefaultTimeout time.Duration
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
}

// MaxSourceBytes bounds a request body; the gate (internal/fleet)
// applies the same bound before it forwards one. An artifact a peer
// PUTs may be four times as large.
const MaxSourceBytes = 1 << 20

// maxTimeout clamps the execution timeout a run request may ask for.
const maxTimeout = 60 * time.Second

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

	metrics   Metrics
	startedAt time.Time

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
		admit:     newAdmitter(cfg.MaxConcurrentRuns, cfg.RunQueueSize, cfg.MaxQueueWait, 0),
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
	for s.metrics.InflightRuns.Load() > 0 {
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
				s.metrics.PanicsRecovered.Add(1)
				// Best effort — if the handler already wrote a status
				// this only appends to the body.
				WriteJSON(w, http.StatusInternalServerError,
					ErrorResponse{Error: fmt.Sprintf("internal error: %v", rec)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// countTrap records a trap-coded run failure for /metrics.
func (s *Server) countTrap(code interp.TrapCode) {
	s.metrics.RunTraps.Add(1)
	s.trapMu.Lock()
	s.traps[string(code)]++
	s.trapMu.Unlock()
}

func (s *Server) clientError(w http.ResponseWriter, code int, resp ErrorResponse) {
	s.metrics.ClientErrors.Add(1)
	WriteJSON(w, code, resp)
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
	WriteShed(w, retry, fmt.Sprintf("%v: %s", ErrOverloaded, reason), tenantName)
}

// admitTenant runs the front-door check (AdmitTenant) and counts a
// refusal; ok is false when the refusal has been written.
func (s *Server) admitTenant(w http.ResponseWriter, r *http.Request) (tn *tenant.Tenant, ok bool) {
	tn, refused := AdmitTenant(w, r, s.cfg.Tenants, s.cfg.TrustGateHeader)
	switch refused {
	case 0:
		return tn, true
	case http.StatusTooManyRequests:
		s.metrics.RateLimited.Add(1)
	default:
		s.metrics.AuthRefused.Add(1)
		s.metrics.ClientErrors.Add(1)
	}
	return nil, false
}

// decode parses a JSON body into v, enforcing the size limit.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, MaxSourceBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.clientError(w, http.StatusBadRequest, ErrorResponse{Error: "bad request: " + err.Error()})
		return false
	}
	return true
}

// decodeHead decodes a verb's body into v and resolves its head (a
// field of v); ok is false when the 400 has been written.
func (s *Server) decodeHead(w http.ResponseWriter, r *http.Request, v any, head *Head) (name string, exts parser.Options, ok bool) {
	if !s.decode(w, r, v) {
		return "", exts, false
	}
	name, exts, err := head.Resolve()
	if err != nil {
		s.clientError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return "", exts, false
	}
	return name, exts, true
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		WriteJSON(w, http.StatusMethodNotAllowed,
			ErrorResponse{Error: fmt.Sprintf("method %s not allowed", r.Method)})
		return false
	}
	return true
}

// --- handlers ---

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.metrics.CompileRequests.Add(1)
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	if _, ok := s.admitTenant(w, r); !ok {
		return
	}
	var req CompileRequest
	name, exts, ok := s.decodeHead(w, r, &req, &req.Head)
	if !ok {
		return
	}
	dreq, err := req.driverRequest(name, exts)
	if err != nil {
		s.clientError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}

	// The request context rides into the driver: a client that is
	// already gone costs nothing, and one that disappears mid-request
	// cannot pin its slot behind a hung disk read.
	res := s.d.Compile(r.Context(), dreq)
	if res.Canceled {
		WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "client went away"})
		return
	}
	if !res.OK {
		// Source the pipeline rejected: the parser's error-recovery
		// diagnostics (and any semantic errors) ride in the body.
		s.clientError(w, http.StatusUnprocessableEntity, ErrorResponse{
			Error: "compilation failed", Diagnostics: res.Diagnostics,
		})
		return
	}
	WriteJSON(w, http.StatusOK, CompileResponse{
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
			ErrorResponse{Error: "malformed artifact key (want 64 hex bytes)"})
		return
	}
	switch r.Method {
	case http.MethodGet:
		raw, ok := s.d.ExportArtifact(r.Context(), key)
		if !ok {
			WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: "no artifact under key"})
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		w.Write(raw)
	case http.MethodPut:
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxSourceBytes*4))
		if err != nil {
			s.clientError(w, http.StatusBadRequest, ErrorResponse{Error: "artifact body: " + err.Error()})
			return
		}
		if err := s.d.ImportArtifact(key, raw); err != nil {
			s.clientError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, PUT")
		WriteJSON(w, http.StatusMethodNotAllowed,
			ErrorResponse{Error: fmt.Sprintf("method %s not allowed", r.Method)})
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.metrics.RunRequests.Add(1)
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	tn, ok := s.admitTenant(w, r)
	if !ok {
		return
	}
	var req RunRequest
	name, exts, ok := s.decodeHead(w, r, &req, &req.Head)
	if !ok {
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	timeout = min(timeout, maxTimeout)
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
		WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "client went away while queued"})
		return
	default:
		s.shedResponse(w, admit, tenantName)
		return
	}
	s.metrics.InflightRuns.Add(1)
	defer s.metrics.InflightRuns.Add(-1)
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
		if errors.Is(err, driver.ErrInternal) {
			// The service's failure, not the client's: a 500 with the text.
			WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
			return
		}
		if ctx.Err() != nil {
			s.metrics.RunTimeouts.Add(1)
			WriteJSON(w, http.StatusGatewayTimeout, ErrorResponse{
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
			s.clientError(w, http.StatusUnprocessableEntity, ErrorResponse{
				Error:       fmt.Sprintf("execution trapped: %v", err),
				Diagnostics: res.Diagnostics,
				Trap:        string(rte.Trap),
				Span:        rte.SpanString(),
			})
			return
		}
		s.clientError(w, http.StatusUnprocessableEntity, ErrorResponse{
			Error: fmt.Sprintf("execution failed: %v", err), Diagnostics: res.Diagnostics,
		})
		return
	}
	if !res.OK {
		s.clientError(w, http.StatusUnprocessableEntity, ErrorResponse{
			Error: "compilation failed", Diagnostics: res.Diagnostics,
		})
		return
	}
	WriteJSON(w, http.StatusOK, RunResponse{
		Key: res.Key, Cached: res.Cached, Engine: res.Engine, ExitCode: res.ExitCode,
		Stdout: stdout.String(), Diagnostics: res.Diagnostics,
		Stages: res.Stages, DurationMS: float64(dur) / float64(time.Millisecond),
	})
}

func (s *Server) handleVet(w http.ResponseWriter, r *http.Request) {
	s.metrics.VetRequests.Add(1)
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	if _, ok := s.admitTenant(w, r); !ok {
		return
	}
	var req VetRequest
	name, exts, ok := s.decodeHead(w, r, &req, &req.Head)
	if !ok {
		return
	}

	res := s.d.Vet(driver.VetRequest{Name: name, Source: req.Source, Exts: exts})
	resp := VetResponse{
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
		s.metrics.ClientErrors.Add(1)
		WriteJSON(w, http.StatusUnprocessableEntity, resp)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAnalyses(w http.ResponseWriter, r *http.Request) {
	s.metrics.AnalysesRequests.Add(1)
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	WriteJSON(w, http.StatusOK, driver.Analyses())
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
	WriteJSON(w, http.StatusOK, healthzResponse{
		Status:       status,
		QueueDepth:   s.admit.queued.Load(),
		RecentSheds:  recent,
		InflightRuns: s.metrics.InflightRuns.Load(),
	})
}

// Metrics is the server's live counters; through its json tags it is
// also the top level of the /metrics document, so a counter is declared
// here once.
type Metrics struct {
	CompileRequests  obs.Counter `json:"compile_requests"`
	RunRequests      obs.Counter `json:"run_requests"`
	VetRequests      obs.Counter `json:"vet_requests"`
	AnalysesRequests obs.Counter `json:"analyses_requests"`
	ClientErrors     obs.Counter `json:"client_errors"`
	RunTimeouts      obs.Counter `json:"run_timeouts"`
	InflightRuns     obs.Counter `json:"inflight_runs"` // gauge

	// Tenancy: refusals at the front door.
	RateLimited obs.Counter `json:"rate_limited"`
	AuthRefused obs.Counter `json:"auth_refused"`

	// Crash-proofing: trap-coded run failures and handler panics
	// absorbed by the recover middleware.
	RunTraps        obs.Counter `json:"run_traps"`
	PanicsRecovered obs.Counter `json:"panics_recovered"`
}

// MetricsDoc is the /metrics JSON document: the live counters (by
// reference) plus what is configuration, owned by admission control or
// the registry, or another layer's document.
type MetricsDoc struct {
	*Metrics
	UptimeSeconds float64 `json:"uptime_seconds"`
	MaxRuns       int     `json:"max_concurrent_runs"`

	// Admission control: current waiters, the queue's capacity, and
	// requests refused with 429 (cumulative).
	RunQueueDepth int64 `json:"run_queue_depth"`
	RunQueueMax   int   `json:"run_queue_max"`
	RunsShed      int64 `json:"runs_shed"`

	// The live key-file generation (0 = no registry) and per-tenant
	// admission rows.
	TenantGeneration int64                `json:"tenant_generation,omitempty"`
	Tenants          []TenantAdmissionRow `json:"tenants,omitempty"`

	// Trap-coded run failures by code.
	Traps map[string]int64 `json:"traps,omitempty"`

	Driver driver.MetricsDoc `json:"driver"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	s.trapMu.Lock()
	traps := maps.Clone(s.traps)
	s.trapMu.Unlock()
	WriteJSON(w, http.StatusOK, MetricsDoc{
		Metrics:          &s.metrics,
		UptimeSeconds:    time.Since(s.startedAt).Seconds(),
		MaxRuns:          s.cfg.MaxConcurrentRuns,
		RunQueueDepth:    s.admit.queued.Load(),
		RunQueueMax:      s.cfg.RunQueueSize,
		RunsShed:         s.admit.shed.Load(),
		TenantGeneration: s.cfg.Tenants.Generation(),
		Tenants:          s.admit.tenantRows(),
		Traps:            traps,
		Driver:           s.d.MetricsSnapshot(),
	})
}
