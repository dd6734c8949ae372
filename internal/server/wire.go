// The wire contract, declared once: the JSON bodies of the compile,
// run and vet verbs, the one error body, the request head every verb
// shares with its normalisation, and the front-door tenant check. The
// shard's handlers, the cmgate router and cmrun -server all use these
// declarations; none keeps a mirror.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cgen"
	"repro/internal/driver"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/tenant"
)

// Head is the prefix compile, run and vet requests share; it is all the
// router needs to place a request on the ring.
type Head struct {
	// Name labels diagnostics (Resolve supplies the default).
	Name   string `json:"name,omitempty"`
	Source string `json:"source"`
	// Extensions is the -ext syntax: "matrix,transform,rc,cilk", "all",
	// "none" (Resolve supplies the default, every extension).
	Extensions string `json:"extensions,omitempty"`
}

// Resolve applies the request defaults and parses the extension set. It
// is the one normalisation: the handlers, the router's ring placement
// and the artifact key all see the same name and extensions.
func (h Head) Resolve() (name string, exts parser.Options, err error) {
	if h.Source == "" {
		return "", exts, errors.New(`missing "source"`)
	}
	name, spec := h.Name, h.Extensions
	if name == "" {
		name = "request.xc"
	}
	if spec == "" {
		spec = "all"
	}
	exts, err = driver.ParseExtensions(spec)
	return name, exts, err
}

// CompileRequest is the /v1/compile body.
type CompileRequest struct {
	Head
	// Emit is "c" (default) or "ast".
	Emit string `json:"emit,omitempty"`
	// Par is "pthread" (default), "omp" or "none".
	Par string `json:"par,omitempty"`
	// Optimize enables the §III-A.4 optimizations (default true).
	Optimize *bool `json:"optimize,omitempty"`
}

type CompileResponse struct {
	Key         string              `json:"key"`
	Cached      bool                `json:"cached"`
	Output      string              `json:"output"`
	Diagnostics []string            `json:"diagnostics,omitempty"`
	Stages      driver.StageTimings `json:"stages"`
}

// RunRequest is the /v1/run body.
type RunRequest struct {
	Head
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

type RunResponse struct {
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

// VetRequest is the /v1/vet body: the head alone.
type VetRequest struct{ Head }

// VetResponse is the /v1/vet document, returned with 200 when the
// program passes (no error-severity findings) and 422 when it is
// rejected — the structured findings ride along either way. Findings
// carry stable codes (CM-SHAPE-*, CM-RC-*, CM-RACE, CM-SYNC-MISSING,
// CM-SPAWN-DEAD, ...; see the README's diagnostic table); race
// findings include a related span marking the outstanding spawn.
type VetResponse struct {
	Key         string              `json:"key"`
	Cached      bool                `json:"cached"`
	OK          bool                `json:"ok"`
	Findings    []source.Diagnostic `json:"findings"`
	Errors      int                 `json:"errors"`
	Diagnostics []string            `json:"diagnostics,omitempty"`
	Stages      driver.StageTimings `json:"stages"`
}

// ErrorResponse is the body of every non-2xx answer, whether a shard or
// the gate wrote it.
type ErrorResponse struct {
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

// WriteJSON writes one JSON response body with its status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// WriteShed answers 429 with a backoff estimate in both forms: the
// Retry-After header (whole seconds, rounded up so it is never 0) and
// retry_after_ms in the body.
func WriteShed(w http.ResponseWriter, retry time.Duration, msg, tenantName string) {
	w.Header().Set("Retry-After", fmt.Sprint(int64((retry+time.Second-1)/time.Second)))
	WriteJSON(w, http.StatusTooManyRequests, ErrorResponse{
		Error: msg, Tenant: tenantName, RetryAfterMS: int64(retry / time.Millisecond),
	})
}

// AdmitTenant is the front door of a shard and of the gate:
// authenticate r against the key registry and charge the tenant's token
// bucket. With no registry it returns a nil tenant (anonymous,
// unlimited). A request identified by a trusted gate's X-CM-Tenant
// stamp is NOT charged again — the gate already spent a token. On a
// refusal the structured response has been written and refused is its
// status: 401 unknown key, 403 disabled tenant, or 429 over rate, in
// which case tn is the throttled tenant. refused is 0 when the request
// may proceed.
func AdmitTenant(w http.ResponseWriter, r *http.Request, reg *tenant.Registry, trustGate bool) (tn *tenant.Tenant, refused int) {
	tn, viaGate, err := reg.Resolve(r, trustGate)
	if err != nil {
		refused = http.StatusUnauthorized
		var ae *tenant.AuthError
		if errors.As(err, &ae) {
			refused = ae.Status
		}
		WriteJSON(w, refused, ErrorResponse{Error: err.Error()})
		return nil, refused
	}
	if tn == nil || viaGate {
		return tn, 0
	}
	if allow, retry := tn.Take(); !allow {
		WriteShed(w, retry, fmt.Sprintf("tenant %q over rate limit", tn.Name()), tn.Name())
		return tn, http.StatusTooManyRequests
	}
	return tn, 0
}

// driverRequest maps a compile body whose head resolved to (name,
// exts) to the driver request, applying the wire defaults.
func (req CompileRequest) driverRequest(name string, exts parser.Options) (driver.CompileRequest, error) {
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

// KeysForBody derives, from a raw compile, run or vet body and without
// compiling anything, the ring placement key and — for a compile body —
// the content address the shard will store the artifact under, which is
// what peer cache-fill moves objects by. A key is "" when the body does
// not decode to a valid request (the shard will answer it with a 400;
// the router places garbage anywhere, it does not judge it).
func KeysForBody(raw []byte, compile bool) (routeKey, artifactKey string) {
	var req CompileRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return "", ""
	}
	name, exts, err := req.Resolve()
	if err != nil {
		return "", ""
	}
	routeKey = driver.RouteKey(name, req.Source, driver.FormatExtensions(exts))
	if compile {
		if dreq, err := req.driverRequest(name, exts); err == nil {
			artifactKey = driver.CompileCacheKey(dreq)
		}
	}
	return routeKey, artifactKey
}
