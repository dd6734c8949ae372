// The driver's counters. Metrics is at once the live state and, through
// its json tags, the "driver" part of every /metrics document: adding a
// counter is one tagged field here plus the Add at its call site.
// MetricsDoc adds only what has no live field of its own.
package driver

import (
	"maps"
	"sync"

	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Metrics aggregates the driver's counters: cache behavior plus
// per-stage latency. All fields are safe for concurrent use.
type Metrics struct {
	// Cache outcome counters. A miss executes the pipeline; a hit
	// returns a previously stored artifact; a coalesced request joined
	// an identical in-flight execution (singleflight) and shared its
	// result without executing.
	CompileHits      obs.Counter `json:"compile_cache_hits"`
	CompileMisses    obs.Counter `json:"compile_cache_misses"`
	CompileCoalesced obs.Counter `json:"compile_coalesced"`
	FrontendHits     obs.Counter `json:"frontend_cache_hits"`
	FrontendMisses   obs.Counter `json:"frontend_cache_misses"`

	// Pipeline executions actually performed (kept separate so tests
	// can assert "compiled exactly once" directly; a disk-tier hit is a
	// memory miss that still skips execution).
	CompileExecutions  obs.Counter `json:"compile_executions"`
	FrontendExecutions obs.Counter `json:"frontend_executions"`

	// LRU evictions per cache (the caches are bounded; see Config),
	// served summed as cache_evictions. A unit evicts whole: its
	// bytecode and findings go with it.
	UnitEvictions    obs.Counter `json:"-"`
	CompileEvictions obs.Counter `json:"-"`

	// Disk-tier outcomes (all zero when the tier is disabled). A corrupt
	// read (digest mismatch) quarantines the object and also counts as a
	// miss; write errors degrade the driver to memory-only caching,
	// never fail a compile.
	DiskHits        obs.Counter `json:"disk_cache_hits"`
	DiskMisses      obs.Counter `json:"disk_cache_misses"`
	DiskCorrupt     obs.Counter `json:"disk_cache_corrupt"`
	DiskWrites      obs.Counter `json:"disk_cache_writes"`
	DiskWriteErrors obs.Counter `json:"disk_cache_write_errors"`
	// DiskAbandoned counts reads abandoned because the requester's
	// context expired while the read was outstanding (hung or slow
	// disk); each also counts as a miss.
	DiskAbandoned obs.Counter `json:"disk_cache_abandoned"`

	// Fleet artifact transfer: objects served to peers/the router over
	// /v1/artifact, and verified peer objects installed locally.
	ArtifactExports obs.Counter `json:"artifact_exports"`
	ArtifactImports obs.Counter `json:"artifact_imports"`

	RunsStarted   obs.Counter `json:"runs_started"`
	RunsCancelled obs.Counter `json:"runs_cancelled"`
	// RunsTrapped counts executions that ended in a trap-coded
	// RuntimeError (shape/rc/oom/step/depth/panic).
	RunsTrapped obs.Counter `json:"runs_trapped"`

	// Bytecode engine counters: actual bytecode compilations, VM
	// executions, outcomes of asking a unit for its compiled program,
	// and the total nanoseconds spent inside the VM dispatch loop (the
	// whole Machine.Run, which is pure dispatch — parse/check time is
	// accounted separately).
	VMCompileTotal obs.Counter `json:"vm_compile_total"`
	VMExecTotal    obs.Counter `json:"vm_exec_total"`
	VMCacheHits    obs.Counter `json:"vm_cache_hits"`
	VMCacheMisses  obs.Counter `json:"vm_cache_misses"`
	VMDispatchNS   obs.Counter `json:"vm_dispatch_ns"`
	// VMFusedSites totals the facts-proven fused chain sites emitted by
	// actual bytecode compilations (cache hits don't re-count).
	VMFusedSites obs.Counter `json:"vm_fused_sites"`
	// VMWithSites totals the facts-proven with-loop sites compiled to
	// the flat engine by actual bytecode compilations.
	VMWithSites obs.Counter `json:"with_loops_compiled"`

	// Vet stage counters: requests, outcomes of asking a unit for its
	// findings, and the total findings produced by actual analysis
	// executions.
	VetRuns      obs.Counter `json:"vet_runs"`
	VetHits      obs.Counter `json:"vet_cache_hits"`
	VetMisses    obs.Counter `json:"vet_cache_misses"`
	VetCoalesced obs.Counter `json:"vet_coalesced"`
	VetFindings  obs.Counter `json:"vet_findings_total"`
	// VetRacesFound totals CM-RACE findings produced by actual analysis
	// executions (the determinacy-race detector).
	VetRacesFound obs.Counter `json:"vet_races_found"`

	// Per-tenant run attribution (tenancy PR): executions keyed by the
	// tenant label on the RunRequest. A small map under its own mutex —
	// one entry per tenant name the registry knows, not per request.
	tenantMu     sync.Mutex
	runsByTenant map[string]int64

	// Per-stage latency histograms.
	ParseLatency       obs.Histogram `json:"parse_latency"`
	CheckLatency       obs.Histogram `json:"check_latency"`
	EmitLatency        obs.Histogram `json:"emit_latency"`
	RunLatency         obs.Histogram `json:"run_latency"`
	CompileLatency     obs.Histogram `json:"compile_latency"` // whole Compile call, hits included
	VetLatency         obs.Histogram `json:"vet_latency"`     // whole Vet call, hits included
	VetAnalysisLatency obs.Histogram `json:"vet_analysis_latency"`
}

// MetricsDoc is the driver's /metrics document: the live counters (by
// reference — the document reads them when it is marshalled) and the
// values that are derived from them, read off the caches, or counted
// process-wide by another package.
type MetricsDoc struct {
	*Metrics

	// In-memory cache gauges and the eviction counter summed over both
	// caches.
	CacheEntries   int64 `json:"cache_entries"`
	CacheBytes     int64 `json:"cache_bytes"`
	CacheEvictions int64 `json:"cache_evictions"`

	CompileHitRatio float64 `json:"compile_hit_ratio"`

	// Interpreter executions by tenant label (empty until a labeled
	// run arrives; anonymous runs count under "anonymous").
	RunsByTenant map[string]int64 `json:"runs_by_tenant,omitempty"`

	// Process-wide, from vm.FusedLoopsRun, vm.WithFlatLoopsRun and
	// vm.WithFlatLoopsDeclined: fused loops executed, with-loops
	// executed flat, and executions of a compiled site the flat engine
	// handed back to the closure path at run time.
	VMFusedLoops       int64 `json:"vm_fused_loops"`
	VMWithFlatRuns     int64 `json:"with_loops_flat_runs"`
	VMWithFlatDeclined int64 `json:"with_loops_flat_declined"`

	// Process-wide, from matrix.KernelStats: constructs distributed
	// over the worker pool, constructs run serially, and backing
	// buffers served from the kernel free list instead of the
	// allocator; from matrix.KernelOpStats: per-kernel executions.
	KernelParallel  int64 `json:"kernel_parallel_total"`
	KernelSerial    int64 `json:"kernel_serial_total"`
	KernelReused    int64 `json:"kernel_buffers_reused"`
	KernelTranspose int64 `json:"kernel_transpose_total"`
	KernelConv      int64 `json:"kernel_conv_total"`
	KernelReduce    int64 `json:"kernel_reduce_total"`
}

// countTenantRun attributes one interpreter execution to a tenant
// label ("" counts as "anonymous").
func (m *Metrics) countTenantRun(name string) {
	if name == "" {
		name = "anonymous"
	}
	m.tenantMu.Lock()
	if m.runsByTenant == nil {
		m.runsByTenant = map[string]int64{}
	}
	m.runsByTenant[name]++
	m.tenantMu.Unlock()
}

// MetricsSnapshot returns the driver's /metrics document (best-effort
// consistency; counters advance independently).
func (d *Driver) MetricsSnapshot() MetricsDoc {
	m := &d.metrics
	s := MetricsDoc{
		Metrics:            m,
		CacheEvictions:     m.UnitEvictions.Load() + m.CompileEvictions.Load(),
		VMFusedLoops:       vm.FusedLoopsRun(),
		VMWithFlatRuns:     vm.WithFlatLoopsRun(),
		VMWithFlatDeclined: vm.WithFlatLoopsDeclined(),
	}
	ue, ub := d.units.stats()
	ee, eb := d.emits.stats()
	s.CacheEntries = int64(ue + ee)
	s.CacheBytes = ub + eb
	served := m.CompileHits.Load() + m.CompileCoalesced.Load()
	if total := served + m.CompileMisses.Load(); total > 0 {
		s.CompileHitRatio = float64(served) / float64(total)
	}
	m.tenantMu.Lock()
	s.RunsByTenant = maps.Clone(m.runsByTenant)
	m.tenantMu.Unlock()
	s.KernelParallel, s.KernelSerial, s.KernelReused = matrix.KernelStats()
	s.KernelTranspose, s.KernelConv, s.KernelReduce = matrix.KernelOpStats()
	return s
}
