// Observability primitives for the compile service: lock-free counters
// and fixed-bucket latency histograms built on sync/atomic only (the
// module is dependency-free by design). Snapshots are plain structs
// that marshal directly to the /metrics JSON.
package driver

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/matrix"
	"repro/internal/vm"
)

// histBoundsUS are the upper bounds (inclusive, in microseconds) of the
// latency histogram buckets; a final implicit +Inf bucket catches the
// rest. The range spans a warm cache hit (~µs) to a cold full
// compile (~ms) to a long interpreter run (~s).
var histBoundsUS = [...]int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
	1_000_000, 5_000_000, 30_000_000,
}

// Histogram is a fixed-bucket latency histogram safe for concurrent
// observation.
type Histogram struct {
	buckets [len(histBoundsUS) + 1]atomic.Int64
	count   atomic.Int64
	sumNS   atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	i := 0
	for i < len(histBoundsUS) && us > histBoundsUS[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(d))
}

// HistogramSnapshot is a point-in-time JSON-friendly view.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	MeanUS  float64          `json:"mean_us"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one non-empty histogram bucket; LeUS is the bucket's
// inclusive upper bound in microseconds (0 marks the +Inf bucket).
type BucketSnapshot struct {
	LeUS  int64 `json:"le_us,omitempty"`
	Count int64 `json:"count"`
}

// Snapshot captures the histogram's current state. Empty buckets are
// elided to keep /metrics output small.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load()}
	if s.Count > 0 {
		s.MeanUS = float64(h.sumNS.Load()) / float64(s.Count) / 1e3
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		b := BucketSnapshot{Count: n}
		if i < len(histBoundsUS) {
			b.LeUS = histBoundsUS[i]
		}
		s.Buckets = append(s.Buckets, b)
	}
	return s
}

// Metrics aggregates the driver's counters: cache behavior plus
// per-stage latency. All fields are safe for concurrent use.
type Metrics struct {
	// Cache outcome counters. A miss executes the pipeline; a hit
	// returns a previously stored artifact; a coalesced request joined
	// an identical in-flight execution (singleflight) and shared its
	// result without executing.
	CompileHits      atomic.Int64
	CompileMisses    atomic.Int64
	CompileCoalesced atomic.Int64
	FrontendHits     atomic.Int64
	FrontendMisses   atomic.Int64

	// Pipeline executions actually performed (kept separate so tests
	// can assert "compiled exactly once" directly; a disk-tier hit is a
	// memory miss that still skips execution).
	CompileExecutions  atomic.Int64
	FrontendExecutions atomic.Int64

	// LRU evictions per cache (the caches are bounded; see Config). A
	// unit evicts whole: its bytecode and findings go with it.
	UnitEvictions    atomic.Int64
	CompileEvictions atomic.Int64

	// Disk-tier outcomes. A corrupt read (digest mismatch) quarantines
	// the object and also counts as a miss; write errors degrade the
	// driver to memory-only caching, never fail a compile.
	DiskHits        atomic.Int64
	DiskMisses      atomic.Int64
	DiskCorrupt     atomic.Int64
	DiskWrites      atomic.Int64
	DiskWriteErrors atomic.Int64
	// DiskAbandoned counts reads abandoned because the requester's
	// context expired while the read was outstanding (hung or slow
	// disk); each also counts as a miss.
	DiskAbandoned atomic.Int64

	// Fleet artifact transfer: objects served to peers/the router over
	// /v1/artifact, and verified peer objects installed locally.
	ArtifactExports atomic.Int64
	ArtifactImports atomic.Int64

	RunsStarted   atomic.Int64
	RunsCancelled atomic.Int64
	// RunsTrapped counts executions that ended in a trap-coded
	// RuntimeError (shape/rc/oom/step/depth/panic).
	RunsTrapped atomic.Int64

	// Bytecode engine counters: actual bytecode compilations, VM
	// executions, outcomes of asking a unit for its compiled program,
	// and the total nanoseconds spent inside the VM dispatch loop (the
	// whole Machine.Run, which is pure dispatch — parse/check time is
	// accounted separately).
	VMCompileTotal atomic.Int64
	VMExecTotal    atomic.Int64
	VMCacheHits    atomic.Int64
	VMCacheMisses  atomic.Int64
	VMDispatchNS   atomic.Int64
	// VMFusedSites totals the facts-proven fused chain sites emitted by
	// actual bytecode compilations (cache hits don't re-count).
	VMFusedSites atomic.Int64
	// VMWithSites totals the facts-proven with-loop sites compiled to
	// the flat engine by actual bytecode compilations.
	VMWithSites atomic.Int64

	// Vet stage counters: requests, outcomes of asking a unit for its
	// findings, and the total findings produced by actual analysis
	// executions.
	VetRuns      atomic.Int64
	VetHits      atomic.Int64
	VetMisses    atomic.Int64
	VetCoalesced atomic.Int64
	VetFindings  atomic.Int64
	// VetRacesFound totals CM-RACE findings produced by actual analysis
	// executions (the determinacy-race detector).
	VetRacesFound atomic.Int64

	// Per-tenant run attribution (tenancy PR): executions keyed by the
	// tenant label on the RunRequest. A small map under its own mutex —
	// one entry per tenant name the registry knows, not per request.
	tenantMu     sync.Mutex
	runsByTenant map[string]int64

	// Per-stage latency histograms.
	ParseLatency       Histogram
	CheckLatency       Histogram
	EmitLatency        Histogram
	RunLatency         Histogram
	CompileLatency     Histogram // whole Compile call, hits included
	VetLatency         Histogram // whole Vet call, hits included
	VetAnalysisLatency Histogram // the analysis pass alone (misses only)
}

// MetricsSnapshot is the JSON shape served on /metrics.
type MetricsSnapshot struct {
	CompileHits        int64 `json:"compile_cache_hits"`
	CompileMisses      int64 `json:"compile_cache_misses"`
	CompileCoalesced   int64 `json:"compile_coalesced"`
	FrontendHits       int64 `json:"frontend_cache_hits"`
	FrontendMisses     int64 `json:"frontend_cache_misses"`
	CompileExecutions  int64 `json:"compile_executions"`
	FrontendExecutions int64 `json:"frontend_executions"`
	RunsStarted        int64 `json:"runs_started"`
	RunsCancelled      int64 `json:"runs_cancelled"`
	RunsTrapped        int64 `json:"runs_trapped"`

	VMCompileTotal int64 `json:"vm_compile_total"`
	VMExecTotal    int64 `json:"vm_exec_total"`
	VMCacheHits    int64 `json:"vm_cache_hits"`
	VMCacheMisses  int64 `json:"vm_cache_misses"`
	VMDispatchNS   int64 `json:"vm_dispatch_ns"`
	// Fusion: chain sites emitted by bytecode compilations, and fused
	// loops actually executed (process-wide, from vm.FusedLoopsRun).
	VMFusedSites int64 `json:"vm_fused_sites"`
	VMFusedLoops int64 `json:"vm_fused_loops"`
	// With-loop compilation: sites lowered to the flat engine by
	// bytecode compilations, with-loops actually executed flat, and
	// executions of a compiled site the flat engine handed back to the
	// closure path at run time (process-wide, from vm.WithFlatLoopsRun
	// and vm.WithFlatLoopsDeclined).
	VMWithSites        int64 `json:"with_loops_compiled"`
	VMWithFlatRuns     int64 `json:"with_loops_flat_runs"`
	VMWithFlatDeclined int64 `json:"with_loops_flat_declined"`

	VetRuns      int64 `json:"vet_runs"`
	VetHits      int64 `json:"vet_cache_hits"`
	VetMisses    int64 `json:"vet_cache_misses"`
	VetCoalesced int64 `json:"vet_coalesced"`
	VetFindings  int64 `json:"vet_findings_total"`
	// CM-RACE findings from the determinacy-race detector.
	VetRacesFound int64 `json:"vet_races_found"`

	// Interpreter executions by tenant label (empty until a labeled
	// run arrives; anonymous runs count under "anonymous").
	RunsByTenant map[string]int64 `json:"runs_by_tenant,omitempty"`

	// In-memory cache gauges (filled by Driver.MetricsSnapshot, which
	// can see the caches; zero through Metrics.Snapshot alone) and the
	// eviction counter summed over both caches.
	CacheEntries   int64 `json:"cache_entries"`
	CacheBytes     int64 `json:"cache_bytes"`
	CacheEvictions int64 `json:"cache_evictions"`

	// Disk artifact tier (all zero when the tier is disabled).
	DiskHits        int64 `json:"disk_cache_hits"`
	DiskMisses      int64 `json:"disk_cache_misses"`
	DiskCorrupt     int64 `json:"disk_cache_corrupt"`
	DiskWrites      int64 `json:"disk_cache_writes"`
	DiskWriteErrors int64 `json:"disk_cache_write_errors"`
	DiskAbandoned   int64 `json:"disk_cache_abandoned"`

	// Fleet artifact transfer (peer cache-fill).
	ArtifactExports int64 `json:"artifact_exports"`
	ArtifactImports int64 `json:"artifact_imports"`

	CompileHitRatio float64 `json:"compile_hit_ratio"`

	// Matrix kernel execution counters (process-wide, from
	// matrix.KernelStats): constructs distributed over the worker pool,
	// constructs run serially, and backing buffers served from the
	// kernel free list instead of the allocator.
	KernelParallel int64 `json:"kernel_parallel_total"`
	KernelSerial   int64 `json:"kernel_serial_total"`
	KernelReused   int64 `json:"kernel_buffers_reused"`

	// Per-kernel execution counters (process-wide, from
	// matrix.KernelOpStats).
	KernelTranspose int64 `json:"kernel_transpose_total"`
	KernelConv      int64 `json:"kernel_conv_total"`
	KernelReduce    int64 `json:"kernel_reduce_total"`

	ParseLatency   HistogramSnapshot `json:"parse_latency"`
	CheckLatency   HistogramSnapshot `json:"check_latency"`
	EmitLatency    HistogramSnapshot `json:"emit_latency"`
	RunLatency     HistogramSnapshot `json:"run_latency"`
	CompileLatency HistogramSnapshot `json:"compile_latency"`
	VetLatency     HistogramSnapshot `json:"vet_latency"`
	VetAnalysis    HistogramSnapshot `json:"vet_analysis_latency"`
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

// Snapshot captures all counters at one instant (best-effort
// consistency; counters advance independently).
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		CompileHits:        m.CompileHits.Load(),
		CompileMisses:      m.CompileMisses.Load(),
		CompileCoalesced:   m.CompileCoalesced.Load(),
		FrontendHits:       m.FrontendHits.Load(),
		FrontendMisses:     m.FrontendMisses.Load(),
		CompileExecutions:  m.CompileExecutions.Load(),
		FrontendExecutions: m.FrontendExecutions.Load(),
		RunsStarted:        m.RunsStarted.Load(),
		RunsCancelled:      m.RunsCancelled.Load(),
		RunsTrapped:        m.RunsTrapped.Load(),
		VMCompileTotal:     m.VMCompileTotal.Load(),
		VMExecTotal:        m.VMExecTotal.Load(),
		VMCacheHits:        m.VMCacheHits.Load(),
		VMCacheMisses:      m.VMCacheMisses.Load(),
		VMDispatchNS:       m.VMDispatchNS.Load(),
		VMFusedSites:       m.VMFusedSites.Load(),
		VMFusedLoops:       vm.FusedLoopsRun(),
		VMWithSites:        m.VMWithSites.Load(),
		VMWithFlatRuns:     vm.WithFlatLoopsRun(),
		VMWithFlatDeclined: vm.WithFlatLoopsDeclined(),
		VetRuns:            m.VetRuns.Load(),
		VetHits:            m.VetHits.Load(),
		VetMisses:          m.VetMisses.Load(),
		VetCoalesced:       m.VetCoalesced.Load(),
		VetFindings:        m.VetFindings.Load(),
		VetRacesFound:      m.VetRacesFound.Load(),
		CacheEvictions:     m.UnitEvictions.Load() + m.CompileEvictions.Load(),
		DiskHits:           m.DiskHits.Load(),
		DiskMisses:         m.DiskMisses.Load(),
		DiskCorrupt:        m.DiskCorrupt.Load(),
		DiskWrites:         m.DiskWrites.Load(),
		DiskWriteErrors:    m.DiskWriteErrors.Load(),
		DiskAbandoned:      m.DiskAbandoned.Load(),
		ArtifactExports:    m.ArtifactExports.Load(),
		ArtifactImports:    m.ArtifactImports.Load(),
		ParseLatency:       m.ParseLatency.Snapshot(),
		CheckLatency:       m.CheckLatency.Snapshot(),
		EmitLatency:        m.EmitLatency.Snapshot(),
		RunLatency:         m.RunLatency.Snapshot(),
		CompileLatency:     m.CompileLatency.Snapshot(),
		VetLatency:         m.VetLatency.Snapshot(),
		VetAnalysis:        m.VetAnalysisLatency.Snapshot(),
	}
	if total := s.CompileHits + s.CompileCoalesced + s.CompileMisses; total > 0 {
		s.CompileHitRatio = float64(s.CompileHits+s.CompileCoalesced) / float64(total)
	}
	m.tenantMu.Lock()
	if len(m.runsByTenant) > 0 {
		s.RunsByTenant = make(map[string]int64, len(m.runsByTenant))
		for k, v := range m.runsByTenant {
			s.RunsByTenant[k] = v
		}
	}
	m.tenantMu.Unlock()
	s.KernelParallel, s.KernelSerial, s.KernelReused = matrix.KernelStats()
	s.KernelTranspose, s.KernelConv, s.KernelReduce = matrix.KernelOpStats()
	return s
}
