// Router observability: Metrics is the router's live counters and,
// through its json tags, the counter part of cmgate's /metrics — a
// counter is declared here once. The gauge/counter set is the fleet
// contract the chaos harness asserts against: shard_healthy,
// hedges_fired, hedges_won, retries_total, breaker_open_total,
// peer_cache_fills.
package fleet

import "repro/internal/obs"

// Metrics aggregates the router's counters; all fields are safe for
// concurrent use.
type Metrics struct {
	ForwardedTotal  obs.Counter `json:"forwarded_total"`    // requests relayed to a shard (first attempts)
	RetriesTotal    obs.Counter `json:"retries_total"`      // overload re-attempts after backoff
	FailoversTotal  obs.Counter `json:"failovers_total"`    // attempts moved to the next ring shard after a transport fault
	HedgesFired     obs.Counter `json:"hedges_fired"`       // duplicate requests launched after the hedge delay
	HedgesWon       obs.Counter `json:"hedges_won"`         // hedges whose response beat the primary's
	BreakerOpens    obs.Counter `json:"breaker_open_total"` // closed/half-open → open transitions, all shards
	PeerCacheFills  obs.Counter `json:"peer_cache_fills"`   // artifacts copied to a key's new owner before forwarding
	PeerReplicas    obs.Counter `json:"peer_replications"`  // artifacts replicated to a key's ring successor after compile
	NoShardShed     obs.Counter `json:"no_shard_shed"`      // requests answered 503: every shard refused or unreachable
	InflightGauge   obs.Counter `json:"inflight"`           // forwards currently in flight through the router
	ProbesTotal     obs.Counter `json:"probes_total"`       // health probes sent
	ProbeFails      obs.Counter `json:"probe_failures"`     // health probes failed (timeout or transport error)
	ClientGoneTotal obs.Counter `json:"client_gone_total"`  // forwards abandoned because the client disconnected
	RateLimited     obs.Counter `json:"rate_limited"`       // requests refused 429 by a tenant's own token bucket
	AuthRefused     obs.Counter `json:"auth_refused"`       // requests refused 401/403 at the front door
}

// GateTenantRow is one tenant's gate-side ledger on /metrics.
type GateTenantRow struct {
	Tenant      string `json:"tenant"`
	Forwarded   int64  `json:"forwarded"`
	RateLimited int64  `json:"rate_limited"`
}

// ShardStatus is one shard's row in the /metrics document.
type ShardStatus struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Breaker   string `json:"breaker"`
	Forwarded int64  `json:"forwarded"`
	Failures  int64  `json:"transport_failures"`
}

// MetricsDoc is the JSON served on cmgate's /metrics: the live
// counters (by reference) plus the rows and gauges only the router can
// see.
type MetricsDoc struct {
	*Metrics
	UptimeSeconds float64       `json:"uptime_seconds"`
	Shards        []ShardStatus `json:"shards"`
	ShardHealthy  int           `json:"shard_healthy"`
	ShardTotal    int           `json:"shard_total"`
	HedgeDelayMS  float64       `json:"hedge_delay_ms"`

	// The live key-file generation (0 = no registry) and per-tenant
	// ledgers.
	TenantGeneration int64           `json:"tenant_generation,omitempty"`
	Tenants          []GateTenantRow `json:"tenants,omitempty"`
}
