// The cmgate router: one HTTP front over N cmserved shards. Every
// request is placed on the consistent-hash ring by its content
// address, then forwarded under the full robustness toolkit —
// breaker-gated shard selection, transport-failure failover along the
// ring, bounded jittered retries honoring Retry-After, p99-delay
// hedging, and peer cache-fill/replication of compile artifacts.
//
// Failure semantics, in one paragraph: a request is only ever answered
// with (a) a shard's own response, relayed verbatim; (b) a structured
// 429 relay after the retry budget is spent against an overloaded
// fleet; (c) a 503 when every shard is unreachable even after retries,
// or when the client itself disappeared. The router never invents a
// success and never drops an accepted request on the floor — "no lost
// runs" is the chaos suite's core assertion.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/tenant"
)

// TestHookShardFault, when non-nil, is consulted before every HTTP
// call the router makes to shard i (op is "forward", "probe",
// "artifact"); a non-nil error is treated exactly like a transport
// failure (connection refused/reset) without touching the network.
// The chaos harness uses it to kill, hang, and flap shards
// deterministically; nil in production.
var TestHookShardFault func(shard int, op string) error

// errShardFault wraps a TestHookShardFault injection so it flows
// through the same paths a real transport error does.
type errShardFault struct{ err error }

func (e errShardFault) Error() string { return "injected shard fault: " + e.err.Error() }

// Config parameterizes a Router. Zero values select the defaults.
type Config struct {
	// Shards lists the cmserved base URLs (e.g. "http://10.0.0.1:8347").
	// Required, at least one.
	Shards []string

	// ProbeInterval paces the per-shard health probes (default 1s);
	// ProbeTimeout bounds each probe (default ProbeInterval/2).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// BreakerThreshold is the consecutive transport failures that open
	// a shard's breaker (default 3); BreakerCooldown how long it stays
	// open before a half-open trial (default 2×ProbeInterval).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Retry bounds and paces re-attempts after overload (429) and
	// fleet-unreachable outcomes.
	Retry RetryPolicy

	// HedgeAfterMin/Max clamp the p99-derived hedge delay (defaults
	// 20ms / 2s). HedgeDisabled turns tail hedging off entirely.
	HedgeAfterMin time.Duration
	HedgeAfterMax time.Duration
	HedgeDisabled bool

	// ReplicateArtifacts copies each freshly compiled artifact to the
	// key's ring successor in the background, so losing one shard
	// never loses the only copy (default true; set DisableReplication
	// to turn off).
	DisableReplication bool

	// Tenants is the API-key registry. When set, the gate authenticates
	// every routed request, charges the tenant's token bucket before
	// any shard sees the request, and stamps the authenticated identity
	// onto the forward as X-CM-Tenant (shards run with -trust-gate).
	// Nil routes everything as before — anonymous, unmetered.
	Tenants *tenant.Registry

	// Transport overrides the forwarding transport (tests).
	Transport http.RoundTripper
}

// shardState is the router's per-shard bookkeeping.
type shardState struct {
	url       string
	breaker   *Breaker
	healthy   atomic.Bool
	forwarded atomic.Int64
	failures  atomic.Int64
}

// Router is the fleet front. Build with New, start probes with Start,
// serve Handler, stop with Close.
type Router struct {
	cfg     Config
	ring    *Ring
	shards  []*shardState
	metrics Metrics
	client  *http.Client
	lat     latencyWindow
	started time.Time

	rr   atomic.Uint64 // round-robin cursor for keyless requests
	stop chan struct{}
	wg   sync.WaitGroup

	replMu   sync.Mutex
	replSeen map[string]bool // artifact keys already replicated

	tenMu   sync.Mutex
	tenants map[string]*tenantCounts // per-tenant gate accounting
}

// tenantCounts is one tenant's gate-side ledger.
type tenantCounts struct {
	forwarded   atomic.Int64
	rateLimited atomic.Int64
}

// tenantCounts returns (creating if needed) a tenant's ledger; the map
// is bounded by the registry's tenant list.
func (rt *Router) tenantCounts(name string) *tenantCounts {
	rt.tenMu.Lock()
	defer rt.tenMu.Unlock()
	c, ok := rt.tenants[name]
	if !ok {
		c = &tenantCounts{}
		rt.tenants[name] = c
	}
	return c
}

// New builds a router over cfg.Shards; it does not probe until Start.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("fleet: no shards configured")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeInterval / 2
	}
	if cfg.ProbeTimeout >= cfg.ProbeInterval {
		// A probe still in flight when the next fires would stack
		// goroutines against a hung shard; refuse the config instead of
		// silently misbehaving under exactly the outage probes exist for.
		return nil, fmt.Errorf("fleet: probe timeout %s must be shorter than probe interval %s",
			cfg.ProbeTimeout, cfg.ProbeInterval)
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * cfg.ProbeInterval
	}
	if cfg.HedgeAfterMin <= 0 {
		cfg.HedgeAfterMin = 20 * time.Millisecond
	}
	if cfg.HedgeAfterMax <= 0 {
		cfg.HedgeAfterMax = 2 * time.Second
	}
	rt := &Router{
		cfg:      cfg,
		ring:     NewRing(cfg.Shards, DefaultReplicas),
		client:   &http.Client{Transport: cfg.Transport},
		started:  time.Now(),
		stop:     make(chan struct{}),
		replSeen: map[string]bool{},
		tenants:  map[string]*tenantCounts{},
	}
	for _, u := range cfg.Shards {
		s := &shardState{
			url:     u,
			breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, &rt.metrics.BreakerOpens.Int64),
		}
		s.healthy.Store(true) // optimistic until the first probe says otherwise
		rt.shards = append(rt.shards, s)
	}
	return rt, nil
}

// Start launches the per-shard health probers.
func (rt *Router) Start() {
	for i := range rt.shards {
		rt.wg.Add(1)
		go rt.probeLoop(i)
	}
}

// Close stops probers and waits for background work (probe loops,
// hedge reapers, replications) to finish.
func (rt *Router) Close() {
	select {
	case <-rt.stop:
	default:
		close(rt.stop)
	}
	rt.wg.Wait()
	rt.client.CloseIdleConnections()
}

// probeLoop probes one shard's /healthz every ProbeInterval, feeding
// the breaker in both directions: failures open it within
// threshold×interval, and a success closes it again — recovery needs
// no traffic and no operator.
func (rt *Router) probeLoop(i int) {
	defer rt.wg.Done()
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		rt.probe(i)
		select {
		case <-rt.stop:
			return
		case <-tick.C:
		}
	}
}

func (rt *Router) probe(i int) {
	rt.metrics.ProbesTotal.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	resp, err := rt.doShard(ctx, i, http.MethodGet, "/healthz", nil, "", nil, "probe")
	if err != nil {
		rt.metrics.ProbeFails.Add(1)
		rt.shards[i].healthy.Store(false)
		rt.shards[i].breaker.Failure()
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// Any answer is liveness — /healthz stays 200 even degraded, and a
	// talking shard is a routable shard.
	rt.shards[i].healthy.Store(true)
	rt.shards[i].breaker.Success()
}

// doShard issues one HTTP call to shard i. Body and hdr may be nil;
// hdr carries gate-asserted headers (the X-CM-Tenant identity stamp)
// onto the outbound request; op labels the call for the
// fault-injection seam.
func (rt *Router) doShard(ctx context.Context, i int, method, uri string, body []byte, contentType string, hdr http.Header, op string) (*http.Response, error) {
	if hook := TestHookShardFault; hook != nil {
		if err := hook(i, op); err != nil {
			return nil, errShardFault{err}
		}
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rt.shards[i].url+uri, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	return rt.client.Do(req)
}

// Handler returns the gate's route mux.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", rt.handleRouted("compile"))
	mux.HandleFunc("/v1/run", rt.handleRouted("run"))
	mux.HandleFunc("/v1/vet", rt.handleRouted("vet"))
	mux.HandleFunc("/v1/analyses", rt.handleAnalyses)
	mux.HandleFunc("/v1/artifact/", rt.handleArtifact)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	return mux
}

// handleRouted forwards one content-addressed verb (compile/run/vet):
// authenticate and rate-limit at the front door, then place the
// request on the ring. A tenant refused here never touches a shard —
// the noisy neighbor is stopped before it can queue behind anyone.
func (rt *Router) handleRouted(verb string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			server.WriteJSON(w, http.StatusMethodNotAllowed, server.ErrorResponse{Error: "method not allowed"})
			return
		}
		// Inbound identity stamps are forgeries by definition — only
		// this gate may assert X-CM-Tenant to the shards behind it.
		r.Header.Del(tenant.HeaderTenant)
		// A tenant refused here never touches a shard, and no breaker or
		// fleet metric moves — it is the tenant's problem, not the fleet's.
		tn, refused := server.AdmitTenant(w, r, rt.cfg.Tenants, false)
		if refused == http.StatusTooManyRequests {
			rt.metrics.RateLimited.Add(1)
			rt.tenantCounts(tn.Name()).rateLimited.Add(1)
			return
		} else if refused != 0 {
			rt.metrics.AuthRefused.Add(1)
			return
		}
		var hdr http.Header
		if tn != nil {
			rt.tenantCounts(tn.Name()).forwarded.Add(1)
			hdr = http.Header{}
			hdr.Set(tenant.HeaderTenant, tn.Name())
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.MaxSourceBytes))
		if err != nil {
			server.WriteJSON(w, http.StatusBadRequest, server.ErrorResponse{Error: "request body: " + err.Error()})
			return
		}
		key, artifactKey := server.KeysForBody(body, verb == "compile")
		rt.forward(w, r, forwardSpec{
			verb: verb, uri: r.URL.RequestURI(), method: http.MethodPost,
			body: body, contentType: "application/json", hdr: hdr,
			routeKey: key, artifactKey: artifactKey,
		})
	}
}

// handleAnalyses forwards the memoized §VI report from any shard.
func (rt *Router) handleAnalyses(w http.ResponseWriter, r *http.Request) {
	rt.forward(w, r, forwardSpec{verb: "analyses", uri: r.URL.RequestURI(), method: http.MethodGet})
}

// handleArtifact serves an artifact from whichever shard has it,
// walking the key's ring order (owner first).
func (rt *Router) handleArtifact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		server.WriteJSON(w, http.StatusMethodNotAllowed, server.ErrorResponse{Error: "method not allowed"})
		return
	}
	key := r.URL.Path[len("/v1/artifact/"):]
	for _, i := range rt.orderFor(key) {
		resp, err := rt.doShard(r.Context(), i, http.MethodGet, r.URL.RequestURI(), nil, "", nil, "artifact")
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusOK {
			rt.relay(w, resp, i)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	server.WriteJSON(w, http.StatusNotFound, server.ErrorResponse{Error: "no shard has the artifact"})
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := rt.healthyCount()
	status, code := "ok", http.StatusOK
	switch {
	case healthy == 0:
		status, code = "down", http.StatusServiceUnavailable
	case healthy < len(rt.shards):
		status = "degraded"
	}
	server.WriteJSON(w, code, map[string]any{
		"status": status, "shard_healthy": healthy, "shard_total": len(rt.shards),
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s := MetricsDoc{
		Metrics:          &rt.metrics,
		UptimeSeconds:    time.Since(rt.started).Seconds(),
		ShardHealthy:     rt.healthyCount(),
		ShardTotal:       len(rt.shards),
		HedgeDelayMS:     float64(rt.hedgeDelay()) / float64(time.Millisecond),
		TenantGeneration: rt.cfg.Tenants.Generation(),
	}
	for _, sh := range rt.shards {
		s.Shards = append(s.Shards, ShardStatus{
			URL: sh.url, Healthy: sh.healthy.Load(), Breaker: sh.breaker.State().String(),
			Forwarded: sh.forwarded.Load(), Failures: sh.failures.Load(),
		})
	}
	rt.tenMu.Lock()
	for name, c := range rt.tenants {
		s.Tenants = append(s.Tenants, GateTenantRow{
			Tenant: name, Forwarded: c.forwarded.Load(), RateLimited: c.rateLimited.Load(),
		})
	}
	rt.tenMu.Unlock()
	sort.Slice(s.Tenants, func(i, j int) bool { return s.Tenants[i].Tenant < s.Tenants[j].Tenant })
	server.WriteJSON(w, http.StatusOK, s)
}

func (rt *Router) healthyCount() int {
	n := 0
	for _, s := range rt.shards {
		if s.healthy.Load() {
			n++
		}
	}
	return n
}

// orderFor is the shard preference for a key: ring order when the key
// is known, round-robin over all shards otherwise.
func (rt *Router) orderFor(key string) []int {
	if key != "" {
		return rt.ring.Order(key)
	}
	n := len(rt.shards)
	start := int(rt.rr.Add(1)) % n
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		order = append(order, (start+i)%n)
	}
	return order
}

// forwardSpec describes one request the router must deliver.
type forwardSpec struct {
	verb        string
	method      string
	uri         string
	body        []byte
	contentType string
	hdr         http.Header // gate-asserted headers (tenant stamp)
	routeKey    string      // ring placement ("" = round-robin)
	artifactKey string      // compile artifact address (peer fill/replication)
}

// shedInfo captures a 429 for backoff pacing and, if the budget runs
// out, verbatim relay.
type shedInfo struct {
	header     http.Header
	body       []byte
	shard      int
	retryAfter time.Duration
}

// forward delivers spec to the fleet: walk the ring with breaker
// gating and failover, hedge the tail, back off on overload, and
// relay exactly one response to the client.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, spec forwardSpec) {
	ctx := r.Context()
	rt.metrics.ForwardedTotal.Add(1)
	rt.metrics.InflightGauge.Add(1)
	defer rt.metrics.InflightGauge.Add(-1)
	order := rt.orderFor(spec.routeKey)

	for attempt := 0; ; attempt++ {
		resp, cancel, shard, shed := rt.tryOnce(ctx, spec, order)
		if resp != nil {
			rt.relay(w, resp, shard)
			cancel()
			rt.maybeReplicate(spec, shard, order)
			return
		}
		if ctx.Err() != nil {
			// The client disappeared; nothing useful can be written and
			// retrying would serve nobody.
			rt.metrics.ClientGoneTotal.Add(1)
			server.WriteJSON(w, http.StatusServiceUnavailable, server.ErrorResponse{Error: "client went away"})
			return
		}
		if attempt >= rt.cfg.Retry.Max {
			if shed != nil {
				// Out of budget against a live but overloaded fleet: relay
				// the shard's own structured 429 so the client sees the
				// authoritative Retry-After.
				for k, vs := range shed.header {
					for _, v := range vs {
						w.Header().Add(k, v)
					}
				}
				w.WriteHeader(http.StatusTooManyRequests)
				w.Write(shed.body)
				return
			}
			rt.metrics.NoShardShed.Add(1)
			server.WriteJSON(w, http.StatusServiceUnavailable,
				server.ErrorResponse{Error: "no shard reachable", RetryAfterMS: int64(rt.cfg.Retry.Backoff(0, 0) / time.Millisecond)})
			return
		}
		var hint time.Duration
		if shed != nil {
			hint = shed.retryAfter
		}
		rt.metrics.RetriesTotal.Add(1)
		if SleepCtx(ctx, rt.cfg.Retry.Backoff(attempt, hint)) != nil {
			rt.metrics.ClientGoneTotal.Add(1)
			server.WriteJSON(w, http.StatusServiceUnavailable, server.ErrorResponse{Error: "client went away"})
			return
		}
	}
}

// tryOnce walks the shard order once. It returns either a relayable
// response (with its cancel), a shedInfo for a 429, or neither when
// every shard was unreachable. Breaker accounting lives entirely in
// doHedged/feed — tryOnce only decides where to go next.
func (rt *Router) tryOnce(ctx context.Context, spec forwardSpec, order []int) (resp *http.Response, cancel func(), shard int, shed *shedInfo) {
	for pos, i := range order {
		if ctx.Err() != nil {
			return nil, nil, 0, nil
		}
		if !rt.shards[i].breaker.Allow() {
			// Breaker refused; if every shard refuses (fleet-wide outage
			// mid-cooldown) the retry loop backs off and re-walks, by
			// which time a cooldown has usually elapsed and a half-open
			// trial is permitted.
			continue
		}
		if pos > 0 {
			rt.metrics.FailoversTotal.Add(1)
			// The key's primary was demoted: give its new home the
			// artifact before it recompiles.
			rt.peerFill(ctx, spec, i, order)
		}
		t0 := time.Now()
		r2, c2, served, err := rt.doHedged(ctx, i, order[pos+1:], spec)
		if err != nil {
			continue
		}
		rt.shards[served].forwarded.Add(1)
		rt.lat.Observe(time.Since(t0))
		if r2.StatusCode == http.StatusTooManyRequests {
			shed = rt.captureShed(r2, served)
			c2()
			return nil, nil, 0, shed
		}
		return r2, c2, served, nil
	}
	return nil, nil, 0, nil
}

// feed routes one attempt's outcome into its shard's breaker: a
// response (any status) is liveness, a transport error while the
// parent context is still alive is a real fault. Errors after the
// parent died count for nothing — a client disconnect must not open
// breakers.
func (rt *Router) feed(ctx context.Context, a attemptResult) {
	if a.err == nil {
		rt.shards[a.shard].breaker.Success()
		return
	}
	if ctx.Err() == nil {
		rt.shards[a.shard].failures.Add(1)
		rt.shards[a.shard].breaker.Failure()
	}
}

// captureShed drains a 429 into a relayable snapshot, extracting the
// server's retry hint (precise retry_after_ms from the body, falling
// back to the whole-second Retry-After header).
func (rt *Router) captureShed(resp *http.Response, shard int) *shedInfo {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	sh := &shedInfo{header: resp.Header, body: body, shard: shard}
	var parsed struct {
		RetryAfterMS int64 `json:"retry_after_ms"`
	}
	if json.Unmarshal(body, &parsed) == nil && parsed.RetryAfterMS > 0 {
		sh.retryAfter = time.Duration(parsed.RetryAfterMS) * time.Millisecond
	} else if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil {
			sh.retryAfter = time.Duration(secs) * time.Second
		}
	}
	return sh
}

// hedgeCandidate picks where a hedge goes: the first shard after the
// target in ring order that is healthy with a closed breaker (half-open
// shards are not hedged into — trial tokens are for recovery, not
// tail-shaving), or -1.
func (rt *Router) hedgeCandidate(after []int) int {
	for _, i := range after {
		if rt.shards[i].healthy.Load() && rt.shards[i].breaker.State() == BreakerClosed {
			return i
		}
	}
	return -1
}

// hedgeDelay is the router's current hedge trigger: the window's p99
// clamped to [HedgeAfterMin, HedgeAfterMax].
func (rt *Router) hedgeDelay() time.Duration {
	return hedgeDelay(&rt.lat, rt.cfg.HedgeAfterMin, rt.cfg.HedgeAfterMax)
}

// attemptResult is one finished copy of a hedged request.
type attemptResult struct {
	resp   *http.Response
	err    error
	shard  int
	cancel context.CancelFunc
}

// doHedged sends spec to the target shard, firing one hedged copy to
// the next closed-breaker shard among after (the ring order past the
// target) if the target is still silent after the p99-derived delay.
// The first usable response wins and is returned with the shard that
// served it and the release of its attempt context, to be called once
// the body has been relayed (cancelling earlier would sever the
// stream); the loser is cancelled and reaped off the request path.
func (rt *Router) doHedged(ctx context.Context, target int, after []int, spec forwardSpec) (*http.Response, func(), int, error) {
	results := make(chan attemptResult, 2)
	outstanding := 0
	launch := func(i int) {
		outstanding++
		actx, cancel := context.WithCancel(ctx)
		go func() {
			resp, err := rt.doShard(actx, i, spec.method, spec.uri, spec.body, spec.contentType, spec.hdr, "forward")
			if resp != nil {
				// A 429 that outlives the retry budget is relayed with
				// the shard's own header set; this names the shard on it.
				resp.Header.Set("X-CM-Routed", strconv.Itoa(i))
			}
			results <- attemptResult{resp: resp, err: err, shard: i, cancel: cancel}
		}()
	}
	launch(target)

	hedgeTo := -1
	var hedgeAt <-chan time.Time // nil (never fires) without a candidate, and once fired
	if !rt.cfg.HedgeDisabled {
		if hedgeTo = rt.hedgeCandidate(after); hedgeTo >= 0 {
			timer := time.NewTimer(rt.hedgeDelay())
			defer timer.Stop()
			hedgeAt = timer.C
		}
	}

	var firstErr error
	for outstanding > 0 {
		select {
		case <-hedgeAt:
			hedgeAt = nil
			rt.metrics.HedgesFired.Add(1)
			launch(hedgeTo)
		case a := <-results:
			outstanding--
			// A real transport fault (not our own cancellation) feeds the
			// breaker; a surviving copy, if any, decides the outcome.
			rt.feed(ctx, a)
			if a.err != nil {
				// No response will ever be relayed: release the attempt
				// context now instead of leaking it until the parent dies.
				a.cancel()
				if firstErr == nil {
					firstErr = a.err
				}
				continue
			}
			if a.shard == hedgeTo {
				rt.metrics.HedgesWon.Add(1)
			}
			if outstanding > 0 {
				// Reap the loser off-path: wait for its goroutine, cancel
				// its context and close any response it managed to get. A
				// cancellation-induced error is not a shard failure, so
				// the reaper feeds no breaker.
				rt.wg.Add(1)
				go func() {
					defer rt.wg.Done()
					b := <-results
					b.cancel()
					if b.resp != nil {
						io.Copy(io.Discard, b.resp.Body)
						b.resp.Body.Close()
						rt.shards[b.shard].breaker.Success()
					}
				}()
			}
			return a.resp, a.cancel, a.shard, nil
		}
	}
	return nil, nil, 0, firstErr
}

// relay copies a shard response to the client: status, safe headers,
// body, plus the router's own X-CM-Routed shard index.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, shard int) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", "X-CM-Shard"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-CM-Routed", strconv.Itoa(shard))
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// peerFill copies spec's compile artifact to a demoted key's new home
// before the forward, so the new owner serves a cache hit instead of
// recompiling. Misses are fine — the target just compiles — so every
// step is best-effort under the client's context.
func (rt *Router) peerFill(ctx context.Context, spec forwardSpec, target int, order []int) {
	if spec.artifactKey == "" || len(rt.shards) < 2 {
		return
	}
	uri := "/v1/artifact/" + spec.artifactKey
	// Already there? (A prior fill, replication, or its own compile.)
	if resp, err := rt.doShard(ctx, target, http.MethodGet, uri, nil, "", nil, "artifact"); err == nil {
		had := resp.StatusCode == http.StatusOK
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if had {
			return
		}
	}
	for _, i := range order {
		if i == target || !rt.shards[i].healthy.Load() || rt.shards[i].breaker.State() != BreakerClosed {
			continue
		}
		resp, err := rt.doShard(ctx, i, http.MethodGet, uri, nil, "", nil, "artifact")
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, server.MaxSourceBytes*4))
		resp.Body.Close()
		if err != nil {
			continue
		}
		put, err := rt.doShard(ctx, target, http.MethodPut, uri, raw, "application/octet-stream", nil, "artifact")
		if err != nil {
			return
		}
		ok := put.StatusCode == http.StatusNoContent
		io.Copy(io.Discard, put.Body)
		put.Body.Close()
		if ok {
			rt.metrics.PeerCacheFills.Add(1)
		}
		return
	}
}

// maybeReplicate copies a freshly served compile artifact to the key's
// ring successor in the background: once two shards hold it, killing
// any one shard cannot force a recompile. Each key replicates once per
// router lifetime (the seen-set is capped and resets when full — worst
// case is a redundant, idempotent PUT).
func (rt *Router) maybeReplicate(spec forwardSpec, served int, order []int) {
	if rt.cfg.DisableReplication || spec.verb != "compile" || spec.artifactKey == "" || len(rt.shards) < 2 {
		return
	}
	succ := -1
	for _, i := range order {
		if i != served {
			succ = i
			break
		}
	}
	if succ < 0 {
		return
	}
	rt.replMu.Lock()
	if rt.replSeen[spec.artifactKey] {
		rt.replMu.Unlock()
		return
	}
	if len(rt.replSeen) >= 4096 {
		rt.replSeen = map[string]bool{}
	}
	rt.replSeen[spec.artifactKey] = true
	rt.replMu.Unlock()

	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		uri := "/v1/artifact/" + spec.artifactKey
		resp, err := rt.doShard(ctx, served, http.MethodGet, uri, nil, "", nil, "artifact")
		if err != nil {
			rt.unsee(spec.artifactKey)
			return
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rt.unsee(spec.artifactKey)
			return
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, server.MaxSourceBytes*4))
		resp.Body.Close()
		if err != nil {
			rt.unsee(spec.artifactKey)
			return
		}
		put, err := rt.doShard(ctx, succ, http.MethodPut, uri, raw, "application/octet-stream", nil, "artifact")
		if err != nil {
			rt.unsee(spec.artifactKey)
			return
		}
		ok := put.StatusCode == http.StatusNoContent
		io.Copy(io.Discard, put.Body)
		put.Body.Close()
		if ok {
			rt.metrics.PeerReplicas.Add(1)
		} else {
			rt.unsee(spec.artifactKey)
		}
	}()
}

// unsee forgets a failed replication so a later request retries it.
func (rt *Router) unsee(key string) {
	rt.replMu.Lock()
	delete(rt.replSeen, key)
	rt.replMu.Unlock()
}

// Metrics exposes the router's live counters (tests).
func (rt *Router) Metrics() *Metrics { return &rt.metrics }

// ShardBreaker exposes shard i's breaker state (tests, /metrics).
func (rt *Router) ShardBreaker(i int) BreakerState { return rt.shards[i].breaker.State() }

// Primary exposes the ring's owner for a route key (tests).
func (rt *Router) Primary(routeKey string) int { return rt.ring.Primary(routeKey) }

// Ring exposes the router's ring (tests, cmgate startup logging).
func (rt *Router) Ring() *Ring { return rt.ring }
