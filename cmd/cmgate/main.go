// cmgate is the fleet front for cmserved: one HTTP endpoint over N
// shards, routing each request by its content address on a consistent-
// hash ring so identical programs always land on the same shard's
// cache (fleet-wide compile dedup without shared state).
//
// Usage:
//
//	cmgate [-addr :8340] -shards http://h1:8347,http://h2:8347,...
//	       [-retries 2] [-probe-interval 1s] [-breaker-threshold 3]
//	       [-hedge-min 20ms] [-hedge-max 2s] [-no-hedge] [-no-replicate]
//	       [-keys path]
//
// Multi-tenancy: -keys loads an API-key registry (JSON). The gate
// authenticates Authorization: Bearer / X-CM-Key, charges each
// tenant's token bucket BEFORE routing (a flooding tenant is refused
// with a structured 429 + retry_after_ms without touching any shard),
// and stamps the authenticated identity on forwards as X-CM-Tenant for
// shards started with -trust-gate. SIGHUP reloads the key file in
// place without resetting bucket fill. Unauthenticated requests ride
// the anonymous default tenant.
//
// Robustness behaviour: per-shard health probes feed half-open circuit
// breakers; transport failures fail over along the ring; overload 429s
// are retried -retries times with jittered backoff honoring the
// shard's Retry-After; requests still unanswered after the fleet's p99
// are hedged to the next ring shard (first response wins); compile
// artifacts are copied to a demoted key's new owner before forwarding
// and replicated to the key's ring successor after compiling, so a
// shard loss costs cache affinity, not recompiles.
//
// Endpoints: /v1/compile, /v1/run, /v1/vet, /v1/analyses and
// /v1/artifact/{key} forward to the fleet; /healthz and /metrics
// report the gate's own view.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/tenant"
)

func main() {
	addr := flag.String("addr", ":8340", "listen address")
	shards := flag.String("shards", "", "comma-separated cmserved base URLs (required)")
	retries := flag.Int("retries", 2, "re-attempts after overload sheds or fleet-unreachable passes")
	retryBase := flag.Duration("retry-base", 0, "backoff base for re-attempts (0 = default 100ms)")
	probeInterval := flag.Duration("probe-interval", time.Second, "health probe period per shard")
	probeTimeout := flag.Duration("probe-timeout", 0, "per-probe deadline (0 = half the interval)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive transport failures that open a shard's breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-state dwell before a half-open trial (0 = 2x probe interval)")
	hedgeMin := flag.Duration("hedge-min", 20*time.Millisecond, "lower clamp on the p99-derived hedge delay")
	hedgeMax := flag.Duration("hedge-max", 2*time.Second, "upper clamp on the p99-derived hedge delay")
	noHedge := flag.Bool("no-hedge", false, "disable tail-latency request hedging")
	noReplicate := flag.Bool("no-replicate", false, "disable artifact replication to the ring successor")
	keys := flag.String("keys", "", "tenant API-key file (JSON); empty = anonymous only, no limits")
	flag.Parse()
	if flag.NArg() != 0 || *shards == "" {
		fmt.Fprintln(os.Stderr, "usage: cmgate [-addr :8340] -shards http://h1:8347,http://h2:8347,...")
		os.Exit(2)
	}
	var urls []string
	for _, u := range strings.Split(*shards, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			urls = append(urls, u)
		}
	}
	var reg *tenant.Registry
	if *keys != "" {
		var err error
		if reg, err = tenant.LoadFile(*keys); err != nil {
			log.Fatalf("cmgate: %v", err)
		}
		log.Printf("loaded tenant registry from %s (%d tenants)", *keys, len(reg.Names()))
	}

	rt, err := fleet.New(fleet.Config{
		Shards:             urls,
		ProbeInterval:      *probeInterval,
		ProbeTimeout:       *probeTimeout,
		BreakerThreshold:   *breakerThreshold,
		BreakerCooldown:    *breakerCooldown,
		Retry:              fleet.RetryPolicy{Max: *retries, Base: *retryBase},
		HedgeAfterMin:      *hedgeMin,
		HedgeAfterMax:      *hedgeMax,
		HedgeDisabled:      *noHedge,
		DisableReplication: *noReplicate,
		Tenants:            reg,
	})
	if err != nil {
		log.Fatalf("cmgate: %v", err)
	}
	rt.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("cmgate listening on %s, fronting %d shard(s)", *addr, len(urls))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for {
		select {
		case err := <-errc:
			log.Fatalf("cmgate: %v", err)
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				// Live key rotation; bucket fill survives, a bad file
				// keeps the previous generation serving.
				if reg == nil {
					log.Printf("cmgate: SIGHUP ignored, no -keys file configured")
					continue
				}
				if err := reg.Reload(); err != nil {
					log.Printf("cmgate: tenant reload failed, keeping generation %d: %v", reg.Generation(), err)
				} else {
					log.Printf("cmgate: tenant registry reloaded, generation %d (%d tenants)",
						reg.Generation(), len(reg.Names()))
				}
				continue
			}
			log.Printf("cmgate: %v, shutting down", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := httpSrv.Shutdown(ctx); err != nil {
				log.Printf("cmgate: shutdown: %v", err)
			}
			// After the listener drains, stop probers and wait out any
			// in-flight background replication.
			rt.Close()
			return
		}
	}
}
