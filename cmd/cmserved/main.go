// cmserved is the compile/run daemon: the extensible CMINUS translator
// behind an HTTP JSON API, amortizing grammar composition, analysis and
// parsing across requests through a shared content-addressed cache.
//
// Usage:
//
//	cmserved [-addr :8347] [-runs N] [-queue N] [-queue-wait d]
//	         [-timeout 10s] [-cachedir path]
//	         [-cache-entries N] [-cache-bytes N]
//	         [-keys path] [-trust-gate]
//
// Overload behaviour: beyond -runs concurrent executions, up to -queue
// requests wait (each at most min(-queue-wait, its own timeout)); the
// rest are shed with 429 + Retry-After (never under 50ms). No request
// may ask for a timeout over 60s. -cachedir enables the durable
// artifact tier: a restarted daemon serves previously compiled
// programs from disk instead of recompiling them.
//
// Multi-tenancy: -keys loads an API-key registry (JSON) enabling
// per-tenant rate limits, max_cells clamps, and weighted-fair
// admission; SIGHUP reloads it in place without resetting anyone's
// rate-limit bucket. -trust-gate accepts the X-CM-Tenant identity
// stamp from a fronting cmgate instead of re-authenticating (never set
// it on a daemon reachable without the gate). Requests without
// credentials stay on the anonymous default tenant, so single-node use
// remains zero-config.
//
// Endpoints (see internal/server):
//
//	POST /v1/compile   {"source": "...", "extensions": "all", "par": "pthread"}
//	POST /v1/run       {"source": "...", "threads": 4, "timeout_ms": 2000}
//	GET  /v1/analyses  §VI analysis report as JSON
//	GET  /healthz      liveness
//	GET  /metrics      counters, cache ratios, stage latency histograms
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/driver"
	"repro/internal/server"
	"repro/internal/tenant"
)

func main() {
	addr := flag.String("addr", ":8347", "listen address")
	runs := flag.Int("runs", 0, "max concurrent interpreter runs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max run requests queued for a slot before shedding (0 = 4x -runs)")
	queueWait := flag.Duration("queue-wait", 0, "max time a run may wait for admission (0 = -timeout)")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-run execution deadline")
	cacheDir := flag.String("cachedir", "", "directory for the durable artifact cache (empty = memory only)")
	cacheEntries := flag.Int("cache-entries", 0, "in-memory cache cap, entries per cache (0 = default)")
	cacheBytes := flag.Int64("cache-bytes", 0, "in-memory cache cap, approximate bytes per cache (0 = default)")
	warm := flag.Bool("warm", true, "pre-build the composed grammar table and §VI analyses at startup")
	shardID := flag.String("shard-id", "", "fleet identity stamped on responses as X-CM-Shard (empty = standalone)")
	keys := flag.String("keys", "", "tenant API-key file (JSON); empty = anonymous only, no limits")
	trustGate := flag.Bool("trust-gate", false, "trust the X-CM-Tenant stamp from a fronting cmgate (only behind the gate)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: cmserved [-addr :8347] [-runs N] [-queue N] [-timeout d] [-cachedir path] [-keys path]")
		os.Exit(2)
	}
	var reg *tenant.Registry
	if *keys != "" {
		var err error
		if reg, err = tenant.LoadFile(*keys); err != nil {
			log.Fatalf("cmserved: %v", err)
		}
		log.Printf("loaded tenant registry from %s (%d tenants)", *keys, len(reg.Names()))
	}

	s := server.New(server.Config{
		Driver: driver.NewWith(driver.Config{
			MaxCacheEntries: *cacheEntries,
			MaxCacheBytes:   *cacheBytes,
			CacheDir:        *cacheDir,
		}),
		MaxConcurrentRuns: *runs,
		RunQueueSize:      *queue,
		MaxQueueWait:      *queueWait,
		DefaultTimeout:    *timeout,
		ShardID:           *shardID,
		Tenants:           reg,
		TrustGateHeader:   *trustGate,
	})
	if *warm {
		// Pay the one-time grammar-composition and analysis cost before
		// accepting traffic rather than on the first request.
		t0 := time.Now()
		driver.Analyses()
		log.Printf("warmed composed grammar + §VI analyses in %s", time.Since(t0))
	}

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("cmserved listening on %s", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for {
		select {
		case err := <-errc:
			log.Fatalf("cmserved: %v", err)
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				// Live key rotation: reload the tenant registry in place.
				// Buckets carry their fill across the swap; a bad file
				// keeps the previous generation serving.
				if reg == nil {
					log.Printf("cmserved: SIGHUP ignored, no -keys file configured")
					continue
				}
				if err := reg.Reload(); err != nil {
					log.Printf("cmserved: tenant reload failed, keeping generation %d: %v", reg.Generation(), err)
				} else {
					log.Printf("cmserved: tenant registry reloaded, generation %d (%d tenants)",
						reg.Generation(), len(reg.Names()))
				}
				continue
			}
			log.Printf("cmserved: %v, shutting down", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			// Drain first: queued runs are shed with structured 429s and
			// in-flight runs finish, then the listener closes.
			if err := s.Drain(ctx); err != nil {
				log.Printf("cmserved: drain: %v", err)
			}
			if err := httpSrv.Shutdown(ctx); err != nil {
				log.Fatalf("cmserved: shutdown: %v", err)
			}
			return
		}
	}
}
