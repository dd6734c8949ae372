package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/driver"
	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/tenant"
)

// tenantKeys is the two-tenant registry every fleet member loads. The
// quotas are far above anything a closed loop of a few clients can
// reach, so they never bind; the tenant path is still walked on every
// request.
const tenantKeys = `{"tenants": [
	{"name": "acme", "keys": ["k-acme"], "rate_per_sec": 1000000, "burst": 1000000},
	{"name": "globex", "keys": ["k-globex"], "rate_per_sec": 1000000, "burst": 1000000}
]}`

var apiKeys = []string{"k-acme", "k-globex"}

const shardCount = 2

// fleetEnv is the system under test for the serve workloads: one
// fleet.Router (cmgate) in front of two server.Server shards
// (cmserved), each with its own driver, on real loopback listeners,
// configured as the daemons' flag defaults configure them.
type fleetEnv struct {
	gateURL   string
	shardURLs []string
	rt        *fleet.Router
	servers   []*http.Server
	client    *http.Client // the benchmark's clients share it, as one load generator would
}

// startFleet builds and starts the fleet. Every layer boundary the
// harness itself constructs is wrapped for the traced pass: the gate's
// handler, the gate's forwarding transport, and each shard's handler.
func startFleet(tr *tracer, clients int) (*fleetEnv, error) {
	f := &fleetEnv{}
	listen := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h}
		f.servers = append(f.servers, srv)
		go srv.Serve(ln) // returns ErrServerClosed once close shuts srv down
		return "http://" + ln.Addr().String(), nil
	}
	for i := 0; i < shardCount; i++ {
		reg, err := tenant.NewRegistry([]byte(tenantKeys))
		if err != nil {
			return nil, err
		}
		s := server.New(server.Config{
			Driver:          driver.New(),
			ShardID:         "s" + strconv.Itoa(i),
			Tenants:         reg,
			TrustGateHeader: true,
		})
		url, err := listen(spanHandler(tr, "server.handle", s.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		f.shardURLs = append(f.shardURLs, url)
	}
	reg, err := tenant.NewRegistry([]byte(tenantKeys))
	if err != nil {
		f.close()
		return nil, err
	}
	f.rt, err = fleet.New(fleet.Config{
		Shards:    f.shardURLs,
		Retry:     fleet.RetryPolicy{Max: 2}, // cmgate's -retries default
		Tenants:   reg,
		Transport: spanTransport{tr, http.DefaultTransport.(*http.Transport).Clone()},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.rt.Start()
	if f.gateURL, err = listen(spanHandler(tr, "fleet.handle", f.rt.Handler())); err != nil {
		f.close()
		return nil, err
	}
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = clients // one kept-alive connection per closed-loop client
	f.client = &http.Client{Transport: t, Timeout: 30 * time.Second}
	return f, nil
}

// close shuts the listeners down, stops the router's probers and waits
// for both.
func (f *fleetEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range f.servers {
		s.Shutdown(ctx)
	}
	if f.rt != nil {
		f.rt.Close()
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
}

// opID reads the op id a traced request carries as ?op=<id>. The gate
// forwards the request URI verbatim, so the id reaches every boundary.
func opID(r *http.Request) (int64, bool) {
	v := r.URL.Query().Get("op")
	if v == "" {
		return 0, false
	}
	id, err := strconv.ParseInt(v, 10, 64)
	return id, err == nil
}

// spanHandler records a span around next for requests that carry an op
// id while the tracer is armed.
func spanHandler(tr *tracer, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.armed.Load() {
			next.ServeHTTP(w, r)
			return
		}
		id, ok := opID(r)
		t0 := time.Now()
		next.ServeHTTP(w, r)
		if ok {
			tr.add(id, name, t0, time.Now())
		}
	})
}

// spanTransport is the gate's forwarding transport: one fleet.forward
// span per attempt, closed when the shard's response has been read to
// its end (a forward is not over when the headers arrive).
type spanTransport struct {
	tr   *tracer
	next http.RoundTripper
}

func (s spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !s.tr.armed.Load() {
		return s.next.RoundTrip(r)
	}
	id, ok := opID(r)
	t0 := time.Now()
	resp, err := s.next.RoundTrip(r)
	if !ok {
		return resp, err
	}
	if err != nil {
		s.tr.add(id, "fleet.forward", t0, time.Now())
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { s.tr.add(id, "fleet.forward", t0, time.Now()) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	done func()
}

func (b *spanBody) Close() error {
	if b.done != nil {
		b.done()
		b.done = nil
	}
	return b.ReadCloser.Close()
}

// metricsDoc fetches a daemon's /metrics document, as an operator
// would, flattened to dotted numeric leaves ("driver.vm_cache_hits").
func (f *fleetEnv) metricsDoc(base string) (map[string]float64, error) {
	resp, err := f.client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", base, err)
	}
	out := map[string]float64{}
	flatten("", doc, out)
	return out, nil
}

// flatten copies the numeric leaves of a decoded JSON object into out
// under dotted keys; arrays (histogram buckets, per-shard rows) are
// not counters and are skipped.
func flatten(prefix string, doc map[string]any, out map[string]float64) {
	for k, v := range doc {
		switch v := v.(type) {
		case float64:
			out[prefix+k] = v
		case map[string]any:
			flatten(prefix+k+".", v, out)
		}
	}
}
