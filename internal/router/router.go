// Package router is the distributed serving front end: a fleet of
// qcfe-serve replicas behind one HTTP endpoint that consistent-hashes
// query fingerprints across them, scatter/gathers batch requests, and
// rolls new artifact generations through the fleet with a health-gated
// canary and automatic rollback.
//
// The determinism contract carries over from every layer below: a
// routed answer is bit-identical to a single-process EstimateBatch on
// the same artifact, for any replica count, any batch permutation, and
// mid-rollout (where each answer is wholly one generation's — never a
// blend). Three design rules make that hold:
//
//   - Routing is a pure function of the query text: the ring places
//     sqlparse.RoutingHash (the hash of the normalized fingerprint), so
//     placement depends on nothing dynamic.
//   - Failover is deterministic: a query that cannot be served by its
//     primary retries on the key's ring-walk successor, a fixed order —
//     and since every replica serves the same artifact bytes, the
//     answer is the same no matter which replica produced it.
//   - Gather is index-addressed: sub-batch replies land in the caller's
//     original slots, so merge order never depends on completion order.
package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Options configures a Router.
type Options struct {
	// Vnodes is the number of ring points per replica (default 64).
	Vnodes int
	// Timeout bounds each replica round trip, data plane and health
	// probes alike (default 5s). A hung replica costs one timeout, then
	// its queries move to their ring successors.
	Timeout time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// replica's breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker diverts traffic
	// before admitting a half-open probe (default 2s).
	BreakerCooldown time.Duration
	// MaxAttempts bounds how many replicas one query may try (primary
	// plus fallbacks; default: the fleet size).
	MaxAttempts int
	// RetryBackoff is the pause before each retry round (default 10ms,
	// doubling per round). Applies between rounds, not per query.
	RetryBackoff time.Duration
	// HealthInterval is the background /healthz poll period for Run
	// (default 2s).
	HealthInterval time.Duration
	// AdminToken authenticates two surfaces with one shared secret: the
	// router's own /rollout endpoint requires it from callers, and the
	// router presents it to replicas' /swap admin endpoints. Empty
	// disables rollout entirely.
	AdminToken string
	// RolloutBakeTime is a pause after each replica's canary-gated
	// commit before the rollout proceeds to the next replica, letting
	// live traffic bake on the new generation while most of the fleet
	// still serves the old one (default 0: proceed immediately).
	RolloutBakeTime time.Duration
	// Client, when non-nil, overrides the HTTP client used for replica
	// round trips (tests inject httptest clients); Timeout still
	// applies per request via context.
	Client *http.Client
	// SlowQueryThreshold, when positive, logs every routed request
	// slower than this as one structured JSON line on stderr (trace ID,
	// per-replica sub-batch spans, total duration). Zero disables it.
	SlowQueryThreshold time.Duration
}

func (o Options) withDefaults() Options {
	if o.Vnodes <= 0 {
		o.Vnodes = 64
	}
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 2 * time.Second
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 10 * time.Millisecond
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = 2 * time.Second
	}
	return o
}

// replica is one fleet member: its client, breaker, and the health
// state the background loop maintains.
type replica struct {
	id      string // the replica's base URL; doubles as its ring identity
	client  *serve.Client
	breaker *breaker

	healthy  atomic.Bool    // last health probe or request outcome
	lastGen  atomic.Value   // string: generation from the last successful /healthz
	requests atomic.Int64   // queries sent (sub-batches count their size)
	failures atomic.Int64   // replica-fault round trips
	histSub  *obs.Histogram // sub-batch round-trip latency to this replica
}

// Router fans requests out over the replica fleet. Construct with New;
// optionally start the health loop with Run; serve through Handler or
// the Estimate/EstimateBatch/Rollout methods directly.
type Router struct {
	opts     Options
	replicas []*replica
	ring     *ring
	start    time.Time

	requests     atomic.Int64 // single-query requests routed
	batchQueries atomic.Int64 // queries arriving in batch requests
	fanouts      atomic.Int64 // sub-batches dispatched
	retries      atomic.Int64 // queries re-routed to a fallback replica
	errors       atomic.Int64 // requests that returned an error
	rollouts     atomic.Int64 // successful fleet rollouts
	rollbacks    atomic.Int64 // rollouts aborted and rolled back

	histRequest *obs.Histogram // whole routed request (scatter → merge)
	tracer      *obs.Tracer    // router-edge trace ring + slow-query log
}

// New builds a router over the replica base URLs. The URL list is the
// fleet identity: ring placement hashes these exact strings, so keep
// them stable across router restarts (use the same addresses, in any
// order — placement is order-independent).
func New(replicaURLs []string, opts Options) (*Router, error) {
	o := opts.withDefaults()
	rg, err := newRing(replicaURLs, o.Vnodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		opts:        o,
		ring:        rg,
		start:       time.Now(),
		histRequest: obs.NewHistogram(),
		tracer:      obs.NewTracer(0, o.SlowQueryThreshold, os.Stderr),
	}
	for _, u := range replicaURLs {
		rep := &replica{
			id:      u,
			client:  &serve.Client{BaseURL: u, HTTP: o.Client, AdminToken: o.AdminToken},
			breaker: newBreaker(o.BreakerThreshold, o.BreakerCooldown),
			histSub: obs.NewHistogram(),
		}
		rep.healthy.Store(true) // optimistic until a probe or request says otherwise
		rep.lastGen.Store("")
		rt.replicas = append(rt.replicas, rep)
	}
	return rt, nil
}

// Replicas returns the fleet's IDs in configured order.
func (rt *Router) Replicas() []string {
	ids := make([]string, len(rt.replicas))
	for i, r := range rt.replicas {
		ids[i] = r.id
	}
	return ids
}

// Run polls every replica's /healthz on Options.HealthInterval until
// ctx is cancelled. A successful probe marks the replica healthy,
// records its advertised generation, and — acting as the half-open
// probe for a tripped breaker — re-closes the breaker so traffic
// returns without waiting for a live request to gamble on it. A failed
// probe marks it unhealthy and feeds the breaker.
func (rt *Router) Run(ctx context.Context) error {
	ticker := time.NewTicker(rt.opts.HealthInterval)
	defer ticker.Stop()
	for {
		rt.probeAll(ctx)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// probeAll health-checks the whole fleet once (sequentially: fleet
// sizes here are small and probes are cheap).
func (rt *Router) probeAll(ctx context.Context) {
	for _, rep := range rt.replicas {
		pctx, cancel := context.WithTimeout(ctx, rt.opts.Timeout)
		h, err := rep.client.Healthz(pctx)
		cancel()
		now := time.Now()
		if err != nil || h.Status != "ok" {
			rep.healthy.Store(false)
			rep.breaker.allow(now) // claim the half-open slot if one is being offered
			rep.breaker.failure(now)
			continue
		}
		rep.healthy.Store(true)
		rep.lastGen.Store(h.Generation)
		rep.breaker.success()
	}
}

// uniformGeneration returns the fleet's generation when every replica's
// last-known generation agrees, or "" when they differ or are unknown —
// the /healthz "mixed generations" signal during a rollout.
func (rt *Router) uniformGeneration() string {
	gen := ""
	for _, rep := range rt.replicas {
		g, _ := rep.lastGen.Load().(string)
		if g == "" {
			return ""
		}
		if gen == "" {
			gen = g
		} else if g != gen {
			return ""
		}
	}
	return gen
}

// Uptime reports how long the router object has existed.
func (rt *Router) Uptime() time.Duration { return time.Since(rt.start) }

// errExhausted marks a query that failed on every replica its failover
// sequence permits — a fleet-wide outage from this query's perspective,
// reported as 503 (retryable) rather than blaming the request.
var errExhausted = errors.New("all permitted replicas failed")

// errAllAttemptsFailed is the routed request's terminal failure.
func errAllAttemptsFailed(attempts int, last error) error {
	return fmt.Errorf("router: %w (%d attempts, last: %v)", errExhausted, attempts, last)
}
