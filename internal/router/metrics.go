package router

import (
	"repro/internal/obs"
)

// WriteMetrics renders the router's own metric surface: routing
// counters, per-replica dispatch state labeled replica="<url>", and
// the request/sub-batch latency histograms. It
// deliberately does NOT fetch replica /stats the way the JSON /stats
// endpoint does — a scrape must stay local and cheap; each replica
// exposes its own /metrics for the fleet view, and the replica label
// here ties the two together.
func (rt *Router) WriteMetrics(g *obs.Gatherer) {
	g.Counter("qcfe_router_requests_total", "Single-query requests routed.", rt.requests.Load())
	g.Counter("qcfe_router_batch_queries_total", "Queries arriving in batch requests.", rt.batchQueries.Load())
	g.Counter("qcfe_router_fanouts_total", "Sub-batches dispatched to replicas.", rt.fanouts.Load())
	g.Counter("qcfe_router_retries_total", "Queries re-routed to a fallback replica.", rt.retries.Load())
	g.Counter("qcfe_router_errors_total", "Routed requests that returned an error.", rt.errors.Load())
	g.Counter("qcfe_router_rollouts_total", "Successful fleet rollouts.", rt.rollouts.Load())
	g.Counter("qcfe_router_rollbacks_total", "Rollouts aborted and rolled back.", rt.rollbacks.Load())
	g.Gauge("qcfe_router_uptime_seconds", "Seconds since this router object was constructed.", rt.Uptime().Seconds())

	healthy := 0
	for _, rep := range rt.replicas {
		lbl := obs.L("replica", rep.id)
		up := 0.0
		if rep.healthy.Load() {
			up = 1.0
			healthy++
		}
		_, trips := rep.breaker.snapshot()
		g.Gauge("qcfe_router_replica_healthy", "1 when the replica's last probe or request succeeded.", up, lbl)
		g.Counter("qcfe_router_replica_requests_total", "Queries dispatched to this replica (sub-batches count their size).", rep.requests.Load(), lbl)
		g.Counter("qcfe_router_replica_failures_total", "Replica-fault round trips.", rep.failures.Load(), lbl)
		g.Counter("qcfe_router_breaker_trips_total", "Circuit-breaker trips for this replica.", trips, lbl)
	}
	g.Gauge("qcfe_router_replicas", "Fleet size.", float64(len(rt.replicas)))
	g.Gauge("qcfe_router_replicas_healthy", "Replicas currently considered healthy.", float64(healthy))

	g.Histogram("qcfe_router_request_seconds", "Whole routed request latency (scatter through merge).", rt.histRequest.Snapshot())
	for _, rep := range rt.replicas {
		g.Histogram("qcfe_router_subbatch_seconds", "Per-replica sub-batch round-trip latency.", rep.histSub.Snapshot(), obs.L("replica", rep.id))
	}
}
