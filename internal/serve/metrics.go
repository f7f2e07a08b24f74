package serve

import (
	qcfe "repro"
	"repro/internal/obs"
)

// Prometheus exposition for one Server. WriteMetrics renders the whole
// serving surface — request counters, query-cache tiers, latency
// histograms, and the drift monitor when attached — into a scrape. It
// reads through the same Stats()/CacheStats() snapshot paths /stats
// uses, so the two surfaces can never disagree about what a counter
// means. The extra labels are prepended to every sample: the
// multi-tenant registry passes tenant="...", so one registry scrape is
// the union of its tenants' servers with the tenant dimension attached.
func (s *Server) WriteMetrics(g *obs.Gatherer, extra ...obs.Label) {
	st := s.Stats()
	g.Counter("qcfe_serve_requests_total", "Single-query estimate requests.", st.Requests, extra...)
	g.Counter("qcfe_serve_batch_requests_total", "Queries arriving through explicit client batches.", st.BatchRequests, extra...)
	g.Counter("qcfe_serve_misses_total", "Single-query misses priced.", st.Flushes, extra...)
	g.Counter("qcfe_serve_cache_hits_total", "Requests served straight from the prediction tier.", st.CacheHits, extra...)
	g.Counter("qcfe_serve_swaps_total", "Estimator hot swaps installed.", st.Swaps, extra...)
	g.Counter("qcfe_serve_errors_total", "Requests that returned an error.", st.Errors, extra...)
	g.Gauge("qcfe_serve_uptime_seconds", "Seconds since this server object was constructed.", s.Uptime().Seconds(), extra...)

	if cs, ok := s.Estimator().CacheStats(); ok {
		g.Gauge("qcfe_qcache_generation", "Cache generation currently stamped on entries.", float64(cs.Generation), extra...)
		g.Gauge("qcfe_qcache_capacity_per_tier", "Configured per-tier entry capacity.", float64(cs.Capacity), extra...)
		for _, t := range []struct {
			name string
			ts   qcfe.CacheTierStats
		}{
			{"template", cs.Template},
			{"feature", cs.Feature},
			{"prediction", cs.Prediction},
		} {
			lbl := append(append([]obs.Label{}, extra...), obs.L("tier", t.name))
			g.Counter("qcfe_qcache_hits_total", "Query-cache lookups answered by this tier.", t.ts.Hits, lbl...)
			g.Counter("qcfe_qcache_misses_total", "Query-cache lookups this tier could not answer.", t.ts.Misses, lbl...)
			g.Counter("qcfe_qcache_stores_total", "Entries written into this tier.", t.ts.Stores, lbl...)
			g.Counter("qcfe_qcache_evictions_total", "Entries evicted from this tier.", t.ts.Evictions, lbl...)
			g.Gauge("qcfe_qcache_size", "Entries currently resident in this tier.", float64(t.ts.Size), lbl...)
		}
	}

	g.Histogram("qcfe_serve_warm_hit_seconds", "Latency of warm prediction-tier hits (Estimate/EstimateCached).", s.histWarm.Snapshot(), extra...)
	g.Histogram("qcfe_serve_miss_seconds", "Latency of priced single-query misses (Estimate).", s.histMiss.Snapshot(), extra...)
	for _, t := range []struct {
		name string
		h    *obs.Histogram
	}{
		{"template", s.histCacheTpl},
		{"feature", s.histCacheFeat},
		{"prediction", s.histCachePred},
	} {
		lbl := append(append([]obs.Label{}, extra...), obs.L("tier", t.name))
		g.Histogram("qcfe_qcache_lookup_seconds", "Query-cache per-tier lookup latency (hits and misses).", t.h.Snapshot(), lbl...)
	}

	if s.monitor != nil {
		if mw, ok := s.monitor.DriftStats().(obs.MetricsWriter); ok {
			mw.WriteMetrics(g, extra...)
		}
	}
}
