package tenant

import (
	"repro/internal/obs"
)

// WriteMetrics renders the registry's whole metric surface: the shared
// admission budgets, then per tenant — sorted, so scrapes are
// deterministic — the ladder counters, admission gauges, the
// admission-wait and per-rung latency histograms, and the tenant's full
// serve.Server block, every sample labeled tenant="...". One registry
// scrape is therefore the union of what each tenant's server would
// expose standalone, plus the fair-share layer that only exists here.
func (r *Registry) WriteMetrics(g *obs.Gatherer) {
	g.Gauge("qcfe_tenant_max_inflight", "Shared NN-path slot budget.", float64(r.opts.MaxInflight))
	g.Gauge("qcfe_tenant_analytic_inflight", "Shared analytic-path slot budget.", float64(r.adm.anMax))

	for _, name := range r.names {
		t := r.tenants[name]
		lbl := obs.L("tenant", name)
		g.Counter("qcfe_tenant_admitted_total", "Rung-1 admissions (full NN path).", t.admitted.Load(), lbl)
		g.Counter("qcfe_tenant_warm_total", "Rung-2 serves (prediction-tier hits, bypass admission).", t.warm.Load(), lbl)
		g.Counter("qcfe_tenant_degraded_total", "Rung-3 serves (analytic fallback, flagged degraded).", t.degraded.Load(), lbl)
		g.Counter("qcfe_tenant_shed_total", "Requests shed past every ladder rung (429).", t.shed.Load(), lbl)
		g.Gauge("qcfe_tenant_share_nn", "Guaranteed NN slot floor.", float64(t.bkt.share), lbl)
		g.Gauge("qcfe_tenant_inflight_nn", "NN slots held right now.", float64(r.adm.inflight(t.bkt)), lbl)
		g.Gauge("qcfe_tenant_queue_depth", "Requests waiting for an NN slot.", float64(r.adm.queueDepth(t.bkt)), lbl)

		g.Histogram("qcfe_tenant_admission_wait_seconds", "Time spent acquiring an NN slot (or deciding to degrade).", t.histAdmit.Snapshot(), lbl)
		for _, rung := range []struct {
			name string
			h    *obs.Histogram
		}{
			{"nn", t.histRungNN},
			{"warm", t.histRungWarm},
			{"degraded", t.histRungAna},
		} {
			g.Histogram("qcfe_tenant_rung_seconds", "End-to-end serve latency by the ladder rung that answered.", rung.h.Snapshot(), lbl, obs.L("rung", rung.name))
		}

		t.srv.WriteMetrics(g, lbl)
	}
}
