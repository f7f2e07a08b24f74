package tenant

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"repro/internal/httpx"
	"repro/internal/serve"
)

// Handler returns the registry's HTTP API — the same data-plane shapes
// a single-tenant replica serves, plus tenant resolution and the
// degradation ladder:
//
//	POST /estimate        {"env":0,"sql":"...","tenant":"a"} → {"ms":1.23[,"degraded":true]}
//	POST /estimate_batch  {"env":0,"sqls":[...],"tenant":"a"} → {"ms":[...][,"degraded":true]}
//	POST /shadow          per-tenant ground-truth submission (delegated)
//	GET  /healthz         all tenants' identities; with X-QCFE-Tenant, that tenant's replica-shaped health
//	GET  /stats           admission + ladder counters with a per-tenant block each
//	POST /swap            admin, tenant from X-QCFE-Tenant (delegated)
//	GET  /generation      admin, tenant from X-QCFE-Tenant (delegated)
//
// plus the shared endpoints of httpx.NewMux. The tenant is resolved from the X-QCFE-Tenant header first, then the
// body's "tenant" field; with exactly one hosted tenant both may be
// omitted. Un-degraded replies are byte-identical to a single-tenant
// server's (the "degraded" flag is omitempty), and a shed request gets
// 429 with a Retry-After header.
//
// /shadow, /swap, and /generation delegate to the resolved tenant's
// own serve handler, so the per-tenant admin and observability planes
// are exactly the single-tenant ones.
func (r *Registry) Handler() http.Handler {
	handlers := make(map[string]http.Handler, len(r.tenants))
	for name, t := range r.tenants {
		handlers[name] = t.srv.Handler()
	}
	delegate := func(w http.ResponseWriter, req *http.Request, sniffBody bool) {
		name := req.Header.Get(httpx.TenantHeader)
		if name == "" && sniffBody {
			name = tenantFromBody(req)
		}
		t, err := r.Tenant(name)
		if err != nil {
			httpx.WriteError(w, http.StatusBadRequest, err)
			return
		}
		handlers[t.name].ServeHTTP(w, req)
	}

	mux := httpx.NewMux(r.tracer, r.opts.Serve.AdminToken, r.WriteMetrics)
	mux.HandleFunc("/estimate", httpx.Traced(r.tracer, "estimate", func(w http.ResponseWriter, req *http.Request) {
		var body serve.EstimateRequest
		if !httpx.DecodeJSON(w, req, httpx.MaxBody, &body) {
			return
		}
		ms, degraded, err := r.Estimate(req.Context(), httpx.Tenant(req, body.Tenant), body.Env, body.SQL)
		if err != nil {
			r.writeEstimateError(w, err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, serve.EstimateResponse{Ms: ms, Degraded: degraded})
	}))
	mux.HandleFunc("/estimate_batch", httpx.Traced(r.tracer, "estimate_batch", func(w http.ResponseWriter, req *http.Request) {
		var body serve.BatchRequest
		if !httpx.DecodeJSON(w, req, httpx.MaxBody, &body) {
			return
		}
		ms, degraded, err := r.EstimateBatch(req.Context(), httpx.Tenant(req, body.Tenant), body.Env, body.SQLs)
		if err != nil {
			r.writeEstimateError(w, err)
			return
		}
		if ms == nil {
			ms = []float64{}
		}
		httpx.WriteJSON(w, http.StatusOK, serve.BatchResponse{Ms: ms, Degraded: degraded})
	}))
	mux.HandleFunc("/shadow", func(w http.ResponseWriter, req *http.Request) {
		delegate(w, req, true)
	})
	mux.HandleFunc("/swap", func(w http.ResponseWriter, req *http.Request) {
		delegate(w, req, false)
	})
	mux.HandleFunc("/generation", func(w http.ResponseWriter, req *http.Request) {
		delegate(w, req, false)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		if name := req.Header.Get(httpx.TenantHeader); name != "" {
			delegate(w, req, false)
			return
		}
		if !httpx.RequireGet(w, req) {
			return
		}
		resp := HealthResponse{
			Status:  "ok",
			Tenants: make(map[string]serve.HealthResponse, len(r.tenants)),
			UptimeS: r.Uptime().Seconds(),
		}
		for name, t := range r.tenants {
			est := t.srv.Estimator()
			resp.Tenants[name] = serve.HealthResponse{
				Status:     "ok",
				Model:      est.ModelName(),
				Benchmark:  est.BenchmarkName(),
				Envs:       len(est.Environments()),
				Generation: serve.GenerationString(est.Generation()),
				UptimeS:    t.srv.Uptime().Seconds(),
			}
		}
		httpx.WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, req *http.Request) {
		if httpx.RequireGet(w, req) {
			httpx.WriteJSON(w, http.StatusOK, r.Stats())
		}
	})
	return mux
}

// tenantFromBody peeks a delegated POST body for its "tenant" field,
// restoring the body for the downstream handler. Resolution failures
// just return "" — the single-tenant default / error path handles it.
func tenantFromBody(req *http.Request) string {
	raw, err := io.ReadAll(io.LimitReader(req.Body, httpx.MaxBody))
	req.Body = io.NopCloser(bytes.NewReader(raw))
	if err != nil {
		return ""
	}
	var peek struct {
		Tenant string `json:"tenant"`
	}
	if json.Unmarshal(raw, &peek) != nil {
		return ""
	}
	return peek.Tenant
}

// writeEstimateError maps ladder outcomes onto HTTP: shed is 429 with
// Retry-After; the rest follow httpx.StatusFor.
func (r *Registry) writeEstimateError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrShed) {
		w.Header().Set("Retry-After", strconv.Itoa(r.opts.RetryAfter))
		httpx.WriteError(w, http.StatusTooManyRequests, err)
		return
	}
	httpx.WriteError(w, httpx.StatusFor(err), err)
}

// HealthResponse is the registry's aggregate /healthz reply.
type HealthResponse struct {
	Status  string                          `json:"status"`
	Tenants map[string]serve.HealthResponse `json:"tenants"`
	UptimeS float64                         `json:"uptime_s"`
}

// TenantStats is one tenant's /stats block: its fair share, its queue
// and ladder counters, and the same serve/cache/drift blocks a
// single-tenant replica reports.
type TenantStats struct {
	Weight     int                 `json:"weight"`
	ShareNN    int                 `json:"share_nn"`    // guaranteed NN slots
	InflightNN int                 `json:"inflight_nn"` // NN slots held right now
	QueueDepth int                 `json:"queue_depth"` // requests waiting for a slot
	QueueCap   int                 `json:"queue_cap"`   // waiting bound (then: degrade)
	Admitted   int64               `json:"admitted"`    // rung-1 serves
	WarmServed int64               `json:"warm_served"` // rung-2 serves
	Degraded   int64               `json:"degraded"`    // rung-3 serves
	Shed       int64               `json:"shed"`        // 429s
	Generation string              `json:"generation"`  // serving artifact
	Serve      serve.StatsResponse `json:"serve"`
}

// StatsResponse is the registry's /stats reply.
type StatsResponse struct {
	UptimeS          float64                `json:"uptime_s"`
	MaxInflight      int                    `json:"max_inflight"`
	AnalyticInflight int                    `json:"analytic_inflight"`
	QueueDepthCap    int                    `json:"queue_depth_cap"`
	Tenants          map[string]TenantStats `json:"tenants"`
}

// Stats snapshots every tenant's admission and serving counters.
func (r *Registry) Stats() StatsResponse {
	resp := StatsResponse{
		UptimeS:          r.Uptime().Seconds(),
		MaxInflight:      r.opts.MaxInflight,
		AnalyticInflight: r.opts.AnalyticInflight,
		QueueDepthCap:    r.opts.QueueDepth,
		Tenants:          make(map[string]TenantStats, len(r.tenants)),
	}
	for name, t := range r.tenants {
		resp.Tenants[name] = TenantStats{
			Weight:     t.weight,
			ShareNN:    t.bkt.share,
			InflightNN: r.adm.inflight(t.bkt),
			QueueDepth: r.adm.queueDepth(t.bkt),
			QueueCap:   t.bkt.queueCap,
			Admitted:   t.admitted.Load(),
			WarmServed: t.warm.Load(),
			Degraded:   t.degraded.Load(),
			Shed:       t.shed.Load(),
			Generation: serve.GenerationString(t.srv.Estimator().Generation()),
			Serve:      t.srv.StatsSnapshot(),
		}
	}
	return resp
}
