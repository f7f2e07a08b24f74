package serve

import (
	"errors"
	"net/http"

	qcfe "repro"
	"repro/internal/httpx"
	"repro/internal/obs"
)

// HTTP request/response bodies. The /estimate_batch response shape
// ({"ms":[...]}) is deliberately identical to qcfe-bench's -load
// -estimate output, so the CI smoke test can diff the server against the
// library byte for byte.

// EstimateRequest is the /estimate body.
type EstimateRequest struct {
	Env int    `json:"env"`
	SQL string `json:"sql"`
	// Tenant optionally names the tenant in a multi-tenant deployment
	// (the X-QCFE-Tenant header takes precedence). Ignored by a
	// single-tenant Server.
	Tenant string `json:"tenant,omitempty"`
}

// EstimateResponse is the /estimate reply. Degraded is set only by the
// multi-tenant registry when the answer came from the rung-3 analytic
// fallback instead of the serving model; omitempty keeps un-degraded
// replies byte-identical to a single-tenant server's.
type EstimateResponse struct {
	Ms       float64 `json:"ms"`
	Degraded bool    `json:"degraded,omitempty"`
}

// BatchRequest is the /estimate_batch body.
type BatchRequest struct {
	Env    int      `json:"env"`
	SQLs   []string `json:"sqls"`
	Tenant string   `json:"tenant,omitempty"`
}

// BatchResponse is the /estimate_batch reply. Degraded is set when at
// least one element was priced by the rung-3 analytic fallback (warm
// prediction-tier hits in the same batch keep their full-fidelity
// values); absent on the full NN path.
type BatchResponse struct {
	Ms       []float64 `json:"ms"`
	Degraded bool      `json:"degraded,omitempty"`
}

// ShadowRequest is the /shadow body: a query plus the latency the
// client actually observed for it — opportunistic ground truth.
type ShadowRequest struct {
	Env      int     `json:"env"`
	SQL      string  `json:"sql"`
	ActualMs float64 `json:"actual_ms"`
	Tenant   string  `json:"tenant,omitempty"`
}

// ShadowResponse is the /shadow reply: the live model's estimate
// scored against the client's observation. Recorded reports whether a
// drift monitor consumed the label.
type ShadowResponse struct {
	Ms       float64 `json:"ms"`
	QError   float64 `json:"q_error"`
	Recorded bool    `json:"recorded"`
}

// HealthResponse is the /healthz reply. Generation identifies the
// artifact this replica currently serves (16 hex digits — see
// GenerationString); the router's rollout gate reads it to verify a
// committed swap actually landed. Replica echoes Options.Advertise.
type HealthResponse struct {
	Status     string  `json:"status"`
	Model      string  `json:"model"`
	Benchmark  string  `json:"benchmark"`
	Envs       int     `json:"envs"`
	Generation string  `json:"generation"`
	Replica    string  `json:"replica,omitempty"`
	UptimeS    float64 `json:"uptime_s"`
}

// StatsResponse is the /stats reply. Cache is present only when the
// estimator has a query cache attached; its per-tier hit/miss/size
// counters come straight from internal/qcache. Drift is present only
// when a drift monitor is attached (qcfe-serve -adapt) and carries
// internal/online's rolling q-error and retrain/swap counters. The
// router fetches this per replica and merges the serve, cache, and
// drift blocks into its fleet-wide /stats.
type StatsResponse struct {
	Stats
	Cache *qcfe.CacheStats `json:"cache,omitempty"`
	Drift any              `json:"drift,omitempty"`
}

// Handler returns the HTTP API over the server:
//
//	POST /estimate        {"env":0,"sql":"..."}        → {"ms":1.23}
//	POST /estimate_batch  {"env":0,"sqls":["...",...]} → {"ms":[...]}
//	POST /shadow          {"env":0,"sql":"...","actual_ms":1.2} → {"ms":..,"q_error":..}
//	GET  /healthz                                      → status + model identity + generation
//	GET  /stats                                        → serving counters
//	POST /swap            admin: stage/commit/rollback an artifact swap
//	GET  /generation      admin: serving + staged artifact generations
//
// plus the shared endpoints of httpx.NewMux. The admin endpoints are
// gated by Options.AdminToken; see admin.go for the two-phase swap
// protocol.
//
// A single estimate that misses the cache is priced on its request's
// own goroutine; a batch estimate runs through the batched inference
// path under the request's context, so a disconnecting client cancels
// its planning fan-out. Shadow requests score the live model against
// client-observed ground truth and feed the drift monitor when online
// adaptation is enabled.
func (s *Server) Handler() http.Handler {
	mux := httpx.NewMux(s.tracer, s.opts.AdminToken, func(g *obs.Gatherer) { s.WriteMetrics(g) })
	mux.HandleFunc("/estimate", httpx.Traced(s.tracer, "estimate", func(w http.ResponseWriter, r *http.Request) {
		var req EstimateRequest
		if !httpx.DecodeJSON(w, r, httpx.MaxBody, &req) {
			return
		}
		ms, err := s.Estimate(r.Context(), req.Env, req.SQL)
		if err != nil {
			httpx.WriteError(w, httpx.StatusFor(err), err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, EstimateResponse{Ms: ms})
	}))
	mux.HandleFunc("/estimate_batch", httpx.Traced(s.tracer, "estimate_batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if !httpx.DecodeJSON(w, r, httpx.MaxBody, &req) {
			return
		}
		ms, err := s.EstimateBatch(r.Context(), req.Env, req.SQLs)
		if err != nil {
			httpx.WriteError(w, httpx.StatusFor(err), err)
			return
		}
		if ms == nil {
			ms = []float64{}
		}
		httpx.WriteJSON(w, http.StatusOK, BatchResponse{Ms: ms})
	}))
	mux.HandleFunc("/shadow", func(w http.ResponseWriter, r *http.Request) {
		var req ShadowRequest
		if !httpx.DecodeJSON(w, r, httpx.MaxBody, &req) {
			return
		}
		if req.ActualMs <= 0 {
			httpx.WriteError(w, http.StatusBadRequest, errors.New("actual_ms must be positive"))
			return
		}
		env, err := s.EnvByID(req.Env)
		if err != nil {
			s.errors.Add(1)
			httpx.WriteError(w, http.StatusBadRequest, err)
			return
		}
		// Score against the live model directly: shadow traffic is
		// observability, not latency-sensitive serving. A panic while
		// pricing fails only this request, as on /estimate.
		est := s.Estimator()
		ms, err := priced(func() (float64, error) { return est.EstimateSQL(env, req.SQL) })
		if err != nil {
			s.errors.Add(1)
			httpx.WriteError(w, httpx.StatusFor(err), err)
			return
		}
		resp := ShadowResponse{Ms: ms, QError: qcfe.QError(req.ActualMs, ms)}
		if s.monitor != nil {
			resp.Recorded = s.monitor.ObserveLabeled(env, req.SQL, ms, req.ActualMs, est)
		}
		httpx.WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !httpx.RequireGet(w, r) {
			return
		}
		est := s.Estimator()
		httpx.WriteJSON(w, http.StatusOK, HealthResponse{
			Status:     "ok",
			Model:      est.ModelName(),
			Benchmark:  est.BenchmarkName(),
			Envs:       len(est.Environments()),
			Generation: GenerationString(est.Generation()),
			Replica:    s.opts.Advertise,
			UptimeS:    s.Uptime().Seconds(),
		})
	})
	mux.HandleFunc("/swap", s.handleSwap)
	mux.HandleFunc("/generation", s.handleGeneration)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if httpx.RequireGet(w, r) {
			httpx.WriteJSON(w, http.StatusOK, s.StatsSnapshot())
		}
	})
	return mux
}

// StatsSnapshot assembles the /stats reply body: serving counters plus
// the cache and drift blocks when present. The multi-tenant registry
// embeds one per tenant, so a tenant's block carries exactly what the
// same server would report standalone.
func (s *Server) StatsSnapshot() StatsResponse {
	resp := StatsResponse{Stats: s.Stats()}
	if cs, ok := s.Estimator().CacheStats(); ok {
		resp.Cache = &cs
	}
	if s.monitor != nil {
		resp.Drift = s.monitor.DriftStats()
	}
	return resp
}
