package router

import (
	"errors"
	"net/http"

	"repro/internal/httpx"
	"repro/internal/serve"
)

// Handler returns the router's HTTP API — the same data-plane shapes a
// single replica serves, so clients (and the CI smoke diff) cannot tell
// a router from a replica by its bytes:
//
//	POST /estimate        {"env":0,"sql":"..."}        → {"ms":1.23}
//	POST /estimate_batch  {"env":0,"sqls":["...",...]} → {"ms":[...]}
//	GET  /healthz                                      → fleet health + uniform generation
//	GET  /stats                                        → merged fleet stats
//	POST /rollout         admin: canary-gated fleet artifact rollout
//
// plus the shared endpoints of httpx.NewMux. /rollout is gated by
// Options.AdminToken, mirroring the replica-side /swap surface it drives.
func (rt *Router) Handler() http.Handler {
	mux := httpx.NewMux(rt.tracer, rt.opts.AdminToken, rt.WriteMetrics)
	mux.HandleFunc("/estimate", httpx.Traced(rt.tracer, "estimate", func(w http.ResponseWriter, r *http.Request) {
		var req serve.EstimateRequest
		if !httpx.DecodeJSON(w, r, httpx.MaxBody, &req) {
			return
		}
		ms, err := rt.EstimateTenant(r.Context(), httpx.Tenant(r, req.Tenant), req.Env, req.SQL)
		if err != nil {
			httpx.WriteError(w, statusFor(err), err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, serve.EstimateResponse{Ms: ms})
	}))
	mux.HandleFunc("/estimate_batch", httpx.Traced(rt.tracer, "estimate_batch", func(w http.ResponseWriter, r *http.Request) {
		var req serve.BatchRequest
		if !httpx.DecodeJSON(w, r, httpx.MaxBody, &req) {
			return
		}
		ms, err := rt.EstimateBatchTenant(r.Context(), httpx.Tenant(r, req.Tenant), req.Env, req.SQLs)
		if err != nil {
			httpx.WriteError(w, statusFor(err), err)
			return
		}
		if ms == nil {
			ms = []float64{}
		}
		httpx.WriteJSON(w, http.StatusOK, serve.BatchResponse{Ms: ms})
	}))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !httpx.RequireGet(w, r) {
			return
		}
		healthy := 0
		for _, rep := range rt.replicas {
			if rep.healthy.Load() {
				healthy++
			}
		}
		status := "ok"
		code := http.StatusOK
		if healthy == 0 {
			status = "degraded"
			code = http.StatusServiceUnavailable
		}
		httpx.WriteJSON(w, code, HealthResponse{
			Status:     status,
			Replicas:   len(rt.replicas),
			Healthy:    healthy,
			Generation: rt.uniformGeneration(),
			UptimeS:    rt.Uptime().Seconds(),
		})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if httpx.RequireGet(w, r) {
			httpx.WriteJSON(w, http.StatusOK, rt.Stats(r.Context()))
		}
	})
	mux.HandleFunc("/rollout", func(w http.ResponseWriter, r *http.Request) {
		var req RolloutRequest
		if !httpx.Authorized(w, r, rt.opts.AdminToken, "rollout") ||
			!httpx.DecodeJSON(w, r, httpx.MaxArtifactBody, &req) {
			return
		}
		res, err := rt.Rollout(r.Context(), req)
		if err != nil {
			httpx.WriteError(w, http.StatusBadRequest, err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, res)
	})
	return mux
}

// HealthResponse is the router's /healthz reply. Generation is set only
// while every replica's last-known generation agrees — it goes empty
// mid-rollout, which is itself the signal that the fleet is in
// transition.
type HealthResponse struct {
	Status     string  `json:"status"`
	Replicas   int     `json:"replicas"`
	Healthy    int     `json:"healthy"`
	Generation string  `json:"generation,omitempty"`
	UptimeS    float64 `json:"uptime_s"`
}

// statusFor maps a routed failure onto the replica status taxonomy: a
// propagated query fault keeps its original status and replica
// exhaustion is 503 (retryable); the rest follow httpx.StatusFor.
func statusFor(err error) int {
	var re *serve.ReplicaError
	if errors.As(err, &re) {
		return re.Status
	}
	if errors.Is(err, errExhausted) {
		return http.StatusServiceUnavailable
	}
	return httpx.StatusFor(err)
}
