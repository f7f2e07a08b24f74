package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	qcfe "repro"
	"repro/internal/obs"
)

// HTTP request/response bodies. The /estimate_batch response shape
// ({"ms":[...]}) is deliberately identical to qcfe-bench's -load
// -estimate output, so the CI smoke test can diff the server against the
// library byte for byte.

// TenantHeader names the tenant a request belongs to in a multi-tenant
// deployment (internal/tenant). The header wins over the body's
// "tenant" field when both are set; a single-tenant Server accepts and
// ignores both, so one client works against either deployment shape.
const TenantHeader = "X-QCFE-Tenant"

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
	MaxBatch int              `json:"max_batch"`
	Cache    *qcfe.CacheStats `json:"cache,omitempty"`
	Drift    any              `json:"drift,omitempty"`
}

// errorResponse is every error reply.
type errorResponse struct {
	Error string `json:"error"`
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
// The /swap and /generation admin endpoints require the
// X-QCFE-Admin-Token header to match Options.AdminToken and are
// disabled (403) when no token is configured; see admin.go for the
// two-phase swap protocol.
//
// Single estimates coalesce with concurrent requests into micro-batches;
// batch estimates run directly through the batched inference path. Both
// carry the request's context, so a disconnecting client cancels its
// planning fan-out. Shadow requests score the live model against
// client-observed ground truth and feed the drift monitor when online
// adaptation is enabled.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/estimate", s.traced("estimate", func(w http.ResponseWriter, r *http.Request) {
		var req EstimateRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		ms, err := s.Estimate(r.Context(), req.Env, req.SQL)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, EstimateResponse{Ms: ms})
	}))
	mux.HandleFunc("/estimate_batch", s.traced("estimate_batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		ms, err := s.EstimateBatch(r.Context(), req.Env, req.SQLs)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		if ms == nil {
			ms = []float64{}
		}
		writeJSON(w, http.StatusOK, BatchResponse{Ms: ms})
	}))
	mux.HandleFunc("/shadow", func(w http.ResponseWriter, r *http.Request) {
		var req ShadowRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		if req.ActualMs <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("actual_ms must be positive"))
			return
		}
		env, err := s.EnvByID(req.Env)
		if err != nil {
			s.errors.Add(1)
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// Score against the live model directly (no coalescing: shadow
		// traffic is observability, not latency-sensitive serving).
		est := s.Estimator()
		ms, err := est.EstimateSQL(env, req.SQL)
		if err != nil {
			s.errors.Add(1)
			writeError(w, statusFor(err), err)
			return
		}
		resp := ShadowResponse{Ms: ms, QError: qcfe.QError(req.ActualMs, ms)}
		if s.monitor != nil {
			resp.Recorded = s.monitor.ObserveLabeled(env, req.SQL, ms, req.ActualMs, est)
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !requireGet(w, r) {
			return
		}
		est := s.Estimator()
		writeJSON(w, http.StatusOK, HealthResponse{
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
		if !requireGet(w, r) {
			return
		}
		writeJSON(w, http.StatusOK, s.StatsSnapshot())
	})
	mux.Handle("/metrics", obs.MetricsHandler(func(g *obs.Gatherer) {
		s.WriteMetrics(g)
		obs.WriteBuildMetrics(g)
	}))
	mux.HandleFunc("/trace/recent", s.handleTraceRecent)
	mux.HandleFunc("/version", handleVersion)
	// pprof rides behind the same admin token as /swap — present on
	// every deployment but inert (403) until a token is configured.
	mux.Handle("/debug/pprof/", obs.PprofHandler(s.opts.AdminToken))
	return mux
}

// traced wraps a data-plane handler with request tracing: the inbound
// X-QCFE-Trace-ID is honored (a router hop arrives mid-trace) or a
// fresh ID minted, the trace rides the request context so every layer
// below — coalescer, library, cache — can append stage spans, the ID is
// echoed in the response headers, and the finished trace lands in the
// /trace/recent ring (and the slow-query log past the threshold).
func (s *Server) traced(op string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.TraceHeader)
		if id == "" {
			id = obs.NewTraceID()
		}
		tr := obs.NewTrace(id)
		w.Header().Set(obs.TraceHeader, id)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r.WithContext(obs.ContextWithTrace(r.Context(), tr)))
		var err error
		if sw.code >= 400 {
			err = fmt.Errorf("http %d", sw.code)
		}
		s.tracer.Finish(tr, op, r.Header.Get(TenantHeader), err)
	}
}

// statusWriter captures the reply status so a finished trace records
// whether the request failed.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// handleTraceRecent serves the ring of recently finished traces,
// newest first; ?n= bounds the count (default 50).
func (s *Server) handleTraceRecent(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	max := 50
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad n: %q", v))
			return
		}
		max = n
	}
	recs := s.tracer.Recent(max)
	if recs == nil {
		recs = []obs.TraceRecord{}
	}
	writeJSON(w, http.StatusOK, recs)
}

// handleVersion reports the binary's build identification.
func handleVersion(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, obs.Build())
}

// StatsSnapshot assembles the /stats reply body: serving counters plus
// the cache and drift blocks when present. The multi-tenant registry
// embeds one per tenant, so a tenant's block carries exactly what the
// same server would report standalone.
func (s *Server) StatsSnapshot() StatsResponse {
	resp := StatsResponse{
		Stats:    s.Stats(),
		MaxBatch: s.opts.MaxBatch,
	}
	if cs, ok := s.Estimator().CacheStats(); ok {
		resp.Cache = &cs
	}
	if s.monitor != nil {
		resp.Drift = s.monitor.DriftStats()
	}
	return resp
}

// statusFor classifies an estimate error: cancellation (a draining
// server or a vanished client) is 503 — retryable, not the client's
// fault — while everything else (bad SQL, unknown environment) is 400.
func statusFor(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return false
	}
	return true
}

// encBufPool recycles the JSON encode buffers for every HTTP reply, so
// response marshaling reuses one scratch buffer per concurrent request
// instead of growing a fresh one each time. Buffers that ballooned on
// an unusually large reply (a wide /estimate_batch) are dropped rather
// than pinned in the pool.
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledEncBuf = 64 << 10

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	// Encode (not Marshal) to keep the reply bytes identical to the
	// pre-pool json.NewEncoder(w) path, trailing newline included — the
	// router's byte-compare canary and the CI smoke diff depend on it.
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		encBufPool.Put(buf)
		http.Error(w, `{"error":"encode failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledEncBuf {
		encBufPool.Put(buf)
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}
