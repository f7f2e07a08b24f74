// Package httpx is the one HTTP surface the three daemon front ends —
// serve.Server, tenant.Registry and router.Router — are built from, so
// that a client cannot tell them apart by their framing: JSON request
// decoding under the two body caps, reply encoding, the method checks,
// the admin-token gate, request tracing, the error-status base rule, and
// the endpoints every daemon serves the same way (/metrics,
// /trace/recent, /version, /debug/pprof/). Each daemon mounts its own
// data- and control-plane routes on the mux NewMux returns.
package httpx

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// Request body caps. Data-plane bodies are a query or a batch of them;
// an artifact ships in-band (base64) to /swap and /rollout, so those two
// take bodies far larger — 256 MiB covers any artifact this codebase can
// produce while still bounding a hostile upload.
const (
	MaxBody         = 1 << 20
	MaxArtifactBody = 256 << 20
)

// AdminTokenHeader carries the shared admin secret on /swap,
// /generation, /rollout and /debug/pprof/ requests.
const AdminTokenHeader = "X-QCFE-Admin-Token"

// TenantHeader names the tenant a request belongs to in a multi-tenant
// deployment (internal/tenant). The header wins over the body's "tenant"
// field when both are set; a single-tenant server accepts and ignores
// both, so one client works against either deployment shape.
const TenantHeader = "X-QCFE-Tenant"

// ErrorResponse is every error reply's body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// DecodeJSON admits a POST and decodes its body into v, refusing
// unknown fields and bodies over limit (MaxBody or MaxArtifactBody). On
// failure it has written the 405 or 400 reply and returns false.
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// RequireGet admits a GET; otherwise it writes the 405 reply.
func RequireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return false
	}
	return true
}

// encBufPool recycles the JSON encode buffers for every reply, so
// response marshaling reuses one scratch buffer per concurrent request
// instead of growing a fresh one each time. Buffers that ballooned on an
// unusually large reply (a wide /estimate_batch) are dropped rather than
// pinned in the pool.
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledEncBuf = 64 << 10

// WriteJSON encodes v and only then writes the status and body, so a
// value that cannot be encoded becomes a 500 {"error":"encode failure"}
// and never a half-written success.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	// Encode (not Marshal) keeps the trailing newline of the original
	// json.NewEncoder(w) replies — the router's byte-compare canary and
	// the CI smoke diffs depend on it.
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

// WriteError replies {"error":"<err>"} with the given status.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, ErrorResponse{Error: err.Error()})
}

// ErrInternal marks a failure that is the server's own fault; an error
// wrapping it is 500.
var ErrInternal = errors.New("internal error")

// StatusFor is the base status rule for a failed request: cancellation
// (a draining daemon or a vanished client) is 503 — retryable, not the
// client's fault — an ErrInternal is 500, and everything else (bad SQL,
// unknown environment or tenant) is 400. Daemons with more outcomes
// check theirs first.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrInternal):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// Tenant resolves a request's tenant: the TenantHeader first, then the
// body's "tenant" field.
func Tenant(r *http.Request, bodyTenant string) string {
	if name := r.Header.Get(TenantHeader); name != "" {
		return name
	}
	return bodyTenant
}

// Authorized is the admin gate: 403 when the surface is disabled (no
// token configured), 401 on a missing or wrong AdminTokenHeader, both
// with the JSON error framing. surface names what is disabled in the
// 403 text. The token comparison takes constant time.
func Authorized(w http.ResponseWriter, r *http.Request, token, surface string) bool {
	if token == "" {
		WriteError(w, http.StatusForbidden, fmt.Errorf("%s disabled (no admin token configured)", surface))
		return false
	}
	if subtle.ConstantTimeCompare([]byte(r.Header.Get(AdminTokenHeader)), []byte(token)) != 1 {
		WriteError(w, http.StatusUnauthorized, errors.New("missing or invalid admin token"))
		return false
	}
	return true
}

// Traced wraps a data-plane handler with request tracing: the inbound
// X-QCFE-Trace-ID is honored (a router hop arrives mid-trace) or a fresh
// ID minted, the trace rides the request context so every layer below
// can append stage spans, the ID is echoed in the reply headers, and the
// finished trace lands in tracer's /trace/recent ring (and the
// slow-query log past its threshold).
func Traced(tracer *obs.Tracer, op string, h http.HandlerFunc) http.HandlerFunc {
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
		tracer.Finish(tr, op, r.Header.Get(TenantHeader), err)
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

// NewMux returns a mux with the endpoints every daemon serves alike
// already mounted:
//
//	GET /metrics        collect's families, then qcfe_build_info
//	GET /trace/recent   tracer's finished requests, newest first (?n= bounds it, default 50)
//	GET /version        build identification
//	    /debug/pprof/   net/http/pprof behind the admin gate
func NewMux(tracer *obs.Tracer, adminToken string, collect obs.Collector) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(collect, func(g *obs.Gatherer) { obs.WriteBuildMetrics(g) }))
	mux.HandleFunc("/trace/recent", func(w http.ResponseWriter, r *http.Request) {
		if !RequireGet(w, r) {
			return
		}
		max := 50
		if v := r.URL.Query().Get("n"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				WriteError(w, http.StatusBadRequest, fmt.Errorf("bad n: %q", v))
				return
			}
			max = n
		}
		recs := tracer.Recent(max)
		if recs == nil {
			recs = []obs.TraceRecord{}
		}
		WriteJSON(w, http.StatusOK, recs)
	})
	mux.HandleFunc("/version", func(w http.ResponseWriter, r *http.Request) {
		if RequireGet(w, r) {
			WriteJSON(w, http.StatusOK, obs.Build())
		}
	})
	// pprof rides behind the same admin token as /swap and /rollout:
	// present on every daemon but inert (403) until a token is set. The
	// global http.DefaultServeMux is never touched.
	admin := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if Authorized(w, r, adminToken, "pprof") {
				h(w, r)
			}
		}
	}
	mux.HandleFunc("/debug/pprof/", admin(pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", admin(pprof.Cmdline))
	mux.HandleFunc("/debug/pprof/profile", admin(pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", admin(pprof.Symbol))
	mux.HandleFunc("/debug/pprof/trace", admin(pprof.Trace))
	return mux
}
