package httpx_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	qcfe "repro"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/tenant"
)

// artifact is one small trained estimator, serialized: every surface
// below loads its own copies.
var artifact struct {
	once sync.Once
	raw  []byte
	err  error
}

func loadEst(t *testing.T) *qcfe.CostEstimator {
	t.Helper()
	artifact.once.Do(func() {
		b, err := qcfe.OpenBenchmark("sysbench", 1)
		if err != nil {
			artifact.err = err
			return
		}
		envs := qcfe.RandomEnvironments(2, 1)
		pool, err := b.CollectWorkload(envs, 80, 1)
		if err != nil {
			artifact.err = err
			return
		}
		train, _ := pool.Split(0.8)
		est, err := qcfe.NewPipeline("mscn",
			qcfe.WithTrainIters(40), qcfe.WithReferences(20), qcfe.WithSeed(3),
		).Fit(b, envs, train)
		if err != nil {
			artifact.err = err
			return
		}
		var buf bytes.Buffer
		artifact.err = est.Save(&buf)
		artifact.raw = buf.Bytes()
	})
	if artifact.err != nil {
		t.Fatal(artifact.err)
	}
	est, err := qcfe.LoadEstimator(bytes.NewReader(artifact.raw))
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// surfaces builds the three daemon front ends, each configured with
// adminToken: a single-tenant replica, a two-tenant registry, and a
// router in front of one real replica.
func surfaces(t *testing.T, adminToken string) map[string]http.Handler {
	t.Helper()
	reg, err := tenant.New(tenant.Options{Serve: serve.Options{AdminToken: adminToken}},
		[]tenant.Config{{Name: "a", Est: loadEst(t)}, {Name: "b", Est: loadEst(t)}})
	if err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(serve.New(loadEst(t), serve.Options{}).Handler())
	t.Cleanup(replica.Close)
	rt, err := router.New([]string{replica.URL}, router.Options{AdminToken: adminToken})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]http.Handler{
		"serve":  serve.New(loadEst(t), serve.Options{AdminToken: adminToken}).Handler(),
		"tenant": reg.Handler(),
		"router": rt.Handler(),
	}
}

type reply struct {
	code   int
	header http.Header
	body   []byte
}

func do(h http.Handler, method, path, body string, header ...string) reply {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return reply{rec.Code, rec.Header(), rec.Body.Bytes()}
}

// TestSurfacesConform runs one table against the three daemon front
// ends and requires the same status from each and, on every error,
// the same bytes: a client cannot tell a replica, a tenant registry and
// a router apart by their framing.
func TestSurfacesConform(t *testing.T) {
	open := surfaces(t, "")
	gated := surfaces(t, "tok")
	oversized := `{"env":0,"sql":"` + strings.Repeat("x", httpx.MaxBody) + `"}`
	sql := "SELECT * FROM sbtest1 WHERE id = 7"
	batch := fmt.Sprintf(`{"env":0,"sqls":[%q]}`, sql)

	cases := []struct {
		name         string
		gated        bool
		method, path string
		body         string
		header       []string
		code         int
	}{
		{name: "GET estimate", method: http.MethodGet, path: "/estimate", code: http.StatusMethodNotAllowed},
		{name: "unknown field", method: http.MethodPost, path: "/estimate_batch", body: `{"env":0,"sqls":[],"bogus":1}`, code: http.StatusBadRequest},
		{name: "body over 1 MiB", method: http.MethodPost, path: "/estimate", body: oversized, code: http.StatusBadRequest},
		{name: "trace n=0", method: http.MethodGet, path: "/trace/recent?n=0", code: http.StatusBadRequest},
		{name: "POST version", method: http.MethodPost, path: "/version", code: http.StatusMethodNotAllowed},
		{name: "pprof without token configured", method: http.MethodGet, path: "/debug/pprof/", code: http.StatusForbidden},
		{name: "pprof bad token", gated: true, method: http.MethodGet, path: "/debug/pprof/",
			header: []string{httpx.AdminTokenHeader, "nope"}, code: http.StatusUnauthorized},
		{name: "pprof no token sent", gated: true, method: http.MethodGet, path: "/debug/pprof/cmdline", code: http.StatusUnauthorized},
		{name: "pprof right token", gated: true, method: http.MethodGet, path: "/debug/pprof/",
			header: []string{httpx.AdminTokenHeader, "tok"}, code: http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hs := open
			if tc.gated {
				hs = gated
			}
			var first []byte
			for _, name := range []string{"serve", "tenant", "router"} {
				got := do(hs[name], tc.method, tc.path, tc.body, tc.header...)
				if got.code != tc.code {
					t.Fatalf("%s: status %d, want %d: %s", name, got.code, tc.code, got.body)
				}
				if tc.code < 400 {
					continue
				}
				if ct := got.header.Get("Content-Type"); ct != "application/json" {
					t.Fatalf("%s: error Content-Type %q, want application/json", name, ct)
				}
				var e httpx.ErrorResponse
				if err := json.Unmarshal(got.body, &e); err != nil || e.Error == "" {
					t.Fatalf("%s: error body %q is not {\"error\":...}", name, got.body)
				}
				if first == nil {
					first = got.body
				} else if !bytes.Equal(got.body, first) {
					t.Fatalf("%s: error body %q, serve sent %q", name, got.body, first)
				}
			}
		})
	}

	hex32 := regexp.MustCompile(`^[0-9a-f]{32}$`)
	for name, h := range open {
		t.Run(name, func(t *testing.T) {
			got := do(h, http.MethodGet, "/version", "")
			var bi obs.BuildInfo
			if got.code != http.StatusOK || got.header.Get("Content-Type") != "application/json" ||
				json.Unmarshal(got.body, &bi) != nil || bi.GoVersion == "" {
				t.Fatalf("/version: %d %q %s", got.code, got.header.Get("Content-Type"), got.body)
			}

			const inbound = "0123456789abcdef0123456789abcdef"
			got = do(h, http.MethodPost, "/estimate_batch", batch, obs.TraceHeader, inbound, httpx.TenantHeader, "a")
			if got.code != http.StatusOK || got.header.Get(obs.TraceHeader) != inbound {
				t.Fatalf("inbound trace: %d, echoed %q, want %q: %s", got.code, got.header.Get(obs.TraceHeader), inbound, got.body)
			}
			got = do(h, http.MethodPost, "/estimate_batch", batch, httpx.TenantHeader, "a")
			if id := got.header.Get(obs.TraceHeader); got.code != http.StatusOK || !hex32.MatchString(id) {
				t.Fatalf("minted trace: %d, id %q, want 32 hex: %s", got.code, id, got.body)
			}

			got = do(h, http.MethodGet, "/metrics", "")
			if got.code != http.StatusOK {
				t.Fatalf("/metrics status %d", got.code)
			}
			if err := obs.ValidateExposition(got.body); err != nil {
				t.Fatalf("/metrics: %v\n%s", err, got.body)
			}
			if !bytes.Contains(got.body, []byte("qcfe_build_info{")) {
				t.Fatal("/metrics has no qcfe_build_info")
			}
		})
	}
}

// TestWriteJSONEncodeFailure: a value encoding/json refuses becomes a
// whole 500 error reply, never a success status with a partial body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	httpx.WriteJSON(rec, http.StatusOK, map[string]float64{"ms": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if got, want := rec.Body.String(), `{"error":"encode failure"}`+"\n"; got != want {
		t.Fatalf("body %q, want %q", got, want)
	}
}
