package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// startObsServer is startServer with a cache-backed estimator copy, so
// the observability surface under test includes the qcache tier
// histograms and a recordable warm-hit path.
func startObsServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cachedCopy(t), opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestObsEndpoints drives real traffic through the HTTP front end, then
// checks the whole observability surface it should have produced: a
// grammar-valid /metrics exposition carrying the serving and cache
// histograms, per-request trace IDs echoed on the data plane and
// retrievable with their stage spans from /trace/recent, and /version.
func TestObsEndpoints(t *testing.T) {
	_, ts := startObsServer(t, Options{})
	// cachedCopy is a Save→Load of the shared fixture, so the fixture's
	// environment IDs are valid against it.
	envID := testEstimator(t).Environments()[0].ID

	// Same SQL twice: the first request misses and is priced (probe +
	// predict spans, miss histogram), the repeat short-circuits warm
	// (probe span, warm-hit histogram).
	sql := testSQL(1)
	var lastID string
	for i := 0; i < 2; i++ {
		resp, _ := postJSON(t, ts.URL+"/estimate", fmt.Sprintf(`{"env":%d,"sql":%q}`, envID, sql))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate %d: status %d", i, resp.StatusCode)
		}
		lastID = resp.Header.Get(obs.TraceHeader)
		if len(lastID) != 32 {
			t.Fatalf("estimate %d: echoed trace id %q, want 32 hex chars", i, lastID)
		}
	}

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics is not valid Prometheus text exposition: %v\n%s", err, body)
	}
	text := string(body)
	for _, want := range []string{
		"qcfe_serve_requests_total 2",
		"qcfe_serve_cache_hits_total 1",
		"qcfe_serve_warm_hit_seconds_bucket",
		"qcfe_serve_warm_hit_seconds_count 1",
		"qcfe_serve_misses_total 1",
		"qcfe_serve_miss_seconds_bucket",
		"qcfe_serve_miss_seconds_count 1",
		`qcfe_qcache_lookup_seconds_bucket{tier=`,
		`tier="prediction"`,
		"qcfe_build_info{",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = getBody(t, ts.URL+"/trace/recent?n=10")
	if code != http.StatusOK {
		t.Fatalf("/trace/recent status %d", code)
	}
	var recs []obs.TraceRecord
	if err := json.Unmarshal(body, &recs); err != nil {
		t.Fatalf("/trace/recent: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("/trace/recent returned %d records, want 2", len(recs))
	}
	// Newest first: recs[0] is the warm repeat (probe span only),
	// recs[1] the cold request that was priced.
	if recs[0].TraceID != lastID {
		t.Fatalf("newest trace id %q, want the last echoed %q", recs[0].TraceID, lastID)
	}
	stages := func(r obs.TraceRecord) map[string]int {
		m := map[string]int{}
		for _, sp := range r.Spans {
			m[sp.Stage]++
		}
		return m
	}
	if st := stages(recs[0]); st["probe"] != 1 || len(recs[0].Spans) != 1 {
		t.Fatalf("warm trace spans = %+v, want a probe span only", recs[0].Spans)
	}
	if st := stages(recs[1]); st["probe"] != 1 || st["predict"] != 1 || len(recs[1].Spans) != 2 {
		t.Fatalf("cold trace spans = %+v, want probe + predict", recs[1].Spans)
	}

	code, body = getBody(t, ts.URL+"/version")
	if code != http.StatusOK {
		t.Fatalf("/version status %d", code)
	}
	var bi obs.BuildInfo
	if err := json.Unmarshal(body, &bi); err != nil {
		t.Fatalf("/version: %v", err)
	}
	if bi.GoVersion == "" {
		t.Fatal("/version reports no go_version")
	}
}

// TestPprofGatedByAdminToken pins the pprof exposure rules: absent a
// token the surface is disabled outright (403), with a token it demands
// the X-QCFE-Admin-Token header (401 otherwise) — the same contract as
// the /swap admin surface.
func TestPprofGatedByAdminToken(t *testing.T) {
	_, open := startObsServer(t, Options{})
	if code, _ := getBody(t, open.URL+"/debug/pprof/"); code != http.StatusForbidden {
		t.Fatalf("tokenless pprof status %d, want 403", code)
	}

	_, gated := startObsServer(t, Options{AdminToken: "obs-token"})
	if code, _ := getBody(t, gated.URL+"/debug/pprof/"); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated pprof status %d, want 401", code)
	}
	req, err := http.NewRequest(http.MethodGet, gated.URL+"/debug/pprof/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-QCFE-Admin-Token", "obs-token")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated pprof status %d, want 200", resp.StatusCode)
	}
}
