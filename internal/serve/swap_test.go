package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	qcfe "repro"
)

// adaptedCopy retrains a Save→Load copy of the shared fixture on a
// slice of freshly collected labeled samples — the cheapest way to get
// an estimator with genuinely different weights (and so a different
// cache generation) without a second full training run.
func adaptedCopy(t *testing.T, iters int) *qcfe.CostEstimator {
	t.Helper()
	est := testEstimator(t)
	pool, err := est.Benchmark().CollectWorkload(est.Environments(), 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := pool.Split(0.8)
	next, err := est.Adapt(train, iters)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// TestSwapEstimatorAtomicity: requests before the swap are priced by
// the old model, requests after it by the new one, with no restart and
// no lock; /healthz and /stats follow the installed estimator.
func TestSwapEstimatorServesNewModel(t *testing.T) {
	est1 := testEstimator(t)
	est2 := adaptedCopy(t, 30)
	srv, ts := startServer(t, Options{})
	env := est1.Environments()[0]

	sql := testSQL(1)
	want1, err := est1.EstimateSQL(env, sql)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := est2.EstimateSQL(est2.Environments()[0], sql)
	if err != nil {
		t.Fatal(err)
	}
	if want1 == want2 {
		t.Fatal("test needs distinguishable models")
	}

	got, err := srv.Estimate(context.Background(), env.ID, sql)
	if err != nil {
		t.Fatal(err)
	}
	if got != want1 {
		t.Fatalf("pre-swap estimate %v != est1's %v", got, want1)
	}
	srv.SwapEstimator(est2)
	got, err = srv.Estimate(context.Background(), env.ID, sql)
	if err != nil {
		t.Fatal(err)
	}
	if got != want2 {
		t.Fatalf("post-swap estimate %v != est2's %v", got, want2)
	}
	if st := srv.Stats(); st.Swaps != 1 {
		t.Fatalf("swaps = %d", st.Swaps)
	}
	resp, body := postJSON(t, ts.URL+"/estimate", `{"env":0,"sql":"`+sql+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out EstimateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Ms != want2 {
		t.Fatalf("HTTP post-swap estimate %v != est2's %v", out.Ms, want2)
	}
}

// recordingMonitor is a Monitor fake for plumbing tests.
type recordingMonitor struct {
	mu       sync.Mutex
	observed []string
	labeled  []float64
}

func (m *recordingMonitor) Observe(env *qcfe.Environment, sql string, ms float64, producer any) {
	m.mu.Lock()
	m.observed = append(m.observed, sql)
	m.mu.Unlock()
}

func (m *recordingMonitor) ObserveLabeled(env *qcfe.Environment, sql string, ms, actual float64, producer any) bool {
	m.mu.Lock()
	m.labeled = append(m.labeled, actual)
	m.mu.Unlock()
	return true
}

func (m *recordingMonitor) DriftStats() any {
	return map[string]int{"fake": 1}
}

var _ Monitor = (*recordingMonitor)(nil)

// Adapter must satisfy the server's Monitor interface (compile-time
// proof lives in cmd/qcfe-serve; here a fake stands in so serve tests
// need no online import).

// TestMonitorPlumbing: Observe fires for singles (cold and warm) and
// batch queries; /shadow scores against client ground truth and feeds
// ObserveLabeled; /stats carries the drift block.
func TestMonitorPlumbing(t *testing.T) {
	est := cachedCopy(t)
	srv := New(est, Options{})
	mon := &recordingMonitor{}
	srv.SetMonitor(mon)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	env := est.Environments()[0]

	// Cold single, then warm single (cache hit path), then a batch.
	for i := 0; i < 2; i++ {
		if _, err := srv.Estimate(context.Background(), env.ID, testSQL(3)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.EstimateBatch(context.Background(), env.ID, []string{testSQL(4), testSQL(5)}); err != nil {
		t.Fatal(err)
	}
	mon.mu.Lock()
	nObs := len(mon.observed)
	mon.mu.Unlock()
	if nObs != 4 {
		t.Fatalf("observed %d estimates, want 4 (2 singles + 2 batch)", nObs)
	}

	// Shadow: the live estimate scored against a client-observed actual.
	want, err := est.EstimateSQL(env, testSQL(6))
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/shadow",
		`{"env":0,"sql":"`+testSQL(6)+`","actual_ms":123.5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sh ShadowResponse
	if err := json.Unmarshal(body, &sh); err != nil {
		t.Fatal(err)
	}
	if sh.Ms != want || !sh.Recorded {
		t.Fatalf("shadow = %+v, want ms %v recorded", sh, want)
	}
	if sh.QError != qcfe.QError(123.5, want) {
		t.Fatalf("q_error = %v", sh.QError)
	}
	mon.mu.Lock()
	nLab := len(mon.labeled)
	mon.mu.Unlock()
	if nLab != 1 || func() bool { mon.mu.Lock(); defer mon.mu.Unlock(); return mon.labeled[0] != 123.5 }() {
		t.Fatalf("ObserveLabeled not fed: %d labels", nLab)
	}

	// Bad shadow bodies.
	if resp, _ := postJSON(t, ts.URL+"/shadow", `{"env":0,"sql":"SELECT * FROM sbtest1","actual_ms":0}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-positive actual_ms: status %d", resp.StatusCode)
	}

	// Drift block in /stats.
	req, _ := http.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), `"drift"`) {
		t.Fatalf("/stats missing drift block: %s", rec.Body.String())
	}

	// Monitorless server: shadow still scores, nothing recorded, no
	// drift block.
	srv2 := New(est, Options{})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, body = postJSON(t, ts2.URL+"/shadow",
		`{"env":0,"sql":"`+testSQL(6)+`","actual_ms":123.5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sh2 ShadowResponse
	if err := json.Unmarshal(body, &sh2); err != nil {
		t.Fatal(err)
	}
	if sh2.Recorded {
		t.Fatal("monitorless shadow must not claim recording")
	}
	rec2 := httptest.NewRecorder()
	srv2.Handler().ServeHTTP(rec2, req)
	if strings.Contains(rec2.Body.String(), `"drift"`) {
		t.Fatalf("monitorless /stats has drift block: %s", rec2.Body.String())
	}
}

// TestSwapKeepsWarmCacheOnIdenticalArtifact: swapping in a Save→Load
// copy of the serving estimator (same bytes, same generation) must keep
// the query cache warm — the generation rule's positive case.
func TestSwapKeepsWarmCacheOnIdenticalArtifact(t *testing.T) {
	est := cachedCopy(t)
	srv := New(warmOnly{est, t}, Options{}) // only warm hits can answer
	env := est.Environments()[0]
	sql := testSQL(2)
	want, err := est.EstimateSQL(env, sql) // warms the prediction tier
	if err != nil {
		t.Fatal(err)
	}

	twin := qcfe.SwapEstimator(est, reloaded(t, est))
	srv.SwapEstimator(warmOnly{twin, t})
	got, err := srv.Estimate(context.Background(), env.ID, sql)
	if err != nil {
		t.Fatalf("warm hit lost across identical-artifact swap: %v", err)
	}
	if got != want {
		t.Fatalf("post-swap warm hit %v != %v", got, want)
	}
	if st := srv.Stats(); st.CacheHits != 1 || st.Swaps != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// reloaded Save→Loads an estimator (cacheless copy of the same bytes).
func reloaded(t *testing.T, est *qcfe.CostEstimator) *qcfe.CostEstimator {
	t.Helper()
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	next, err := qcfe.LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return next
}
