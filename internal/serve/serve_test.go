package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	qcfe "repro"
)

// fixture shares one small trained estimator across the package's tests
// (training dominates test runtime; the server under test is cheap).
var fixture struct {
	once sync.Once
	est  *qcfe.CostEstimator
	err  error
}

func testEstimator(t *testing.T) *qcfe.CostEstimator {
	t.Helper()
	fixture.once.Do(func() {
		b, err := qcfe.OpenBenchmark("sysbench", 1)
		if err != nil {
			fixture.err = err
			return
		}
		envs := qcfe.RandomEnvironments(2, 1)
		pool, err := b.CollectWorkload(envs, 80, 1)
		if err != nil {
			fixture.err = err
			return
		}
		train, _ := pool.Split(0.8)
		fixture.est, fixture.err = qcfe.NewPipeline("mscn",
			qcfe.WithTrainIters(40), qcfe.WithReferences(20), qcfe.WithSeed(3),
		).Fit(b, envs, train)
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.est
}

// startServer builds a Server plus its HTTP front end, closed when the
// test ends.
func startServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(testEstimator(t), opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func testSQL(i int) string {
	switch i % 3 {
	case 0:
		return fmt.Sprintf("SELECT COUNT(*) FROM sbtest1 WHERE id BETWEEN %d AND %d", 50+i, 250+i)
	case 1:
		return fmt.Sprintf("SELECT * FROM sbtest1 WHERE id = %d", 1+i)
	default:
		return fmt.Sprintf("SELECT * FROM sbtest1 WHERE k < %d", 100+i)
	}
}

// TestHTTPParityUnderConcurrentLoad is the serving contract: concurrent
// /estimate requests — each priced on its own goroutine — return
// exactly the library's EstimateSQL predictions.
func TestHTTPParityUnderConcurrentLoad(t *testing.T) {
	est := testEstimator(t)
	_, ts := startServer(t, Options{})

	const n = 48
	envs := est.Environments()
	results := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			env := envs[i%len(envs)]
			resp, body := postJSON(t, ts.URL+"/estimate",
				fmt.Sprintf(`{"env":%d,"sql":%q}`, env.ID, testSQL(i)))
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			var out EstimateResponse
			if err := json.Unmarshal(body, &out); err != nil {
				errs[i] = err
				return
			}
			results[i] = out.Ms
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want, err := est.EstimateSQL(envs[i%len(envs)], testSQL(i))
		if err != nil {
			t.Fatal(err)
		}
		if results[i] != want {
			t.Fatalf("request %d: served %v != library %v", i, results[i], want)
		}
	}
}

// TestBatchEndpointParity: /estimate_batch equals EstimateSQLBatch, and
// the response body equals the JSON qcfe-bench -load -estimate prints —
// the byte-level parity the CI smoke test diffs.
func TestBatchEndpointParity(t *testing.T) {
	est := testEstimator(t)
	_, ts := startServer(t, Options{})
	env := est.Environments()[0]
	sqls := []string{testSQL(0), testSQL(1), testSQL(2)}

	req, _ := json.Marshal(BatchRequest{Env: env.ID, SQLs: sqls})
	resp, body := postJSON(t, ts.URL+"/estimate_batch", string(req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	want, err := est.EstimateSQLBatch(env, sqls)
	if err != nil {
		t.Fatal(err)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Ms) != len(want) {
		t.Fatalf("got %d results, want %d", len(out.Ms), len(want))
	}
	for i := range want {
		if out.Ms[i] != want[i] {
			t.Fatalf("sql %d: served %v != library %v", i, out.Ms[i], want[i])
		}
	}
	var lib bytes.Buffer
	json.NewEncoder(&lib).Encode(BatchResponse{Ms: want})
	if !bytes.Equal(bytes.TrimSpace(body), bytes.TrimSpace(lib.Bytes())) {
		t.Fatalf("response body %q != library JSON %q", body, lib.Bytes())
	}
}

// TestErrorIsolation: one malformed query among concurrent misses fails
// only its own request; companions still get exact predictions.
func TestErrorIsolation(t *testing.T) {
	est := testEstimator(t)
	srv := New(est, Options{})
	env := est.Environments()[0]

	sqls := []string{testSQL(0), "THIS IS NOT SQL", testSQL(2)}
	type res struct {
		ms  float64
		err error
	}
	results := make([]res, len(sqls))
	var wg sync.WaitGroup
	for i, sql := range sqls {
		wg.Add(1)
		go func(i int, sql string) {
			defer wg.Done()
			ms, err := srv.Estimate(context.Background(), env.ID, sql)
			results[i] = res{ms, err}
		}(i, sql)
	}
	wg.Wait()

	if results[1].err == nil {
		t.Fatalf("malformed query should error")
	}
	for _, i := range []int{0, 2} {
		if results[i].err != nil {
			t.Fatalf("query %d: %v", i, results[i].err)
		}
		want, err := est.EstimateSQL(env, sqls[i])
		if err != nil {
			t.Fatal(err)
		}
		if results[i].ms != want {
			t.Fatalf("query %d: served %v != library %v", i, results[i].ms, want)
		}
	}
}

// TestUnknownEnvironment: an env ID outside the artifact's set is a
// client error, not a panic or a silent default.
func TestUnknownEnvironment(t *testing.T) {
	_, ts := startServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/estimate", `{"env":9999,"sql":"SELECT * FROM sbtest1"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "unknown environment") {
		t.Fatalf("body = %s", body)
	}
}

// TestHealthzAndStats sanity-checks the observability endpoints.
func TestHealthzAndStats(t *testing.T) {
	_, ts := startServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status    string `json:"status"`
		Model     string `json:"model"`
		Benchmark string `json:"benchmark"`
		Envs      int    `json:"envs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Model != "mscn" || health.Benchmark != "sysbench" || health.Envs != 2 {
		t.Fatalf("health = %+v", health)
	}

	postJSON(t, ts.URL+"/estimate", fmt.Sprintf(`{"env":0,"sql":%q}`, testSQL(0)))
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Requests < 1 || stats.Flushes < 1 {
		t.Fatalf("stats = %+v", stats)
	}
}
