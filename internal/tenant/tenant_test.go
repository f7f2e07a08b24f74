package tenant

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	qcfe "repro"
	"repro/internal/httpx"
	"repro/internal/serve"
)

// fixture trains one small estimator, serializes it (tenants load
// independent copies, since each attaches its own cache), and fits the
// library analytic pipeline on the same benchmark — the rung-3
// bitwise-equivalence anchor.
var fixture struct {
	once     sync.Once
	artifact []byte
	analytic *qcfe.CostEstimator // library "analytic" pipeline
	err      error
}

func initFixture() {
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
	est, err := qcfe.NewPipeline("mscn",
		qcfe.WithTrainIters(40), qcfe.WithReferences(20), qcfe.WithSeed(3),
	).Fit(b, envs, train)
	if err != nil {
		fixture.err = err
		return
	}
	var buf bytes.Buffer
	if fixture.err = est.Save(&buf); fixture.err != nil {
		return
	}
	fixture.artifact = buf.Bytes()
	fixture.analytic, fixture.err = qcfe.NewPipeline("analytic").Fit(b, envs, train)
}

// loadEst returns a fresh estimator object deserialized from the
// fixture artifact — same bytes, same generation, independent cache
// attachment point.
func loadEst(t *testing.T) *qcfe.CostEstimator {
	t.Helper()
	fixture.once.Do(initFixture)
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	est, err := qcfe.LoadEstimator(bytes.NewReader(fixture.artifact))
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func libAnalytic(t *testing.T) *qcfe.CostEstimator {
	t.Helper()
	fixture.once.Do(initFixture)
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.analytic
}

// newRegistry builds a registry over fresh artifact copies.
func newRegistry(t *testing.T, opts Options, names ...string) *Registry {
	t.Helper()
	cfgs := make([]Config, len(names))
	for i, name := range names {
		cfgs[i] = Config{Name: name, Est: loadEst(t)}
	}
	r, err := New(opts, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func testOptions() Options {
	return Options{Cache: &qcfe.CacheOptions{Shards: 4, Capacity: 512}}
}

// TestNewStartsNoGoroutine: a registry and its tenants' servers serve
// from the moment New returns, with no goroutine of their own.
func TestNewStartsNoGoroutine(t *testing.T) {
	cfgs := []Config{{Name: "alpha", Est: loadEst(t)}, {Name: "beta", Est: loadEst(t)}}
	base := runtime.NumGoroutine()
	r, err := New(testOptions(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("New started %d goroutines", n-base)
	}
	if _, _, err := r.Estimate(context.Background(), "alpha", 0, testSQL(0)); err != nil {
		t.Fatal(err)
	}
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

// saturateNN occupies t's whole NN floor, the global NN budget, and
// every wait-queue position, so the next cold request must leave
// rung 1. The returned release undoes all of it.
func saturateNN(r *Registry, t *Tenant) (release func()) {
	a := r.adm
	a.mu.Lock()
	heldInflight, heldTotal := t.bkt.share, a.max
	t.bkt.inflight += heldInflight
	a.total += heldTotal
	ws := make([]*waiter, 0, t.bkt.queueCap)
	for len(t.bkt.waiters) < t.bkt.queueCap {
		w := &waiter{ch: make(chan struct{})}
		t.bkt.waiters = append(t.bkt.waiters, w)
		ws = append(ws, w)
	}
	a.mu.Unlock()
	return func() {
		a.mu.Lock()
		t.bkt.inflight -= heldInflight
		a.total -= heldTotal
		for _, w := range ws {
			w.abandoned = true
		}
		a.mu.Unlock()
	}
}

// saturateAnalytic exhausts t's analytic floor and the global analytic
// budget, so rung 3 sheds.
func saturateAnalytic(r *Registry, t *Tenant) (release func()) {
	a := r.adm
	a.mu.Lock()
	heldAn, heldTotal := t.bkt.anShare, a.anMax
	t.bkt.anInflight += heldAn
	a.anTotal += heldTotal
	a.mu.Unlock()
	return func() {
		a.mu.Lock()
		t.bkt.anInflight -= heldAn
		a.anTotal -= heldTotal
		a.mu.Unlock()
	}
}

func TestRegistryValidation(t *testing.T) {
	if _, err := New(testOptions(), nil); err == nil {
		t.Fatal("empty tenant list must be rejected")
	}
	if _, err := New(testOptions(), []Config{{Name: "", Est: loadEst(t)}}); err == nil {
		t.Fatal("unnamed tenant must be rejected")
	}
	if _, err := New(testOptions(), []Config{{Name: "a", Est: nil}}); err == nil {
		t.Fatal("estimator-less tenant must be rejected")
	}
	if _, err := New(testOptions(), []Config{
		{Name: "a", Est: loadEst(t)}, {Name: "a", Est: loadEst(t)},
	}); err == nil {
		t.Fatal("duplicate tenant names must be rejected")
	}
	// One estimator for two tenants: the second AttachCache would replace
	// the first tenant's cache and both would serve from one.
	shared := loadEst(t)
	_, err := New(testOptions(), []Config{{Name: "alpha", Est: shared}, {Name: "beta", Est: shared}})
	if err == nil || !strings.Contains(err.Error(), `"alpha"`) || !strings.Contains(err.Error(), `"beta"`) {
		t.Fatalf("shared estimator: err = %v, want a rejection naming alpha and beta", err)
	}

	r := newRegistry(t, testOptions(), "beta", "alpha")
	if got := r.Names(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Names() = %v, want sorted [alpha beta]", got)
	}
	if _, err := r.Tenant(""); err == nil || !strings.Contains(err.Error(), httpx.TenantHeader) {
		t.Fatalf("ambiguous empty tenant: err = %v, want mention of %s", err, httpx.TenantHeader)
	}
	if _, err := r.Tenant("nope"); err == nil {
		t.Fatal("unknown tenant must be an error")
	}

	solo := newRegistry(t, testOptions(), "only")
	tn, err := solo.Tenant("")
	if err != nil || tn.Name() != "only" {
		t.Fatalf("sole tenant must resolve from empty name; got (%v, %v)", tn, err)
	}
}

// TestUndegradedBitwiseParity is the core invariant: an un-degraded
// multi-tenant answer is bitwise identical to single-tenant serving and
// to the library on the same artifact bytes.
func TestUndegradedBitwiseParity(t *testing.T) {
	r := newRegistry(t, testOptions(), "alpha", "beta")
	ref := loadEst(t)
	env := ref.Environments()[0]

	sqls := make([]string, 24)
	for i := range sqls {
		sqls[i] = testSQL(i)
	}
	want, err := ref.EstimateSQLBatch(env, sqls)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for _, name := range []string{"alpha", "beta"} {
		got, degraded, err := r.EstimateBatch(ctx, name, env.ID, sqls)
		if err != nil {
			t.Fatal(err)
		}
		if degraded {
			t.Fatalf("tenant %s: degraded under no load", name)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tenant %s query %d: %v != library %v", name, i, got[i], want[i])
			}
		}
		// Single queries walk the miss path; still bitwise.
		for i := 0; i < 6; i++ {
			ms, degraded, err := r.Estimate(ctx, name, env.ID, sqls[i])
			if err != nil {
				t.Fatal(err)
			}
			if degraded || ms != want[i] {
				t.Fatalf("tenant %s single %d: (%v, %v), want (%v, false)", name, i, ms, degraded, want[i])
			}
		}
	}
}

// TestCacheIsolation: serving tenant alpha's traffic must not touch
// tenant beta's cache — the two hold separate instances.
func TestCacheIsolation(t *testing.T) {
	r := newRegistry(t, testOptions(), "alpha", "beta")
	alpha, _ := r.Tenant("alpha")
	beta, _ := r.Tenant("beta")
	env := loadEst(t).Environments()[0]

	ctx := context.Background()
	sql := testSQL(1)
	for i := 0; i < 3; i++ {
		if _, _, err := r.Estimate(ctx, "alpha", env.ID, sql); err != nil {
			t.Fatal(err)
		}
	}
	ac := alpha.srv.Estimator().(*qcfe.CostEstimator).Cache()
	bc := beta.srv.Estimator().(*qcfe.CostEstimator).Cache()
	if ac == nil || bc == nil || ac == bc {
		t.Fatalf("alpha and beta must hold distinct cache instances: %p, %p", ac, bc)
	}
	as, _ := alpha.srv.Estimator().CacheStats()
	if as.Prediction.Hits == 0 {
		t.Fatal("alpha's repeats never hit its prediction tier")
	}
	bs, ok := beta.srv.Estimator().CacheStats()
	if !ok {
		t.Fatal("beta has no cache")
	}
	if bs.Prediction.Size != 0 || bs.Prediction.Hits != 0 || bs.Template.Size != 0 {
		t.Fatalf("alpha's traffic leaked into beta's cache: %+v", bs)
	}
	if alpha.warm.Load() == 0 {
		t.Fatal("warm counter never moved on repeats")
	}
}

// TestWarmEstimateZeroAlloc: rung 2 through a two-tenant registry — name
// lookup, the probe of that tenant's own cache, the ladder
// counter and two histogram samples — answers a resident prediction with
// zero heap allocations when the context carries no trace, and never
// reaches admission: warm_served moves, admitted does not.
func TestWarmEstimateZeroAlloc(t *testing.T) {
	r := newRegistry(t, testOptions(), "alpha", "beta")
	alpha, _ := r.Tenant("alpha")
	env := alpha.srv.Estimator().Environments()[0]
	ctx := context.Background()
	sql := testSQL(1)
	want, _, err := r.Estimate(ctx, "alpha", env.ID, sql) // rung 1 prices and stores it
	if err != nil {
		t.Fatal(err)
	}
	hit := func() {
		if got, degraded, err := r.Estimate(ctx, "alpha", env.ID, sql); err != nil || degraded || got != want {
			t.Fatalf("warm Estimate = (%v, degraded=%v, %v), want (%v, false, nil)", got, degraded, err, want)
		}
	}
	warm, admitted := alpha.warm.Load(), alpha.admitted.Load()
	const runs = 1000
	if allocs := testing.AllocsPerRun(runs, hit); allocs != 0 {
		t.Fatalf("warm tenant Estimate allocates %.2f allocs/op, want 0", allocs)
	}
	// AllocsPerRun calls the function once more than runs, as warm-up.
	if got := alpha.warm.Load() - warm; got != runs+1 {
		t.Fatalf("warm_served moved by %d over %d warm calls", got, runs+1)
	}
	if got := alpha.admitted.Load(); got != admitted {
		t.Fatalf("admitted moved %d → %d: a warm hit took an admission slot", admitted, got)
	}
}

// TestLadderOverHTTP walks all three rungs and the shed through the
// registry's HTTP surface.
func TestLadderOverHTTP(t *testing.T) {
	r := newRegistry(t, testOptions(), "alpha")
	alpha, _ := r.Tenant("alpha")
	est := loadEst(t)
	env := est.Environments()[0]
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/estimate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// Rung 1: full NN path; the reply has no "degraded" key at all.
	coldSQL := testSQL(100)
	want, err := est.EstimateSQL(env, coldSQL)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(fmt.Sprintf(`{"env":%d,"sql":%q}`, env.ID, coldSQL))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rung 1: status %d: %s", resp.StatusCode, body)
	}
	if bytes.Contains(body, []byte("degraded")) {
		t.Fatalf("un-degraded reply leaks the degraded key: %s", body)
	}
	var er serve.EstimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Ms != want {
		t.Fatalf("rung 1: %v != library %v", er.Ms, want)
	}

	// Rung 2 under total NN saturation: the warm entry still serves,
	// full fidelity, not degraded.
	release := saturateNN(r, alpha)
	resp, body = post(fmt.Sprintf(`{"env":%d,"sql":%q}`, env.ID, coldSQL))
	if resp.StatusCode != http.StatusOK || bytes.Contains(body, []byte("degraded")) {
		t.Fatalf("rung 2: status %d body %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &er)
	if er.Ms != want {
		t.Fatalf("rung 2 warm hit: %v != %v", er.Ms, want)
	}

	// Rung 3: a cold query under saturation degrades to the analytic
	// fallback, bitwise equal to qcfe.AnalyticEstimator, and says so.
	cold2 := testSQL(200)
	anWant, err := qcfe.AnalyticEstimator(est.Benchmark(), est.Environments()).EstimateSQL(env, cold2)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = post(fmt.Sprintf(`{"env":%d,"sql":%q}`, env.ID, cold2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rung 3: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Degraded {
		t.Fatalf("rung 3 reply not flagged degraded: %s", body)
	}
	if er.Ms != anWant {
		t.Fatalf("rung 3: %v != analytic %v", er.Ms, anWant)
	}

	// Past rung 3: shed with 429 + Retry-After.
	releaseAn := saturateAnalytic(r, alpha)
	resp, body = post(fmt.Sprintf(`{"env":%d,"sql":%q}`, env.ID, testSQL(300)))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed: status %d, want 429: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("shed reply Retry-After = %q, want 1", got)
	}
	releaseAn()
	release()

	// Recovered: back to rung 1.
	resp, body = post(fmt.Sprintf(`{"env":%d,"sql":%q}`, env.ID, testSQL(300)))
	if resp.StatusCode != http.StatusOK || bytes.Contains(body, []byte("degraded")) {
		t.Fatalf("post-recovery: status %d body %s", resp.StatusCode, body)
	}

	// Counter sanity: every rung moved.
	if alpha.admitted.Load() == 0 || alpha.warm.Load() == 0 ||
		alpha.degraded.Load() == 0 || alpha.shed.Load() == 0 {
		t.Fatalf("ladder counters: admitted=%d warm=%d degraded=%d shed=%d",
			alpha.admitted.Load(), alpha.warm.Load(), alpha.degraded.Load(), alpha.shed.Load())
	}
}

// TestMetamorphicRung3 pins the rung-3 equivalence class: degraded
// batch answers equal the library analytic pipeline pointwise, under
// permutation and duplication of the batch.
func TestMetamorphicRung3(t *testing.T) {
	opts := testOptions()
	opts.Cache = nil // no warm tier: saturation degrades every element
	r := newRegistry(t, opts, "alpha")
	alpha, _ := r.Tenant("alpha")
	an := libAnalytic(t)
	env := an.Environments()[0]

	base := make([]string, 12)
	for i := range base {
		base[i] = testSQL(i)
	}
	variants := [][]string{
		base,
		// Reversed permutation.
		func() []string {
			v := make([]string, len(base))
			for i := range base {
				v[i] = base[len(base)-1-i]
			}
			return v
		}(),
		// Duplication: every element twice, interleaved.
		func() []string {
			v := make([]string, 0, 2*len(base))
			for _, s := range base {
				v = append(v, s, s)
			}
			return v
		}(),
	}

	release := saturateNN(r, alpha)
	defer release()
	ctx := context.Background()
	for vi, sqls := range variants {
		want, err := an.EstimateSQLBatch(env, sqls)
		if err != nil {
			t.Fatal(err)
		}
		got, degraded, err := r.EstimateBatch(ctx, "alpha", env.ID, sqls)
		if err != nil {
			t.Fatal(err)
		}
		if !degraded {
			t.Fatalf("variant %d: expected degraded under saturation", vi)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("variant %d query %d (%q): %v != library analytic %v",
					vi, i, sqls[i], got[i], want[i])
			}
		}
	}
}

// TestStatsGoldenSchema freezes the per-tenant /stats JSON shape:
// field names and value kinds, independent of values. A schema change
// must be deliberate (update the golden alongside the docs).
func TestStatsGoldenSchema(t *testing.T) {
	r := newRegistry(t, testOptions(), "alpha", "beta")
	alpha, _ := r.Tenant("alpha")
	est := loadEst(t)
	env := est.Environments()[0]
	ctx := context.Background()

	// Drive every counter so optional-looking fields are exercised:
	// rung 1, rung 2 (repeat), rung 3, and a shed.
	for i := 0; i < 2; i++ {
		if _, _, err := r.Estimate(ctx, "alpha", env.ID, testSQL(1)); err != nil {
			t.Fatal(err)
		}
	}
	release := saturateNN(r, alpha)
	if _, degraded, err := r.Estimate(ctx, "alpha", env.ID, testSQL(50)); err != nil || !degraded {
		t.Fatalf("want degraded rung-3 serve, got (%v, %v)", degraded, err)
	}
	releaseAn := saturateAnalytic(r, alpha)
	if _, _, err := r.Estimate(ctx, "alpha", env.ID, testSQL(60)); err != ErrShed {
		t.Fatalf("want ErrShed, got %v", err)
	}
	releaseAn()
	release()

	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The budgets derived from MaxInflight and the fixed queue bound.
	var st StatsResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.MaxInflight < 2 || st.AnalyticInflight != 8*st.MaxInflight || st.QueueDepthCap != 64 {
		t.Fatalf("/stats budgets: max_inflight %d, analytic_inflight %d (want 8×), queue_depth_cap %d (want 64)",
			st.MaxInflight, st.AnalyticInflight, st.QueueDepthCap)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(schemaOf(doc), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	const golden = "testdata/stats_schema.golden"
	if os.Getenv("QCFE_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read %s (QCFE_UPDATE_GOLDEN=1 regenerates): %v\n%s", golden, err, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("per-tenant /stats schema drifted from %s.\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// schemaOf reduces a decoded JSON document to its shape: maps keep
// their keys, arrays reduce to their first element's schema, leaves
// become their type name.
func schemaOf(v any) any {
	switch x := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, val := range x {
			out[k] = schemaOf(val)
		}
		return out
	case []any:
		if len(x) == 0 {
			return []any{}
		}
		return []any{schemaOf(x[0])}
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "bool"
	case nil:
		return "null"
	default:
		return fmt.Sprintf("%T", v)
	}
}
