package router

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// canaryProbes is the probe set rollout tests gate on.
func canaryProbes() []string {
	return []string{testSQL(0), testSQL(1), testSQL(2), testSQL(5)}
}

// TestRolloutSuccess pushes an adapted artifact through a 3-replica
// fleet: every replica stages, passes the canary, and commits; the
// fleet ends uniform on the new generation, each replica swapped
// exactly once, and routed answers equal the adapted model's bits.
func TestRolloutSuccess(t *testing.T) {
	f := startFleet(t, 3, nil)
	rt := newTestRouter(t, f, Options{})
	ctx := context.Background()

	next, artifact := adaptedArtifact(t)
	nextGen := serve.GenerationString(next.Generation())
	res, err := rt.Rollout(ctx, RolloutRequest{
		ArtifactB64: base64.StdEncoding.EncodeToString(artifact),
		CanaryEnv:   0,
		CanarySQLs:  canaryProbes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Generation != nextGen {
		t.Fatalf("rollout result %+v, want ok on generation %s", res, nextGen)
	}
	for i, step := range res.Steps {
		if !step.Committed || step.RolledBack || step.Error != "" {
			t.Fatalf("step %d = %+v, want a clean commit", i, step)
		}
		if step.Staged != nextGen {
			t.Fatalf("step %d staged %q, want %q", i, step.Staged, nextGen)
		}
	}
	for i, srv := range f.servers {
		if got := serve.GenerationString(srv.Estimator().Generation()); got != nextGen {
			t.Fatalf("replica %d serves generation %s after rollout, want %s", i, got, nextGen)
		}
		if swaps := srv.Stats().Swaps; swaps != 1 {
			t.Fatalf("replica %d Swaps = %d after one rollout, want 1", i, swaps)
		}
	}
	if rt.rollouts.Load() != 1 || rt.rollbacks.Load() != 0 {
		t.Fatalf("router counted %d rollouts / %d rollbacks, want 1/0", rt.rollouts.Load(), rt.rollbacks.Load())
	}

	// Routed traffic now prices on the new model, bit for bit.
	sqls := []string{testSQL(3), testSQL(4), testSQL(8)}
	want, err := next.EstimateSQLBatchCtx(ctx, next.Environments()[0], sqls)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rt.EstimateBatch(ctx, 0, sqls)
	if err != nil {
		t.Fatal(err)
	}
	assertBitsEqual(t, got, want, "post-rollout")
}

// fleetPredictionTier sums the prediction-tier hit and miss counters over
// every replica's query cache.
func fleetPredictionTier(t *testing.T, f *fleet) (hits, misses int64) {
	t.Helper()
	for i, srv := range f.servers {
		st, ok := srv.Estimator().CacheStats()
		if !ok {
			t.Fatalf("replica %d serves without a query cache", i)
		}
		hits += st.Prediction.Hits
		misses += st.Prediction.Misses
	}
	return hits, misses
}

// TestRolloutSameArtifactKeepsFleetWarm: a rollout must not chill the
// fleet. A batch is priced (every replica stores its share), the full
// canary protocol then commits the same artifact bytes on every replica
// — same bytes, same generation, so the cache each replica hands to its
// new estimator object is still addressed by the stamps it was filled
// under — and the same batch priced again is served wholly from the
// prediction tiers: hits across the fleet rise by exactly len(batch),
// misses by none.
func TestRolloutSameArtifactKeepsFleetWarm(t *testing.T) {
	f := startFleet(t, 3, nil)
	rt := newTestRouter(t, f, Options{})
	ctx := context.Background()
	_, artifact := testEstimator(t)

	batch := make([]string, 12)
	for i := range batch {
		batch[i] = testSQL(10 + i) // disjoint from canaryProbes
	}
	want := wantBatch(t, 0, batch)
	got, err := rt.EstimateBatch(ctx, 0, batch)
	if err != nil {
		t.Fatal(err)
	}
	assertBitsEqual(t, got, want, "cold")

	res, err := rt.Rollout(ctx, RolloutRequest{
		ArtifactB64: base64.StdEncoding.EncodeToString(artifact),
		CanaryEnv:   0,
		CanarySQLs:  canaryProbes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("rollout result %+v, want ok", res)
	}
	for i, srv := range f.servers {
		// One swap each: committed, and not rolled back (that would be 2).
		if swaps := srv.Stats().Swaps; swaps != 1 {
			t.Fatalf("replica %d Swaps = %d after one rollout, want 1", i, swaps)
		}
	}

	hits0, misses0 := fleetPredictionTier(t, f)
	got, err = rt.EstimateBatch(ctx, 0, batch)
	if err != nil {
		t.Fatal(err)
	}
	assertBitsEqual(t, got, want, "after a same-artifact rollout")
	hits1, misses1 := fleetPredictionTier(t, f)
	if hits1-hits0 != int64(len(batch)) || misses1 != misses0 {
		t.Fatalf("re-pricing %d warm queries after the rollout: prediction-tier hits +%d, misses +%d; want +%d, +0",
			len(batch), hits1-hits0, misses1-misses0, len(batch))
	}
}

// corruptCanary is the fault middleware for the canary-failure test: on
// replica targetIdx it intercepts the /swap staging reply and flips the
// low bit of the first canary prediction — a stand-in for a replica
// that would serve different bytes (bad binary, bad memory, wrong
// build) — while leaving the data plane untouched.
func corruptCanary(target int) func(i int, h http.Handler) http.Handler {
	return func(i int, h http.Handler) http.Handler {
		if i != target {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/swap" {
				h.ServeHTTP(w, r)
				return
			}
			rec := &recorder{header: make(http.Header)}
			h.ServeHTTP(rec, r)
			var resp serve.SwapResponse
			if rec.code == http.StatusOK && json.Unmarshal(rec.body.Bytes(), &resp) == nil && len(resp.CanaryMs) > 0 {
				resp.CanaryMs[0] = math.Float64frombits(math.Float64bits(resp.CanaryMs[0]) ^ 1)
				out, _ := json.Marshal(resp)
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusOK)
				w.Write(out)
				return
			}
			for k, vs := range rec.header {
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.code)
			w.Write(rec.body.Bytes())
		})
	}
}

// recorder captures a handler's response for inspection/rewriting.
type recorder struct {
	header http.Header
	body   bytes.Buffer
	code   int
}

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(b)
}
func (r *recorder) WriteHeader(code int) { r.code = code }

// TestRolloutCanaryFailureRollsBack is the canary gate under fire: in a
// 3-replica fleet, replica 1 (the second in rollout order) corrupts its
// staged canary predictions. The rollout must stop there, roll replica
// 0 back, and leave replicas 1 and 2 never having swapped — the whole
// fleet on the old generation. Swap counts prove it: replica 0
// commit+rollback = 2, replicas 1 and 2 = 0.
func TestRolloutCanaryFailureRollsBack(t *testing.T) {
	f := startFleet(t, 3, corruptCanary(1))
	rt := newTestRouter(t, f, Options{})
	ctx := context.Background()

	oldGen := serve.GenerationString(f.servers[0].Estimator().Generation())
	_, artifact := adaptedArtifact(t)
	res, err := rt.Rollout(ctx, RolloutRequest{
		ArtifactB64: base64.StdEncoding.EncodeToString(artifact),
		CanaryEnv:   0,
		CanarySQLs:  canaryProbes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("rollout with a corrupted canary reported OK")
	}
	if res.Error == "" || res.Steps[1].Error == "" {
		t.Fatalf("canary failure not attributed to replica 1: %+v", res)
	}
	if !res.Steps[0].Committed || !res.Steps[0].RolledBack {
		t.Fatalf("replica 0 step %+v, want committed then rolled back", res.Steps[0])
	}
	if res.Steps[1].Committed || res.Steps[2].Committed || res.Steps[2].Staged != "" {
		t.Fatalf("rollout proceeded past the canary failure: %+v", res.Steps)
	}
	if res.Generation != oldGen {
		t.Fatalf("fleet generation %q after rollback, want old %q", res.Generation, oldGen)
	}

	wantSwaps := []int64{2, 0, 0}
	for i, srv := range f.servers {
		if got := serve.GenerationString(srv.Estimator().Generation()); got != oldGen {
			t.Fatalf("replica %d serves %s after failed rollout, want old generation %s", i, got, oldGen)
		}
		if swaps := srv.Stats().Swaps; swaps != wantSwaps[i] {
			t.Fatalf("replica %d Swaps = %d, want %d", i, swaps, wantSwaps[i])
		}
	}
	if rt.rollbacks.Load() != 1 {
		t.Fatalf("router counted %d rollbacks, want 1", rt.rollbacks.Load())
	}

	// The fleet still serves, on the old model's bits.
	sqls := []string{testSQL(0), testSQL(1), testSQL(2)}
	got, err := rt.EstimateBatch(ctx, 0, sqls)
	if err != nil {
		t.Fatal(err)
	}
	assertBitsEqual(t, got, wantBatch(t, 0, sqls), "post-rollback")
}

// TestRolloutExplicitExpectations: ExpectedMs anchors the gate, so even
// the FIRST replica is verified — shipping artifact A while expecting
// artifact B's outputs fails on replica 0 with nothing committed.
func TestRolloutExplicitExpectations(t *testing.T) {
	f := startFleet(t, 2, nil)
	rt := newTestRouter(t, f, Options{})
	ctx := context.Background()

	next, artifact := adaptedArtifact(t)
	oldWant := wantBatch(t, 0, canaryProbes()) // the OLD model's answers
	newWant, err := next.EstimateSQLBatchCtx(ctx, next.Environments()[0], canaryProbes())
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Rollout(ctx, RolloutRequest{
		ArtifactB64: base64.StdEncoding.EncodeToString(artifact),
		CanaryEnv:   0,
		CanarySQLs:  canaryProbes(),
		ExpectedMs:  oldWant,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Steps[0].Committed {
		t.Fatalf("mismatched expectations committed: %+v", res)
	}
	for i, srv := range f.servers {
		if swaps := srv.Stats().Swaps; swaps != 0 {
			t.Fatalf("replica %d Swaps = %d, want 0", i, swaps)
		}
	}

	// With the right expectations the same rollout goes through.
	res, err = rt.Rollout(ctx, RolloutRequest{
		ArtifactB64: base64.StdEncoding.EncodeToString(artifact),
		CanaryEnv:   0,
		CanarySQLs:  canaryProbes(),
		ExpectedMs:  newWant,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("correctly-anchored rollout failed: %+v", res)
	}
}

// TestRolloutRequiresToken: the router refuses rollouts without a
// configured admin token, and replicas refuse a router with the wrong
// one — either way, nothing swaps.
func TestRolloutRequiresToken(t *testing.T) {
	f := startFleet(t, 2, nil)
	_, artifact := adaptedArtifact(t)
	req := RolloutRequest{ArtifactB64: base64.StdEncoding.EncodeToString(artifact)}

	noToken, err := New(f.urls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noToken.Rollout(context.Background(), req); err == nil {
		t.Fatal("token-less router accepted a rollout")
	}

	wrongToken, err := New(f.urls, Options{AdminToken: "not-the-token"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := wrongToken.Rollout(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("replicas accepted a router with the wrong admin token")
	}
	for i, srv := range f.servers {
		if swaps := srv.Stats().Swaps; swaps != 0 {
			t.Fatalf("replica %d Swaps = %d after rejected rollouts, want 0", i, swaps)
		}
	}
}

// TestTrafficDuringRolloutSeesWholeModels hammers the router while a
// bake-paced rollout walks the fleet, asserting the mid-rollout
// determinism contract: every successful answer is bit-identical to
// the old model's or the new model's prediction for that query — a
// whole model's answer, never a blend or a torn read.
func TestTrafficDuringRolloutSeesWholeModels(t *testing.T) {
	f := startFleet(t, 3, nil)
	rt := newTestRouter(t, f, Options{RolloutBakeTime: 60 * time.Millisecond})
	ctx := context.Background()

	next, artifact := adaptedArtifact(t)
	const nq = 24
	sqls := make([]string, nq)
	for i := range sqls {
		sqls[i] = testSQL(i)
	}
	oldWant := wantBatch(t, 0, sqls)
	newWant, err := next.EstimateSQLBatchCtx(ctx, next.Environments()[0], sqls)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sqls {
		if oldWant[i] == newWant[i] {
			t.Fatalf("query %d indistinguishable across models; pick a different probe", i)
		}
	}

	var torn atomic.Int64
	var served atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := (w + i) % nq
				got, err := rt.Estimate(ctx, 0, sqls[qi])
				if err != nil {
					continue // rollout swaps never error traffic, but be safe
				}
				served.Add(1)
				if math.Float64bits(got) != math.Float64bits(oldWant[qi]) &&
					math.Float64bits(got) != math.Float64bits(newWant[qi]) {
					torn.Add(1)
				}
			}
		}(w)
	}

	res, err := rt.Rollout(ctx, RolloutRequest{
		ArtifactB64: base64.StdEncoding.EncodeToString(artifact),
		CanaryEnv:   0,
		CanarySQLs:  canaryProbes(),
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("rollout under load failed: %+v", res)
	}
	if served.Load() == 0 {
		t.Fatal("no traffic served during the rollout; the test proved nothing")
	}
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d of %d mid-rollout answers matched neither model (torn reads)", n, served.Load())
	}
	t.Logf("served %d answers during rollout, all whole-model", served.Load())

	// Settled fleet: all traffic on the new model.
	got, err := rt.EstimateBatch(ctx, 0, sqls)
	if err != nil {
		t.Fatal(err)
	}
	assertBitsEqual(t, got, newWant, "settled post-rollout")
}
