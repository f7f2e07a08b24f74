package serve

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	qcfe "repro"
)

// The admin-plane tests: token gating, the two-phase stage/canary/
// commit/rollback protocol, and the generation identity every endpoint
// reports. Servers here are built over Save→Load copies of the shared
// fixture so swaps never disturb the estimator other tests share.

const testToken = "test-admin-token"

// startAdminServer runs a server over its own copy of the fixture with
// the admin surface enabled, returning the server, its HTTP base URL,
// and an authenticated client.
func startAdminServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv := New(reloaded(t, testEstimator(t)), Options{
		AdminToken: testToken,
		Advertise:  "replica-under-test",
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, &Client{BaseURL: ts.URL, AdminToken: testToken}
}

// artifactBytes serializes an estimator.
func artifactBytes(t *testing.T, est *qcfe.CostEstimator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAdminDisabledWithoutToken: a server with no AdminToken refuses
// the whole admin surface with 403 — even with a token header.
func TestAdminDisabledWithoutToken(t *testing.T) {
	_, ts := startServer(t, Options{})
	for _, path := range []string{"/swap", "/generation"} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader("{}"))
		req.Header.Set("X-QCFE-Admin-Token", "anything")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s on token-less server: got %d, want 403", path, resp.StatusCode)
		}
	}
}

// TestAdminRejectsBadToken: wrong or missing token is 401, and the
// typed client surfaces it as a ReplicaError that is a query fault
// (routers must not retry an auth failure around the fleet).
func TestAdminRejectsBadToken(t *testing.T) {
	_, good := startAdminServer(t)
	bad := &Client{BaseURL: good.BaseURL, AdminToken: "wrong"}
	_, err := bad.Generation(context.Background())
	re, ok := err.(*ReplicaError)
	if !ok {
		t.Fatalf("bad token: got %v, want *ReplicaError", err)
	}
	if re.Status != http.StatusUnauthorized || !re.QueryFault() {
		t.Fatalf("bad token: got status %d (queryFault=%v), want 401 query fault", re.Status, re.QueryFault())
	}
	if _, err := good.Generation(context.Background()); err != nil {
		t.Fatalf("good token rejected: %v", err)
	}
}

// TestHealthzReportsGeneration: /healthz carries the serving artifact's
// generation (the same FNV-64a hash that stamps cache entries) and the
// advertised replica identity.
func TestHealthzReportsGeneration(t *testing.T) {
	srv, client := startAdminServer(t)
	h, err := client.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := GenerationString(srv.Estimator().Generation())
	if h.Generation != want {
		t.Fatalf("healthz generation %q, want %q", h.Generation, want)
	}
	if h.Replica != "replica-under-test" {
		t.Fatalf("healthz replica %q, want advertised identity", h.Replica)
	}
}

// TestSwapStageCanaryCommit walks the happy path: stage an adapted
// artifact with canary probes (serving untouched), verify the canary
// predictions equal the adapted model's batched output bit for bit,
// then commit and watch the serving generation, /stats swap counter,
// and live answers all move together.
func TestSwapStageCanaryCommit(t *testing.T) {
	srv, client := startAdminServer(t)
	ctx := context.Background()
	oldGen := GenerationString(srv.Estimator().Generation())

	next := adaptedCopy(t, 25)
	nextGen := GenerationString(next.Generation())
	if nextGen == oldGen {
		t.Fatal("test needs distinguishable generations")
	}
	probes := []string{testSQL(0), testSQL(1), testSQL(2)}
	env := next.Environments()[0]
	want, err := next.EstimateSQLBatchCtx(ctx, env, probes)
	if err != nil {
		t.Fatal(err)
	}

	stage, err := client.SwapStage(ctx, artifactBytes(t, next), "", env.ID, probes)
	if err != nil {
		t.Fatal(err)
	}
	if stage.Staged != nextGen {
		t.Fatalf("staged generation %q, want %q", stage.Staged, nextGen)
	}
	if stage.Generation != oldGen {
		t.Fatalf("staging moved the serving generation to %q", stage.Generation)
	}
	if len(stage.CanaryMs) != len(probes) {
		t.Fatalf("canary returned %d predictions for %d probes", len(stage.CanaryMs), len(probes))
	}
	for i := range probes {
		if math.Float64bits(stage.CanaryMs[i]) != math.Float64bits(want[i]) {
			t.Fatalf("canary probe %d: staged %v, adapted model %v", i, stage.CanaryMs[i], want[i])
		}
	}

	// /generation sees both sides of the two-phase state.
	gen, err := client.Generation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Generation != oldGen || gen.Staged != nextGen {
		t.Fatalf("mid-stage /generation = %+v, want serving %q staged %q", gen, oldGen, nextGen)
	}

	commit, err := client.SwapCommit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !commit.Swapped || commit.Generation != nextGen {
		t.Fatalf("commit reply %+v, want swapped to %q", commit, nextGen)
	}
	if got := srv.Stats().Swaps; got != 1 {
		t.Fatalf("Stats.Swaps = %d after one commit, want 1", got)
	}
	// Live traffic now prices on the new model, bit for bit.
	served, err := client.Estimate(ctx, env.ID, probes[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(served) != math.Float64bits(want[0]) {
		t.Fatalf("post-commit estimate %v, want adapted model's %v", served, want[0])
	}
}

// TestSwapRollback: rollback reinstalls the estimator the last commit
// replaced — and alternates with commit indefinitely (it is its own
// inverse). A rollback with nothing to roll back is a client error.
func TestSwapRollback(t *testing.T) {
	srv, client := startAdminServer(t)
	ctx := context.Background()
	oldGen := GenerationString(srv.Estimator().Generation())

	if _, err := client.SwapRollback(ctx); err == nil {
		t.Fatal("rollback before any commit should fail")
	}

	next := adaptedCopy(t, 25)
	if _, err := client.SwapStage(ctx, artifactBytes(t, next), "", 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := client.SwapCommit(ctx); err != nil {
		t.Fatal(err)
	}
	rb, err := client.SwapRollback(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Generation != oldGen {
		t.Fatalf("rollback landed on %q, want original %q", rb.Generation, oldGen)
	}
	// Roll forward again: the commit's replacement is now the rollback
	// target, so a second rollback returns to the adapted model.
	rb2, err := client.SwapRollback(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rb2.Generation != GenerationString(next.Generation()) {
		t.Fatalf("second rollback landed on %q, want adapted %q", rb2.Generation, GenerationString(next.Generation()))
	}
	if got := srv.Stats().Swaps; got != 3 {
		t.Fatalf("Stats.Swaps = %d after commit+rollback+rollback, want 3", got)
	}
}

// TestSwapAbort: an aborted stage leaves nothing to commit and the
// serving generation untouched.
func TestSwapAbort(t *testing.T) {
	srv, client := startAdminServer(t)
	ctx := context.Background()
	oldGen := GenerationString(srv.Estimator().Generation())

	if _, err := client.SwapStage(ctx, artifactBytes(t, adaptedCopy(t, 25)), "", 0, nil); err != nil {
		t.Fatal(err)
	}
	ab, err := client.SwapAbort(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Generation != oldGen || ab.Staged != "" {
		t.Fatalf("abort reply %+v, want serving %q and nothing staged", ab, oldGen)
	}
	if _, err := client.SwapCommit(ctx); err == nil {
		t.Fatal("commit after abort should fail")
	}
	if got := srv.Stats().Swaps; got != 0 {
		t.Fatalf("Stats.Swaps = %d after abort, want 0", got)
	}
}

// TestSwapByPath: fleets with shared storage can swap by server-local
// path; an artifact with Stage false is a one-shot stage+commit.
func TestSwapByPath(t *testing.T) {
	srv, _ := startAdminServer(t)
	next := adaptedCopy(t, 25)
	path := filepath.Join(t.TempDir(), "next.qcfe")
	if err := os.WriteFile(path, artifactBytes(t, next), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Swap(SwapRequest{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Swapped || resp.Generation != GenerationString(next.Generation()) {
		t.Fatalf("path swap reply %+v, want one-shot install of %q", resp, GenerationString(next.Generation()))
	}
}
