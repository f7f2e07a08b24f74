package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"

	qcfe "repro"
)

// TestEstimateWarmZeroAlloc pins the tentpole invariant at the serving
// layer: once a query's prediction is resident, Server.Estimate answers
// it with zero heap allocations — environment resolution, the cache
// probe (struct key, lock-free bucket-chain walk), counters, and monitor
// dispatch included.
// The second pass repeats the measurement after a hot swap to a
// Save→Load twin of the serving estimator: identical bytes, identical
// generation, so the swap must leave the entry resident and the hit
// allocation-free. The server sees both estimators through warmOnly, so
// a hit that was lost — before or after the swap — fails the test
// instead of being priced.
func TestEstimateWarmZeroAlloc(t *testing.T) {
	est := cachedCopy(t)
	env := est.Environments()[0]
	sql := testSQL(0)
	srv := New(warmOnly{est, t}, Options{})
	ctx := context.Background()
	want, err := est.EstimateSQL(env, sql) // warm the prediction tier
	if err != nil {
		t.Fatal(err)
	}
	measure := func(when string) {
		t.Helper()
		// Settle sync.Pools before measuring.
		for i := 0; i < 64; i++ {
			if got, err := srv.Estimate(ctx, env.ID, sql); err != nil || got != want {
				t.Fatalf("%s: warm-up hit = (%v, %v), want (%v, nil)", when, got, err, want)
			}
		}
		allocs := testing.AllocsPerRun(1000, func() {
			got, err := srv.Estimate(ctx, env.ID, sql)
			if err != nil || got != want {
				t.Fatalf("%s: warm hit = (%v, %v), want (%v, nil)", when, got, err, want)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: warm Estimate allocates %.2f allocs/op, want 0", when, allocs)
		}
	}
	measure("before swap")
	srv.SwapEstimator(warmOnly{qcfe.SwapEstimator(est, reloaded(t, est)), t})
	measure("after swap to an identical artifact")
	if st := srv.Stats(); st.Swaps != 1 || st.CacheHits != st.Requests {
		t.Fatalf("stats = %+v, want 1 swap and every request a cache hit", st)
	}
}

// TestHandlerWarmEstimateAllocs holds the whole HTTP handler's cost for
// a warm POST /estimate — routing, trace middleware, body decode, the
// warm probe, reply encode — to a no-increase allocation ceiling, so a
// change to the shared HTTP layer cannot quietly add a closure or a
// writer per request. 23 is what the handler allocated before that
// layer was shared (go1.24, amd64), and what it allocates now. The
// request, its body and the response writer are reused, so only the
// handler's own allocations count. Skipped under -race, which changes
// allocation counts.
func TestHandlerWarmEstimateAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("-race changes allocation counts")
	}
	const ceiling = 23
	est := cachedCopy(t)
	env := est.Environments()[0]
	sql := testSQL(0)
	want, err := est.EstimateSQL(env, sql) // warm the prediction tier
	if err != nil {
		t.Fatal(err)
	}
	h := New(est, Options{}).Handler()
	payload := fmt.Sprintf(`{"env":%d,"sql":%q}`, env.ID, sql)
	wantBody, _ := json.Marshal(EstimateResponse{Ms: want})
	wantBody = append(wantBody, '\n')
	body := &rewindBody{}
	req := httptest.NewRequest(http.MethodPost, "/estimate", nil)
	req.Body = body
	w := &replyRecorder{h: http.Header{}}
	serveOnce := func() {
		body.Reset(payload)
		clear(w.h)
		w.code, w.body = 0, w.body[:0]
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK || !bytes.Equal(w.body, wantBody) {
			t.Fatalf("warm /estimate = %d %q, want 200 %q", w.code, w.body, wantBody)
		}
	}
	for i := 0; i < 64; i++ { // settle pools
		serveOnce()
	}
	if allocs := testing.AllocsPerRun(1000, serveOnce); allocs > ceiling {
		t.Fatalf("warm /estimate through Handler allocates %.1f objects, ceiling %d", allocs, ceiling)
	}
}

// rewindBody is a request body the test can refill between requests.
type rewindBody struct{ strings.Reader }

func (*rewindBody) Close() error { return nil }

// replyRecorder is a reusable ResponseWriter: unlike
// httptest.ResponseRecorder it allocates nothing once its buffer has
// grown, so it adds nothing to the count.
type replyRecorder struct {
	h    http.Header
	code int
	body []byte
}

func (w *replyRecorder) Header() http.Header  { return w.h }
func (w *replyRecorder) WriteHeader(code int) { w.code = code }
func (w *replyRecorder) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}
