package router

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestFleetMeanBatch: the router's /stats fleet block is the sum of its
// replicas' serve counters, and its mean_batch, (Σ requests − Σ cache
// hits) / Σ priced misses, is not a counter left at zero.
func TestFleetMeanBatch(t *testing.T) {
	f := startFleet(t, 2, nil)
	rt := newTestRouter(t, f, Options{})
	ctx := context.Background()
	// A priced miss on each replica (through Estimate, which routed
	// traffic never uses), then a warm repeat on the second.
	for i, srv := range f.servers {
		if _, err := srv.Estimate(ctx, 0, testSQL(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.servers[1].Estimate(ctx, 0, testSQL(1)); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/stats: %v: %s", err, rec.Body.Bytes())
	}
	var requests, hits, flushes int64
	for _, rs := range st.ReplicaStats {
		if rs.Serve == nil {
			t.Fatalf("replica %s did not answer /stats", rs.ID)
		}
		requests += rs.Serve.Requests
		hits += rs.Serve.CacheHits
		flushes += rs.Serve.Flushes
	}
	if requests != 3 || hits != 1 || flushes != 2 {
		t.Fatalf("replica sums: requests %d, cache hits %d, flushes %d; want 3, 1, 2", requests, hits, flushes)
	}
	want := float64(requests-hits) / float64(flushes)
	if st.Fleet.MeanBatch != want {
		t.Fatalf("fleet.mean_batch = %v, want %v (fleet %+v)", st.Fleet.MeanBatch, want, st.Fleet)
	}
}
