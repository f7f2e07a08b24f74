package router

import (
	"context"
	"net/http"
	"sync"
	"testing"
)

// TestTenantKey: the tenant fold keeps the empty tenant's placements
// and separates named tenants deterministically.
func TestTenantKey(t *testing.T) {
	h := uint64(0xdeadbeefcafe)
	if tenantKey(h, "") != h {
		t.Fatal("empty tenant must leave the routing key untouched")
	}
	a, b := tenantKey(h, "alpha"), tenantKey(h, "beta")
	if a == h || b == h || a == b {
		t.Fatalf("tenant fold failed to separate keys: %x %x %x", h, a, b)
	}
	if a != tenantKey(h, "alpha") {
		t.Fatal("tenant fold is not deterministic")
	}
}

// TestScatterForwardsTenant: a routed request carries the caller's
// tenant to the replica as the X-QCFE-Tenant header, and the tenant
// participates in placement (same query, different tenants may land on
// different replicas — but always deterministically).
func TestScatterForwardsTenant(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[string]int)
	f := startFleet(t, 2, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen[r.Header.Get("X-QCFE-Tenant")]++
			mu.Unlock()
			h.ServeHTTP(w, r)
		})
	})
	rt := newTestRouter(t, f, Options{})
	ctx := context.Background()
	want := wantBatch(t, 0, []string{testSQL(1)})
	for _, tenant := range []string{"", "alpha", "beta"} {
		got, err := rt.EstimateBatchTenant(ctx, tenant, 0, []string{testSQL(1)})
		if err != nil {
			t.Fatalf("tenant %q: %v", tenant, err)
		}
		// Replicas all serve the same artifact, so the answer is
		// tenant-independent even though placement is not.
		assertBitsEqual(t, got, want, "tenant "+tenant)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, tenant := range []string{"", "alpha", "beta"} {
		if seen[tenant] == 0 {
			t.Fatalf("no replica saw tenant header %q (seen: %v)", tenant, seen)
		}
	}
}
