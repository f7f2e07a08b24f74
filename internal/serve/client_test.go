package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/httpx"
)

// TestClientTenantHeader: a Client with Tenant set sends X-QCFE-Tenant
// on every call — data plane and admin alike — and sends nothing when
// unset.
func TestClientTenantHeader(t *testing.T) {
	var mu sync.Mutex
	headers := make(map[string]string) // path → last tenant header
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		headers[r.URL.Path] = r.Header.Get(httpx.TenantHeader)
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/estimate":
			w.Write([]byte(`{"ms":1}` + "\n"))
		case "/estimate_batch":
			w.Write([]byte(`{"ms":[1]}` + "\n"))
		default:
			w.Write([]byte(`{"status":"ok"}` + "\n"))
		}
	}))
	defer ts.Close()

	ctx := context.Background()
	c := &Client{BaseURL: ts.URL, Tenant: "acme"}
	if _, err := c.Estimate(ctx, 0, "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EstimateBatch(ctx, 0, []string{"SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SwapCommit(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	for _, path := range []string{"/estimate", "/estimate_batch", "/healthz", "/swap"} {
		if headers[path] != "acme" {
			t.Fatalf("%s: tenant header %q, want acme", path, headers[path])
		}
	}
	mu.Unlock()

	noTenant := &Client{BaseURL: ts.URL}
	if _, err := noTenant.Estimate(ctx, 0, "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if headers["/estimate"] != "" {
		t.Fatalf("tenant-less client sent header %q", headers["/estimate"])
	}
}

// TestClientDeadlines: admin and data-plane calls both honor context
// deadlines against a server that never answers.
func TestClientDeadlines(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(block) // LIFO: unblock handlers before ts.Close waits on them

	// Caller deadline on an admin call cancels the round trip.
	c := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.SwapCommit(ctx)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SwapCommit with expired ctx: err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("deadline ignored: call took %v", time.Since(start))
	}

	// The same on a data-plane call.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	start = time.Now()
	if _, err := c.Healthz(ctx2); err == nil {
		t.Fatal("Healthz against a hung server past its deadline must fail")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("caller deadline ignored: call took %v", time.Since(start))
	}
}
