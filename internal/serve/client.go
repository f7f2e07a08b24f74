package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/httpx"
	"repro/internal/obs"
)

// Client is a typed HTTP client for one qcfe-serve replica — the
// counterpart of Handler. The router (internal/router) holds one per
// replica; tests and tools use it directly. Every call goes through
// http.DefaultClient and runs under its context: a caller that needs a
// bound gives the context a deadline (the router does on every call).
type Client struct {
	// BaseURL is the replica's root URL, e.g. "http://10.0.0.5:8080".
	BaseURL string
	// AdminToken is sent as X-QCFE-Admin-Token on admin calls (Swap*,
	// Generation). Leave empty for data-plane-only use.
	AdminToken string
	// Tenant, when non-empty, is sent as the X-QCFE-Tenant header on
	// every call, naming this client's tenant against a multi-tenant
	// registry (internal/tenant). Single-tenant servers ignore it. The
	// router sets it per request to forward the caller's tenant.
	Tenant string
	// TraceID, when non-empty, is sent as the X-QCFE-Trace-ID header on
	// every call, so a scattered sub-batch carries its originating
	// request's trace through the fleet. The router sets it per request
	// from the inbound trace; retries reuse the same ID by construction
	// (the chaos tests pin that).
	TraceID string
}

// ReplicaError is a non-2xx reply from a replica, carrying the HTTP
// status and the server's error text. Transport-level failures (refused
// connections, timeouts) surface as ordinary errors, not ReplicaErrors.
type ReplicaError struct {
	Status int
	Msg    string
}

func (e *ReplicaError) Error() string {
	return fmt.Sprintf("replica returned %d: %s", e.Status, e.Msg)
}

// QueryFault reports whether the error is the query's fault (a 4xx:
// bad SQL, unknown environment) rather than the replica's. The router
// retries replica faults on the next ring node but propagates query
// faults — retrying a 400 elsewhere would just repeat it, and treating
// it as replica death would let one malformed query blacklist the
// fleet.
func (e *ReplicaError) QueryFault() bool {
	return e.Status >= 400 && e.Status < 500
}

// do posts (or gets) one JSON round trip. The request runs under ctx,
// so a caller deadline cancels the round trip mid-body, not just
// mid-dial.
func (c *Client) do(ctx context.Context, method, path string, in, out any, admin bool) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimSuffix(c.BaseURL, "/")+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if admin {
		req.Header.Set(httpx.AdminTokenHeader, c.AdminToken)
	}
	if c.Tenant != "" {
		req.Header.Set(httpx.TenantHeader, c.Tenant)
	}
	if c.TraceID != "" {
		req.Header.Set(obs.TraceHeader, c.TraceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<24))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var eresp httpx.ErrorResponse
		msg := strings.TrimSpace(string(raw))
		if json.Unmarshal(raw, &eresp) == nil && eresp.Error != "" {
			msg = eresp.Error
		}
		return &ReplicaError{Status: resp.StatusCode, Msg: msg}
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("decode %s reply: %w", path, err)
		}
	}
	return nil
}

// Estimate prices one query on the replica.
func (c *Client) Estimate(ctx context.Context, env int, sql string) (float64, error) {
	var out EstimateResponse
	if err := c.do(ctx, http.MethodPost, "/estimate", EstimateRequest{Env: env, SQL: sql}, &out, false); err != nil {
		return 0, err
	}
	return out.Ms, nil
}

// EstimateBatch prices a batch on the replica, results in input order.
func (c *Client) EstimateBatch(ctx context.Context, env int, sqls []string) ([]float64, error) {
	var out BatchResponse
	if err := c.do(ctx, http.MethodPost, "/estimate_batch", BatchRequest{Env: env, SQLs: sqls}, &out, false); err != nil {
		return nil, err
	}
	if len(out.Ms) != len(sqls) {
		return nil, fmt.Errorf("replica returned %d results for %d queries", len(out.Ms), len(sqls))
	}
	return out.Ms, nil
}

// Healthz fetches the replica's health and identity.
func (c *Client) Healthz(ctx context.Context) (HealthResponse, error) {
	var out HealthResponse
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out, false)
	return out, err
}

// Stats fetches the replica's serving counters (with cache and drift
// blocks when present).
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	err := c.do(ctx, http.MethodGet, "/stats", nil, &out, false)
	return out, err
}

// Generation fetches the replica's serving and staged generations
// (admin).
func (c *Client) Generation(ctx context.Context) (GenerationResponse, error) {
	var out GenerationResponse
	err := c.do(ctx, http.MethodGet, "/generation", nil, &out, true)
	return out, err
}

// SwapStage stages an artifact on the replica — shipped in-band when
// artifact is non-nil, referenced by server-local path otherwise — and
// prices the canary probe set on the staged estimator (admin).
func (c *Client) SwapStage(ctx context.Context, artifact []byte, path string, canaryEnv int, canarySQLs []string) (SwapResponse, error) {
	req := SwapRequest{Path: path, Stage: true, CanaryEnv: canaryEnv, CanarySQLs: canarySQLs}
	if artifact != nil {
		req.ArtifactB64 = base64.StdEncoding.EncodeToString(artifact)
		req.Path = ""
	}
	var out SwapResponse
	err := c.do(ctx, http.MethodPost, "/swap", req, &out, true)
	return out, err
}

// SwapCommit installs the replica's staged estimator (admin).
func (c *Client) SwapCommit(ctx context.Context) (SwapResponse, error) {
	var out SwapResponse
	err := c.do(ctx, http.MethodPost, "/swap", SwapRequest{Commit: true}, &out, true)
	return out, err
}

// SwapRollback reinstalls the estimator the replica's last commit
// replaced (admin).
func (c *Client) SwapRollback(ctx context.Context) (SwapResponse, error) {
	var out SwapResponse
	err := c.do(ctx, http.MethodPost, "/swap", SwapRequest{Rollback: true}, &out, true)
	return out, err
}

// SwapAbort discards the replica's staged estimator (admin).
func (c *Client) SwapAbort(ctx context.Context) (SwapResponse, error) {
	var out SwapResponse
	err := c.do(ctx, http.MethodPost, "/swap", SwapRequest{Abort: true}, &out, true)
	return out, err
}
