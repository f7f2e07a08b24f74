package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"net/http"
	"os"

	qcfe "repro"
	"repro/internal/httpx"
)

// The admin plane: a token-authenticated two-phase swap protocol that
// lets a router (cmd/qcfe-router) roll a new artifact generation through
// a live replica without a process restart.
//
//	stage    — load an artifact (upload or path) off to the side and,
//	           optionally, price a canary probe set with it. The staged
//	           estimator serves nothing; traffic is untouched.
//	commit   — atomically install the staged estimator via the existing
//	           SwapEstimator path (query-cache handoff included). The
//	           replaced estimator is retained as the rollback target.
//	rollback — atomically reinstall the estimator the last commit
//	           replaced. Rollback is its own inverse: the pair
//	           (commit, rollback) can alternate indefinitely.
//	abort    — discard the staged estimator.
//
// Splitting stage from commit is what makes the router's canary gate a
// real gate: a replica whose staged artifact fails the canary probe is
// never installed — its serving generation never moves — so "replicas
// after the failure point never swap" holds by construction, and only
// replicas that already committed need the (equally atomic) rollback.

// SwapRequest is the /swap body. Exactly one action is taken per
// request: staging (ArtifactB64 or Path set, Stage true), Commit,
// Rollback, or Abort. An artifact supplied with Stage false is a
// one-shot stage+commit (no canary gate) for manual operation.
type SwapRequest struct {
	// ArtifactB64 is the artifact bytes, base64-encoded (the router
	// ships artifacts in-band so replicas need no shared filesystem).
	ArtifactB64 string `json:"artifact_b64,omitempty"`
	// Path is a server-local artifact path, for fleets that do share
	// storage; ignored when ArtifactB64 is set.
	Path string `json:"path,omitempty"`
	// Stage holds the loaded artifact without installing it.
	Stage bool `json:"stage,omitempty"`
	// CanaryEnv/CanarySQLs, with Stage: price these queries on the
	// staged estimator and return the predictions, so the caller can
	// compare them byte-for-byte against expected outputs before
	// committing.
	CanaryEnv  int      `json:"canary_env,omitempty"`
	CanarySQLs []string `json:"canary_sqls,omitempty"`
	// Commit installs the previously staged estimator.
	Commit bool `json:"commit,omitempty"`
	// Rollback reinstalls the estimator the last commit replaced.
	Rollback bool `json:"rollback,omitempty"`
	// Abort discards the staged estimator.
	Abort bool `json:"abort,omitempty"`
}

// SwapResponse is the /swap reply: the serving generation after the
// operation, the staged generation (empty when nothing is staged), and
// the staged estimator's canary predictions when probes were supplied.
type SwapResponse struct {
	Generation string    `json:"generation"`
	Staged     string    `json:"staged,omitempty"`
	CanaryMs   []float64 `json:"canary_ms,omitempty"`
	Swapped    bool      `json:"swapped,omitempty"`
}

// GenerationResponse is the /generation reply.
type GenerationResponse struct {
	Generation string `json:"generation"`
	Staged     string `json:"staged,omitempty"`
}

// GenerationString renders a generation the way every admin and health
// endpoint reports it: 16 lowercase hex digits.
func GenerationString(g uint64) string { return fmt.Sprintf("%016x", g) }

// handleSwap is the POST /swap handler.
func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	var req SwapRequest
	if !httpx.Authorized(w, r, s.opts.AdminToken, "admin endpoints") ||
		!httpx.DecodeJSON(w, r, httpx.MaxArtifactBody, &req) {
		return
	}
	resp, err := s.Swap(req)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, resp)
}

// Swap executes one admin swap operation. It is exported so in-process
// fleets (tests, examples, benchmarks) can drive the same protocol the
// HTTP endpoint exposes.
func (s *Server) Swap(req SwapRequest) (SwapResponse, error) {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()

	switch {
	case req.ArtifactB64 != "" || req.Path != "":
		next, err := s.loadArtifact(req)
		if err != nil {
			return SwapResponse{}, err
		}
		resp := SwapResponse{}
		if len(req.CanarySQLs) > 0 {
			ms, err := s.canary(next, req.CanaryEnv, req.CanarySQLs)
			if err != nil {
				return SwapResponse{}, fmt.Errorf("canary probe failed: %w", err)
			}
			resp.CanaryMs = ms
		}
		if req.Stage {
			s.staged = next
			resp.Staged = GenerationString(next.Generation())
		} else {
			s.commitLocked(next)
			resp.Swapped = true
		}
		resp.Generation = GenerationString(s.Estimator().Generation())
		return resp, nil

	case req.Commit:
		if s.staged == nil {
			return SwapResponse{}, fmt.Errorf("commit without a staged artifact")
		}
		s.commitLocked(s.staged)
		s.staged = nil
		return SwapResponse{Generation: GenerationString(s.Estimator().Generation()), Swapped: true}, nil

	case req.Rollback:
		if s.prev == nil {
			return SwapResponse{}, fmt.Errorf("rollback without a previous estimator")
		}
		s.commitLocked(s.prev)
		return SwapResponse{Generation: GenerationString(s.Estimator().Generation()), Swapped: true}, nil

	case req.Abort:
		s.staged = nil
		return SwapResponse{Generation: GenerationString(s.Estimator().Generation())}, nil
	}
	return SwapResponse{}, fmt.Errorf("swap request names no action (artifact, commit, rollback, or abort)")
}

// commitLocked installs next as the serving estimator, handing the query
// cache over when both sides are real estimators (a fake in tests simply
// skips the handoff), and retains the replaced estimator as the rollback
// target. Callers hold adminMu; the install itself is the same atomic
// pointer store every in-flight request snapshots against.
func (s *Server) commitLocked(next Estimator) {
	old := s.Estimator()
	if oe, ok := old.(*qcfe.CostEstimator); ok {
		if ne, ok2 := next.(*qcfe.CostEstimator); ok2 {
			qcfe.SwapEstimator(oe, ne)
		}
	}
	s.SwapEstimator(next)
	s.prev = old
}

// loadArtifact materializes the request's artifact into an estimator.
func (s *Server) loadArtifact(req SwapRequest) (Estimator, error) {
	var raw []byte
	switch {
	case req.ArtifactB64 != "":
		b, err := base64.StdEncoding.DecodeString(req.ArtifactB64)
		if err != nil {
			return nil, fmt.Errorf("artifact_b64: %w", err)
		}
		raw = b
	case req.Path != "":
		b, err := os.ReadFile(req.Path)
		if err != nil {
			return nil, fmt.Errorf("artifact path: %w", err)
		}
		raw = b
	}
	est, err := qcfe.LoadEstimator(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("load artifact: %w", err)
	}
	return est, nil
}

// canary prices the probe set on a candidate estimator. The candidate is
// not serving, so this uses the plain batched path — the same one the
// routed /estimate_batch ends in, which is what makes the comparison
// meaningful bit for bit.
func (s *Server) canary(est Estimator, envID int, sqls []string) ([]float64, error) {
	var env *qcfe.Environment
	for _, e := range est.Environments() {
		if e.ID == envID {
			env = e
			break
		}
	}
	if env == nil {
		return nil, fmt.Errorf("staged artifact has no environment %d", envID)
	}
	return est.EstimateSQLBatchCtx(context.Background(), env, sqls)
}

// handleGeneration is the GET /generation handler.
func (s *Server) handleGeneration(w http.ResponseWriter, r *http.Request) {
	if !httpx.Authorized(w, r, s.opts.AdminToken, "admin endpoints") || !httpx.RequireGet(w, r) {
		return
	}
	s.adminMu.Lock()
	staged := ""
	if s.staged != nil {
		staged = GenerationString(s.staged.Generation())
	}
	s.adminMu.Unlock()
	httpx.WriteJSON(w, http.StatusOK, GenerationResponse{
		Generation: GenerationString(s.Estimator().Generation()),
		Staged:     staged,
	})
}
