package router

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sqlparse"
)

// Scatter/gather: a batch request is split into per-replica sub-batches
// by each query's routing key, the sub-batches are priced concurrently,
// and the replies are merged back into the caller's original index
// order. Failures are handled per sub-batch in retry rounds — a query
// whose replica faulted advances to the next position in its own
// deterministic failover sequence, so a retried query always lands on
// the same fallback replica for the same fleet, regardless of timing.

// route is one query's routing state across retry rounds.
type route struct {
	seq []int // the key's deterministic failover order (ring walk)
	pos int   // next position in seq to try
}

// queryFault is a deterministic 4xx to propagate: when several
// sub-batches fail with query faults, the one covering the lowest
// original index wins, so the reported error never depends on replica
// count or completion order.
type queryFault struct {
	minIndex int
	err      error
}

// Estimate routes one query to its fingerprint's replica (with
// deterministic failover) and returns the estimate.
func (rt *Router) Estimate(ctx context.Context, env int, sql string) (float64, error) {
	return rt.EstimateTenant(ctx, "", env, sql)
}

// EstimateTenant is Estimate for a named tenant against a multi-tenant
// fleet: the tenant is folded into the routing key (one tenant's
// templates stay cache-local to one replica instead of colliding with
// every tenant's on the same ring point) and forwarded to the replica
// as the X-QCFE-Tenant header. An empty tenant routes and serves
// exactly like the single-tenant path.
func (rt *Router) EstimateTenant(ctx context.Context, tenant string, env int, sql string) (float64, error) {
	rt.requests.Add(1)
	ms, err := rt.scatter(ctx, tenant, env, []string{sql})
	if err != nil {
		rt.errors.Add(1)
		return 0, err
	}
	return ms[0], nil
}

// EstimateBatch scatters a batch over the fleet and gathers the results
// in input order. The answer is bit-identical to pricing the same batch
// on any single replica (they all serve the same artifact), which is
// the property the cross-topology golden tests pin down.
func (rt *Router) EstimateBatch(ctx context.Context, env int, sqls []string) ([]float64, error) {
	return rt.EstimateBatchTenant(ctx, "", env, sqls)
}

// EstimateBatchTenant is EstimateBatch for a named tenant; see
// EstimateTenant for the routing-key and forwarding semantics.
func (rt *Router) EstimateBatchTenant(ctx context.Context, tenant string, env int, sqls []string) ([]float64, error) {
	rt.batchQueries.Add(int64(len(sqls)))
	ms, err := rt.scatter(ctx, tenant, env, sqls)
	if err != nil {
		rt.errors.Add(1)
	}
	return ms, err
}

// tenantKey folds a tenant name into a query's routing key (FNV-1a
// walk seeded with the fingerprint hash). Distinct tenants thus get
// independent ring placements for the same template — each tenant's
// working set stays cache-local to its own replica — while the empty
// tenant leaves the key, and therefore every existing placement,
// untouched.
func tenantKey(h uint64, tenant string) uint64 {
	if tenant == "" {
		return h
	}
	const prime64 = 1099511628211
	h = (h ^ 0xff) * prime64 // separator: "" and "\x00"-ish names can't collide with no-tenant
	for i := 0; i < len(tenant); i++ {
		h = (h ^ uint64(tenant[i])) * prime64
	}
	return h
}

// scatter is the shared routing core.
func (rt *Router) scatter(ctx context.Context, tenant string, env int, sqls []string) ([]float64, error) {
	if len(sqls) == 0 {
		return []float64{}, nil
	}
	reqStart := time.Now()
	defer rt.histRequest.RecordSince(reqStart)
	// The request's trace (nil when untraced) is forwarded on EVERY
	// sub-batch dispatch below — including failover retries, which reuse
	// the same trace and therefore the same X-QCFE-Trace-ID. The chaos
	// tests pin that survival contract.
	tr := obs.TraceFrom(ctx)
	traceID := ""
	if tr != nil {
		traceID = tr.ID
	}
	maxAttempts := rt.opts.MaxAttempts
	if maxAttempts <= 0 || maxAttempts > len(rt.replicas) {
		maxAttempts = len(rt.replicas)
	}

	// Resolve each query's failover sequence once. Queries sharing a
	// template share a routing key, so literal variants of one template
	// always land on the same replica — and thus the same template/
	// feature/prediction cache tiers.
	seqByHash := make(map[uint64][]int)
	routes := make([]route, len(sqls))
	for i, sql := range sqls {
		h := tenantKey(sqlparse.RoutingHash(sql), tenant)
		seq, ok := seqByHash[h]
		if !ok {
			seq = rt.ring.sequence(h)
			seqByHash[h] = seq
		}
		routes[i] = route{seq: seq}
	}

	results := make([]float64, len(sqls))
	pending := make([]int, len(sqls))
	for i := range pending {
		pending[i] = i
	}

	var lastErr error
	for round := 0; len(pending) > 0; round++ {
		if round > 0 {
			shift := round - 1
			if shift > 10 {
				shift = 10
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(rt.opts.RetryBackoff << shift):
			}
		}

		// Group pending queries by the replica their next attempt
		// targets: the first breaker-admitted position at or after the
		// query's own, falling back to the position itself when every
		// remaining breaker refuses (a fully-tripped fleet should still
		// try somewhere rather than fail without a single request).
		now := time.Now()
		groups := make(map[int][]int)
		for _, qi := range pending {
			r := &routes[qi]
			if r.pos >= maxAttempts || r.pos >= len(r.seq) {
				if lastErr == nil {
					lastErr = errors.New("no replicas available")
				}
				return nil, errAllAttemptsFailed(r.pos, lastErr)
			}
			pos := r.pos
			for p := r.pos; p < len(r.seq) && p < maxAttempts; p++ {
				if rt.replicas[r.seq[p]].breaker.allow(now) {
					pos = p
					break
				}
			}
			r.pos = pos
			groups[r.seq[pos]] = append(groups[r.seq[pos]], qi)
		}

		// Fan out, one concurrent sub-batch per replica. Dispatch order
		// is sorted for stable counters; results merge by index, so
		// completion order never matters.
		reps := make([]int, 0, len(groups))
		for ri := range groups {
			reps = append(reps, ri)
		}
		sort.Ints(reps)
		type groupResult struct {
			replica int
			indices []int
			ms      []float64
			err     error
		}
		resCh := make(chan groupResult, len(reps))
		for _, ri := range reps {
			indices := groups[ri]
			sub := make([]string, len(indices))
			for k, qi := range indices {
				sub[k] = sqls[qi]
			}
			rep := rt.replicas[ri]
			rt.fanouts.Add(1)
			rep.requests.Add(int64(len(indices)))
			go func(ri int, rep *replica, indices []int, sub []string) {
				cctx, cancel := context.WithTimeout(ctx, rt.opts.Timeout)
				defer cancel()
				// Per-call client copy: the caller's tenant and trace ID
				// ride to the replica as headers.
				cl := *rep.client
				cl.Tenant = tenant
				cl.TraceID = traceID
				subStart := time.Now()
				ms, err := cl.EstimateBatch(cctx, env, sub)
				rep.histSub.RecordSince(subStart)
				tr.AddSpan("subbatch", rep.id, subStart)
				resCh <- groupResult{replica: ri, indices: indices, ms: ms, err: err}
			}(ri, rep, indices, sub)
		}

		var fault *queryFault
		var newPending []int
		for range reps {
			gr := <-resCh
			rep := rt.replicas[gr.replica]
			if gr.err == nil {
				rep.breaker.success()
				rep.healthy.Store(true)
				for k, qi := range gr.indices {
					results[qi] = gr.ms[k]
				}
				continue
			}
			var re *serve.ReplicaError
			if errors.As(gr.err, &re) && re.QueryFault() {
				// The query's fault, not the replica's: no breaker
				// penalty, no retry (a 400 repeats anywhere). Indices
				// within a group ascend, so indices[0] is its minimum.
				if fault == nil || gr.indices[0] < fault.minIndex {
					fault = &queryFault{minIndex: gr.indices[0], err: gr.err}
				}
				continue
			}
			// Replica fault: trip-count the breaker and push the whole
			// sub-batch to its next failover position.
			rep.breaker.failure(time.Now())
			rep.healthy.Store(false)
			rep.failures.Add(1)
			lastErr = gr.err
			rt.retries.Add(int64(len(gr.indices)))
			for _, qi := range gr.indices {
				routes[qi].pos++
				newPending = append(newPending, qi)
			}
		}
		if fault != nil {
			return nil, fmt.Errorf("query %d: %w", fault.minIndex, fault.err)
		}
		if err := ctx.Err(); err != nil {
			// The caller vanished; the "replica faults" above were ours.
			return nil, err
		}
		sort.Ints(newPending)
		pending = newPending
	}
	// Gather is index-addressed as replies arrive, so "merge" is a
	// completion marker (offset = when the last slot filled), not a
	// phase with its own duration.
	if tr != nil {
		tr.AddSpan("merge", fmt.Sprintf("%d queries", len(sqls)), time.Now())
	}
	return results, nil
}
