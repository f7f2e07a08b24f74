package router

import (
	"context"

	"repro/internal/qcache"
	"repro/internal/serve"
)

// ReplicaStats is one fleet member's slice of the router's /stats:
// the router-side view (breaker, routed counters) plus the replica's
// own /stats blocks fetched live.
type ReplicaStats struct {
	ID         string `json:"id"`
	Healthy    bool   `json:"healthy"`
	Generation string `json:"generation,omitempty"`
	Breaker    string `json:"breaker"`
	Trips      int64  `json:"breaker_trips"`
	Requests   int64  `json:"requests"` // queries the router sent here
	Failures   int64  `json:"failures"` // replica-fault round trips
	// Serve is the replica's live /stats reply (serve counters plus
	// cache and drift blocks); nil when the replica didn't answer.
	Serve *serve.StatsResponse `json:"serve,omitempty"`
}

// StatsResponse is the router's /stats reply: routing counters, the
// per-replica breakdown, and a fleet-wide aggregate of the replicas'
// serve counters (cache tiers summed across shards-of-the-fleet the
// same way qcache sums shards-of-a-process).
type StatsResponse struct {
	UptimeS      float64 `json:"uptime_s"`
	Replicas     int     `json:"replicas"`
	HealthyCount int     `json:"healthy"`
	// Generation is the fleet's artifact generation when uniform, ""
	// while replicas disagree (mid-rollout).
	Generation   string `json:"generation,omitempty"`
	Requests     int64  `json:"requests"`      // single-query requests routed
	BatchQueries int64  `json:"batch_queries"` // queries arriving in batches
	Fanouts      int64  `json:"fanouts"`       // sub-batches dispatched
	Retries      int64  `json:"retries"`       // queries re-routed to a fallback
	Errors       int64  `json:"errors"`
	Rollouts     int64  `json:"rollouts"`
	Rollbacks    int64  `json:"rollbacks"`
	// Fleet sums the serve counters of every replica that answered;
	// its mean_batch is 1 once any replica has priced a miss.
	Fleet serve.Stats `json:"fleet"`
	// Cache sums the per-tier hit/miss/size counters of every replica
	// cache; present when at least one replica has a cache attached.
	Cache        *fleetCache    `json:"cache,omitempty"`
	ReplicaStats []ReplicaStats `json:"replica_stats"`
}

// fleetCache is the cross-replica sum of qcache tier counters.
type fleetCache struct {
	Template   tierSum `json:"template"`
	Feature    tierSum `json:"feature"`
	Prediction tierSum `json:"prediction"`
}

type tierSum struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Stores    int64 `json:"stores"`
	Evictions int64 `json:"evictions"`
	Size      int64 `json:"size"`
}

func addTier(dst *tierSum, t qcache.TierStats) {
	dst.Hits += t.Hits
	dst.Misses += t.Misses
	dst.Stores += t.Stores
	dst.Evictions += t.Evictions
	dst.Size += int64(t.Size)
}

// Stats assembles the merged fleet stats, fetching each replica's
// /stats live (sequentially; fleet sizes are small, and /stats is not
// a hot path).
func (rt *Router) Stats(ctx context.Context) StatsResponse {
	resp := StatsResponse{
		UptimeS:      rt.Uptime().Seconds(),
		Replicas:     len(rt.replicas),
		Generation:   rt.uniformGeneration(),
		Requests:     rt.requests.Load(),
		BatchQueries: rt.batchQueries.Load(),
		Fanouts:      rt.fanouts.Load(),
		Retries:      rt.retries.Load(),
		Errors:       rt.errors.Load(),
		Rollouts:     rt.rollouts.Load(),
		Rollbacks:    rt.rollbacks.Load(),
	}
	for _, rep := range rt.replicas {
		state, trips := rep.breaker.snapshot()
		gen, _ := rep.lastGen.Load().(string)
		rs := ReplicaStats{
			ID:         rep.id,
			Healthy:    rep.healthy.Load(),
			Generation: gen,
			Breaker:    state,
			Trips:      trips,
			Requests:   rep.requests.Load(),
			Failures:   rep.failures.Load(),
		}
		if rs.Healthy {
			resp.HealthyCount++
		}
		sctx, cancel := context.WithTimeout(ctx, rt.opts.Timeout)
		sr, err := rep.client.Stats(sctx)
		cancel()
		if err == nil {
			rs.Serve = &sr
			resp.Fleet.Add(sr.Stats)
			if sr.Cache != nil {
				if resp.Cache == nil {
					resp.Cache = &fleetCache{}
				}
				addTier(&resp.Cache.Template, sr.Cache.Template)
				addTier(&resp.Cache.Feature, sr.Cache.Feature)
				addTier(&resp.Cache.Prediction, sr.Cache.Prediction)
			}
		}
		resp.ReplicaStats = append(resp.ReplicaStats, rs)
	}
	return resp
}
