package tenant

import (
	"context"
	"errors"
	"sync"
)

// Admission control: weighted fair-share token buckets over the NN
// serving capacity, with a bounded per-tenant wait queue in front of
// each tenant's server.
//
// Capacity here is concurrency, not a request rate — the NN path is
// CPU-bound, so the meaningful budget is "how many estimates may be in
// flight at once". Each tenant's bucket therefore holds *inflight
// slots*: a token is consumed when a request is admitted to the full
// NN path (rung 1) and regenerates when that request completes, which
// ties the refill rate to what the machine actually sustains instead
// of a configured guess.
//
// # Fair-share math
//
// MaxInflight slots are divided into guaranteed floors by weight:
//
//	share_i = max(1, floor(MaxInflight * w_i / Σw))
//
// A tenant below its floor is admitted unconditionally — the floor is
// a hard reservation, which is the whole isolation guarantee: no
// amount of traffic from other tenants can consume it, because their
// admissions never gate a below-floor tenant's. (A floor admit skips
// the global check, so the total may transiently exceed MaxInflight
// by at most the floor sum's rounding slack.) A tenant at or above
// its floor may still *borrow* idle capacity — admission is
// work-conserving — but only while the global count is below
// MaxInflight and none of its own requests are already queued (FIFO
// order within a tenant).
//
// When no slot is available the request waits in its tenant's FIFO
// queue, bounded by queueDepth: each released slot is granted first to
// a below-floor tenant's waiter (round-robin across tenants, so two
// starved tenants recover in turn), then to any waiter the borrow rule
// admits. A tenant whose queue is full gets no slot and no wait — the
// caller moves down the degradation ladder (warm-cache-only, then the
// analytic fallback, then shed). That bound is what makes a hostile
// tenant self-limiting: its flood saturates its own floor and its own
// queue, and everything beyond degrades or sheds without ever touching
// another tenant's floor.
//
// The rung-3 analytic path has its own, larger slot pool with the same
// weighted floors (but no queue — at microseconds per estimate,
// waiting costs more than pricing): a flooder degrades to analytic
// answers until even that budget is exhausted, then sheds with 429.
//
// One batch request consumes one slot regardless of batch size — a
// client batch is one batched inference pass, which is also one unit
// of the resource the slots meter. Per-query fairness across wildly
// different batch sizes is bounded by the 1 MB request cap, not by
// admission.
//
// All state lives behind one mutex; decisions are O(tenants) counter
// arithmetic (~hundreds of nanoseconds), far below the NN path they
// gate, and the prediction-tier warm path bypasses admission entirely.

// ErrShed is returned when a request exhausted every ladder rung: no
// NN slot, no warm prediction, and no analytic budget. HTTP maps it to
// 429 with a Retry-After header.
var ErrShed = errors.New("tenant: overloaded, request shed")

// waiter is one parked rung-1 request. granted and abandoned are
// guarded by the admission mutex; ch is closed on grant.
type waiter struct {
	ch        chan struct{}
	granted   bool
	abandoned bool
}

// bucket is one tenant's slot state (NN and analytic pools share it).
type bucket struct {
	weight   int
	share    int // guaranteed NN floor
	anShare  int // guaranteed analytic floor
	queueCap int

	inflight   int // NN slots held
	anInflight int // analytic slots held
	waiters    []*waiter
}

// admission is the registry-wide admission controller.
type admission struct {
	mu      sync.Mutex
	max     int // NN slot budget (soft-exceeded only by floors)
	anMax   int // analytic slot budget
	rr      int // round-robin cursor over buckets for grants
	buckets []*bucket
	total   int // NN slots held across tenants
	anTotal int // analytic slots held across tenants
}

// newAdmission carves the two slot budgets into weighted floors.
// Floors are assigned largest-remainder so they sum to at most the
// budget while every tenant keeps at least one slot.
func newAdmission(maxInflight, analyticMax, queueDepth int, weights []int) *admission {
	a := &admission{max: maxInflight, anMax: analyticMax}
	a.buckets = make([]*bucket, len(weights))
	shares := carve(maxInflight, weights)
	anShares := carve(analyticMax, weights)
	for i, w := range weights {
		a.buckets[i] = &bucket{weight: w, share: shares[i], anShare: anShares[i], queueCap: queueDepth}
	}
	return a
}

// carve splits total into per-weight integer floors: proportional
// truncation, minimum one each, remainder to the largest fractional
// parts (ties to the lower index, so the split is deterministic).
func carve(total int, weights []int) []int {
	n := len(weights)
	out := make([]int, n)
	sum := 0
	for _, w := range weights {
		sum += max(w, 1)
	}
	rem := total
	type frac struct {
		i    int
		part int // numerator of the fractional remainder, larger = first
	}
	fracs := make([]frac, 0, n)
	for i, w := range weights {
		w = max(w, 1)
		out[i] = max(total*w/sum, 1)
		rem -= out[i]
		fracs = append(fracs, frac{i: i, part: total * w % sum})
	}
	for k := 0; k < len(fracs) && rem > 0; k++ {
		best := k
		for j := k + 1; j < len(fracs); j++ {
			if fracs[j].part > fracs[best].part {
				best = j
			}
		}
		fracs[k], fracs[best] = fracs[best], fracs[k]
		out[fracs[k].i]++
		rem--
	}
	// The minimum-one bumps can oversubscribe a small budget under a
	// dominant weight; reclaim from the largest shares so the floors sum
	// to the budget again (only n > total leaves them oversubscribed —
	// at one slot each, there is nothing left to take).
	for rem < 0 {
		big := -1
		for i := range out {
			if out[i] > 1 && (big < 0 || out[i] > out[big]) {
				big = i
			}
		}
		if big < 0 {
			break
		}
		out[big]--
		rem++
	}
	return out
}

// acquire admits one rung-1 (full NN path) request for bucket b,
// waiting in b's bounded queue when no slot is free. It returns true
// with a slot held, or false when the queue is full (degrade) or ctx
// expired while waiting (the caller surfaces ctx.Err()).
func (a *admission) acquire(ctx context.Context, b *bucket) (bool, error) {
	a.mu.Lock()
	if a.admitLocked(b) {
		a.mu.Unlock()
		return true, nil
	}
	if len(b.waiters) >= b.queueCap {
		a.mu.Unlock()
		return false, nil
	}
	// Only an at-or-above-floor tenant ever queues (a below-floor one
	// was admitted above), so every waiter is a would-be borrower.
	w := &waiter{ch: make(chan struct{})}
	b.waiters = append(b.waiters, w)
	a.mu.Unlock()

	select {
	case <-w.ch:
		return true, nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// The grant raced the cancellation: we own a slot we will
			// not use. Hand it back (which may grant the next waiter).
			a.releaseLocked(b)
			a.mu.Unlock()
			return false, ctx.Err()
		}
		w.abandoned = true
		a.mu.Unlock()
		return false, ctx.Err()
	}
}

// admitLocked is the slot decision: floor first, then work-conserving
// borrowing that never outruns a starved floor. Caller holds a.mu.
func (a *admission) admitLocked(b *bucket) bool {
	if b.inflight < b.share {
		b.inflight++
		a.total++
		return true
	}
	if a.total < a.max && len(b.waiters) == 0 {
		b.inflight++
		a.total++
		return true
	}
	return false
}

// release returns a rung-1 slot and grants it onward if anyone waits.
func (a *admission) release(b *bucket) {
	a.mu.Lock()
	a.releaseLocked(b)
	a.mu.Unlock()
}

func (a *admission) releaseLocked(b *bucket) {
	b.inflight--
	a.total--
	a.grantLocked()
}

// grantLocked hands a freed slot to the most deserving waiter:
// below-floor tenants first (round-robin so recovery is fair), then —
// if the global budget allows — any waiter at all. Abandoned waiters
// are discarded in passing.
func (a *admission) grantLocked() {
	n := len(a.buckets)
	// Pass 1: below-floor tenants, starting after the last grantee.
	for k := 0; k < n; k++ {
		b := a.buckets[(a.rr+1+k)%n]
		if b.inflight >= b.share {
			continue
		}
		if w := popWaiter(b); w != nil {
			a.rr = (a.rr + 1 + k) % n
			b.inflight++
			a.total++
			w.granted = true
			close(w.ch)
			return
		}
	}
	// Pass 2: borrowing, only inside the global budget.
	if a.total >= a.max {
		return
	}
	for k := 0; k < n; k++ {
		b := a.buckets[(a.rr+1+k)%n]
		if w := popWaiter(b); w != nil {
			a.rr = (a.rr + 1 + k) % n
			b.inflight++
			a.total++
			w.granted = true
			close(w.ch)
			return
		}
	}
}

// popWaiter pops b's first live waiter, dropping abandoned ones.
func popWaiter(b *bucket) *waiter {
	for len(b.waiters) > 0 {
		w := b.waiters[0]
		b.waiters = b.waiters[1:]
		if !w.abandoned {
			return w
		}
	}
	return nil
}

// acquireAnalytic admits one rung-3 (analytic fallback) estimate:
// floor first, then borrow from idle analytic budget. No queue — the
// analytic path is microseconds, so if even this pool is saturated the
// process is past help and the request sheds.
func (a *admission) acquireAnalytic(b *bucket) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if b.anInflight < b.anShare || a.anTotal < a.anMax {
		b.anInflight++
		a.anTotal++
		return true
	}
	return false
}

func (a *admission) releaseAnalytic(b *bucket) {
	a.mu.Lock()
	b.anInflight--
	a.anTotal--
	a.mu.Unlock()
}

// queueDepth reports b's current waiter count (live waiters only).
func (a *admission) queueDepth(b *bucket) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, w := range b.waiters {
		if !w.abandoned {
			n++
		}
	}
	return n
}

// inflight reports b's held NN slots.
func (a *admission) inflight(b *bucket) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return b.inflight
}
