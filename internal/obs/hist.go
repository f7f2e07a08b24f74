// Package obs is the zero-dependency observability layer under every
// serving surface in this repository: lock-free latency histograms,
// a hand-rolled Prometheus text-exposition renderer, request tracing
// with per-stage spans, structured slow-query logging, and build
// identification (internal/httpx mounts these, and pprof, on every
// daemon's HTTP surface). It imports nothing outside
// the standard library and nothing else in this module, so any layer —
// qcache's tier probes, serve's miss path, the router's scatter path —
// can record into it without an import cycle.
package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: log-linear over nanoseconds. Values below
// 2^subBits+1 get one bucket each (exact); above that, each power-of-two
// octave is split into 2^subBits linear sub-buckets, so consecutive
// bucket boundaries grow by at most 1 + 2^-subBits ≈ 1.07× (relative
// bucket width 3.1%–6.7%) — a quantile read from a bucket's upper bound
// overstates the true value by under 7% anywhere in the range. The
// tracked range tops out at 2^(maxExp+1)-1 ns ≈ 17.2s (comfortably past
// the 10s any sane request deadline allows); larger values land in the
// terminal overflow bucket and saturate quantiles at histMaxNs.
const (
	subBits = 4
	subMask = 1<<subBits - 1
	maxExp  = 33 // top octave: [2^33, 2^34) ns ≈ [8.6s, 17.2s)

	// nBuckets: indices 0..2^(subBits+1)-1 are the exact small values,
	// then (maxExp-subBits)·2^subBits log-linear buckets, then one
	// overflow bucket.
	nBuckets = 1<<(subBits+1) + (maxExp-subBits)<<subBits + 1

	// histMaxNs is the largest tracked value: the upper bound of the
	// last non-overflow bucket.
	histMaxNs = int64(1)<<(maxExp+1) - 1
)

// bucketFor maps a duration in nanoseconds to its bucket index. It is
// a handful of integer ops — no floating point, no branches beyond the
// range clamps — so a Record stays a few nanoseconds (the benchmark's
// obs.histogram_record_ns).
func bucketFor(ns int64) int {
	if ns <= 0 {
		return 0
	}
	u := uint64(ns)
	e := bits.Len64(u) - 1
	if e < subBits {
		return int(u)
	}
	idx := (e-subBits)<<subBits + int(u>>uint(e-subBits))
	if idx >= nBuckets-1 {
		return nBuckets - 1 // overflow
	}
	return idx
}

// bucketUpperNs is bucketFor's inverse: the largest nanosecond value
// that lands in bucket idx (the bucket's inclusive upper bound). The
// overflow bucket reports histMaxNs — quantiles saturate rather than
// invent values beyond the tracked range.
func bucketUpperNs(idx int) int64 {
	if idx < 1<<subBits {
		return int64(idx)
	}
	if idx >= nBuckets-1 {
		return histMaxNs
	}
	e := idx>>subBits + subBits - 1
	m := idx&subMask | 1<<subBits
	return int64(m+1)<<uint(e-subBits) - 1
}

// Histogram is a lock-free log-bucketed latency histogram: a fixed
// array of atomic counters plus an atomic sum. Record is wait-free (two
// atomic adds) and allocation-free, so it is safe on the zero-alloc
// warm serving path; Snapshot may run concurrently with writers and
// observes each counter atomically (the cross-bucket view is a moment's
// blur, which is all a monitoring read needs). The zero value is NOT
// usable — construct with NewHistogram so the registers are one heap
// object recorded into for the server's whole life. All methods are
// nil-receiver-safe: an optional, unattached histogram records nothing.
type Histogram struct {
	buckets [nBuckets]atomic.Int64
	sumNs   atomic.Int64
}

// NewHistogram pre-allocates a histogram's registers.
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	h.buckets[bucketFor(int64(d))].Add(1)
	h.sumNs.Add(int64(d))
}

// RecordSince records the elapsed time since t0.
func (h *Histogram) RecordSince(t0 time.Time) {
	if h != nil {
		h.Record(time.Since(t0))
	}
}

// Snapshot copies the registers into an inert, mergeable value. A nil
// histogram snapshots as empty.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	s.SumNs = h.sumNs.Load()
	return s
}

// HistSnapshot is a point-in-time histogram copy: plain integers,
// safe to merge, quantile, and render without further synchronization.
type HistSnapshot struct {
	Counts [nBuckets]int64
	SumNs  int64
}

// Count is the total number of recorded observations.
func (s *HistSnapshot) Count() int64 {
	var n int64
	for i := range s.Counts {
		n += s.Counts[i]
	}
	return n
}

// Quantile estimates the q-th quantile (0 < q ≤ 1) as the upper bound
// of the bucket containing the target rank — an overestimate by at most
// one bucket's relative width (<7%). Returns 0 for an empty snapshot.
func (s *HistSnapshot) Quantile(q float64) time.Duration {
	total := s.Count()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := range s.Counts {
		cum += s.Counts[i]
		if cum >= rank {
			return time.Duration(bucketUpperNs(i))
		}
	}
	return time.Duration(histMaxNs)
}

// P50, P90, P99, P999 are the quantiles every latency dashboard wants.
func (s *HistSnapshot) P50() time.Duration  { return s.Quantile(0.50) }
func (s *HistSnapshot) P90() time.Duration  { return s.Quantile(0.90) }
func (s *HistSnapshot) P99() time.Duration  { return s.Quantile(0.99) }
func (s *HistSnapshot) P999() time.Duration { return s.Quantile(0.999) }

// String renders the headline numbers for logs and test failures.
func (s *HistSnapshot) String() string {
	n := s.Count()
	if n == 0 {
		return "hist{empty}"
	}
	mean := time.Duration(s.SumNs / n)
	return fmt.Sprintf("hist{n=%d mean=%v p50=%v p90=%v p99=%v p999=%v}",
		n, mean, s.P50(), s.P90(), s.P99(), s.P999())
}
