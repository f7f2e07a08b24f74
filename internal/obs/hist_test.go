package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries: the index function and its inverse agree, the
// mapping is monotone, every value is ≤ its bucket's upper bound and >
// the previous bucket's, and consecutive boundaries grow by at most
// ~1.07× once buckets are wider than exact integers.
func TestBucketBoundaries(t *testing.T) {
	values := []int64{0, 1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 100, 127, 128,
		1000, 4095, 4096, 1e6, 1e9, 5e9, histMaxNs - 1, histMaxNs}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		values = append(values, rng.Int63n(histMaxNs))
	}
	// Exercise every bucket's exact boundaries too.
	for idx := 0; idx < nBuckets; idx++ {
		u := bucketUpperNs(idx)
		values = append(values, u, u+1)
	}
	for _, v := range values {
		idx := bucketFor(v)
		if idx < 0 || idx >= nBuckets {
			t.Fatalf("bucketFor(%d) = %d out of range", v, idx)
		}
		if v <= histMaxNs {
			if up := bucketUpperNs(idx); v > up {
				t.Fatalf("value %d above its bucket %d upper bound %d", v, idx, up)
			}
			if idx > 0 {
				if low := bucketUpperNs(idx - 1); v <= low && v > 0 {
					t.Fatalf("value %d not above bucket %d's predecessor bound %d", v, idx, low)
				}
			}
		} else if idx != nBuckets-1 {
			t.Fatalf("value %d beyond histMaxNs should overflow, got bucket %d", v, idx)
		}
	}
	// Monotone: upper bounds strictly increase, and round-trip through
	// bucketFor lands back in the same bucket.
	for idx := 1; idx < nBuckets-1; idx++ {
		lo, hi := bucketUpperNs(idx-1), bucketUpperNs(idx)
		if hi <= lo {
			t.Fatalf("bucket bounds not increasing at %d: %d then %d", idx, lo, hi)
		}
		if got := bucketFor(hi); got != idx {
			t.Fatalf("bucketFor(upper(%d)=%d) = %d", idx, hi, got)
		}
		// Boundary growth ratio: ≤ ~1.07 once past the exact integer
		// region (where the ratio is trivially large: 2/1). The worst
		// case is the first log-linear bucket, 33/31 ≈ 1.0645.
		if lo >= 1<<subBits {
			if ratio := float64(hi) / float64(lo); ratio > 1.07 {
				t.Fatalf("bucket %d boundary ratio %.4f exceeds ~1.07 target", idx, ratio)
			}
		}
	}
	if got := bucketFor(histMaxNs + 1); got != nBuckets-1 {
		t.Fatalf("overflow value got bucket %d, want %d", got, nBuckets-1)
	}
}

// TestQuantileAccuracy: against a known sample set, every estimated
// quantile brackets the true order statistic from above by at most one
// bucket's relative width.
func TestQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(11))
	n := 50000
	samples := make([]int64, n)
	for i := range samples {
		// Log-uniform over 100ns..5s — the range serving latencies live in.
		v := int64(100 * float64(uint64(1)<<uint(rng.Intn(26))) * (0.5 + rng.Float64()))
		samples[i] = v
		h.Record(time.Duration(v))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	snap := h.Snapshot()
	if snap.Count() != int64(n) {
		t.Fatalf("count %d, want %d", snap.Count(), n)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(q*float64(n)+0.5) - 1
		truth := samples[rank]
		got := int64(snap.Quantile(q))
		if got < truth {
			t.Fatalf("q%.3f: estimate %d below true order statistic %d", q, got, truth)
		}
		if maxAllowed := truth + truth/(1<<subBits) + 1; got > maxAllowed {
			t.Fatalf("q%.3f: estimate %d overstates true %d by more than one bucket width (max %d)",
				q, got, truth, maxAllowed)
		}
	}
	// Mean via SumNs matches the samples exactly (sums are exact even
	// though buckets quantize).
	var want int64
	for _, v := range samples {
		want += v
	}
	if snap.SumNs != want {
		t.Fatalf("SumNs %d, want %d", snap.SumNs, want)
	}
}

// TestHistogramOverflowAndZero: out-of-range observations clamp rather
// than corrupt.
func TestHistogramOverflowAndZero(t *testing.T) {
	h := NewHistogram()
	h.Record(-5 * time.Second)
	h.Record(0)
	h.Record(time.Duration(histMaxNs) * 4)
	snap := h.Snapshot()
	if snap.Count() != 3 {
		t.Fatalf("count %d, want 3", snap.Count())
	}
	if snap.Counts[0] != 2 || snap.Counts[nBuckets-1] != 1 {
		t.Fatalf("clamping misplaced: low=%d overflow=%d", snap.Counts[0], snap.Counts[nBuckets-1])
	}
	if got := snap.Quantile(1.0); int64(got) != histMaxNs {
		t.Fatalf("overflow quantile %v, want saturation at %v", got, time.Duration(histMaxNs))
	}
}

// TestNilHistogram: every method is a safe no-op on nil — optional
// attachment points (qcache tiers) rely on it.
func TestNilHistogram(t *testing.T) {
	var h *Histogram
	h.Record(time.Second)
	h.RecordSince(time.Now())
	if s := h.Snapshot(); s.Count() != 0 {
		t.Fatalf("nil histogram snapshot not empty: %v", s.Count())
	}
}

// TestRecordZeroAlloc: a latency sample is two atomic adds into registers
// allocated once, on an attached histogram and on a nil one alike — the
// property that lets every warm path record without leaving its 0-alloc
// budget. (What a sample costs in time is the benchmark's
// obs.histogram_record_ns.)
func TestRecordZeroAlloc(t *testing.T) {
	durations := [...]time.Duration{1_000, 17_000, 250_000, 3_100_000, 42_000_000}
	for name, h := range map[string]*Histogram{"attached": NewHistogram(), "nil": nil} {
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			h.Record(durations[i%len(durations)])
			i++
		})
		if allocs != 0 {
			t.Errorf("%s histogram: Record allocates %.2f allocs/op, want 0", name, allocs)
		}
	}
}

// TestConcurrentRecordMerge: G goroutines hammer one shared histogram
// and one private histogram each with identical values; the merge of
// the private snapshots must equal the shared snapshot bit for bit.
// Run under -race this is also the data-race proof for Record/Snapshot.
func TestConcurrentRecordMerge(t *testing.T) {
	const goroutines = 8
	const perG = 20000
	shared := NewHistogram()
	privs := make([]*Histogram, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		privs[g] = NewHistogram()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				d := time.Duration(rng.Int63n(int64(10 * time.Second)))
				shared.Record(d)
				privs[g].Record(d)
				if i%4096 == 0 {
					_ = shared.Snapshot() // concurrent reader under -race
				}
			}
		}(g)
	}
	wg.Wait()

	var merged HistSnapshot
	for _, p := range privs {
		merged.Merge(p.Snapshot())
	}
	got := shared.Snapshot()
	if merged != got {
		t.Fatalf("merged per-goroutine snapshots diverge from shared histogram:\nmerged %s\nshared %s",
			merged.String(), got.String())
	}
	if got.Count() != goroutines*perG {
		t.Fatalf("lost records: %d, want %d", got.Count(), goroutines*perG)
	}
}
