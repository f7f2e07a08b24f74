package qcache

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPredictionHitZeroAlloc pins the warm-path contract at its lowest
// layer: once a working set is published to the shard snapshots, a
// prediction-tier hit performs zero heap allocations. (The layers above
// hold the same property on their own paths: root
// TestEstimateSQLWarmZeroAlloc, serve TestEstimateWarmZeroAlloc, tenant
// TestWarmEstimateZeroAlloc.)
func TestPredictionHitZeroAlloc(t *testing.T) {
	c := New(Options{Shards: 8, Capacity: 256})
	g := c.Generation()
	k := PredictionKey(3, "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 42")
	c.PutPrediction(k, g, 1.5)
	// Drain the publication window: reads during the pending window may
	// take the shard mutex once to help publish (and the publication
	// itself clones the index). After that the hit path is lock- and
	// allocation-free.
	for i := 0; i < 64; i++ {
		if _, ok := c.GetPrediction(k, g); !ok {
			t.Fatal("warm key missed")
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.GetPrediction(k, g); !ok {
			t.Fatal("warm key missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("prediction-tier hit allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestTemplateFeatureHitZeroAlloc extends the zero-alloc pin to the
// other two tiers' lookups: key construction is a stack struct and the
// snapshot probe allocates nothing, whatever the tier.
func TestTemplateFeatureHitZeroAlloc(t *testing.T) {
	c := New(Options{Shards: 8, Capacity: 256})
	g := c.Generation()
	fk := FeatureKey(1, "select * from t where a = ?", "n2:42")
	c.PutFeatures(fk, g, nil)
	tk := TemplateKey(1, "select * from t where a = ?")
	c.PutTemplate(tk, g, nil)
	for i := 0; i < 64; i++ {
		c.GetFeatures(fk, g)
		c.GetTemplate(tk, g)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.GetFeatures(fk, g); !ok {
			t.Fatal("feature key missed")
		}
		if _, ok := c.GetTemplate(tk, g); !ok {
			t.Fatal("template key missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("feature+template hits allocate %.2f allocs/op, want 0", allocs)
	}
}

// TestPutThenGetVisibleImmediately pins the visibility contract the
// serving layer depends on (serve's warm-probe test runs with the
// batcher stopped, so a post-store miss would hang a request): a get
// issued any time after put returns must hit, even before the insertion
// has been published to the lock-free snapshot.
func TestPutThenGetVisibleImmediately(t *testing.T) {
	c := New(Options{Shards: 8, Capacity: 1024})
	g := c.Generation()
	for i := 0; i < 500; i++ {
		k := PredictionKey(0, fmt.Sprintf("q%d", i))
		c.PutPrediction(k, g, float64(i))
		if v, ok := c.GetPrediction(k, g); !ok || v != float64(i) {
			t.Fatalf("key %d invisible right after put (got %v, %v)", i, v, ok)
		}
	}
}

// TestCountersExact pins counter exactness under the RCU read path: a
// deterministic single-goroutine sequence must account for every lookup
// and store exactly — no sampling, no approximation — because the soak
// suite asserts monotonicity and the drift monitor reads hit rates.
func TestCountersExact(t *testing.T) {
	c := New(Options{Shards: 8, Capacity: 1024})
	g := c.Generation()
	const n = 300
	for i := 0; i < n; i++ {
		c.GetPrediction(PredictionKey(0, fmt.Sprintf("q%d", i)), g) // cold miss
	}
	for i := 0; i < n; i++ {
		c.PutPrediction(PredictionKey(0, fmt.Sprintf("q%d", i)), g, float64(i))
	}
	for r := 0; r < 3; r++ {
		for i := 0; i < n; i++ {
			if _, ok := c.GetPrediction(PredictionKey(0, fmt.Sprintf("q%d", i)), g); !ok {
				t.Fatalf("round %d: key %d missed", r, i)
			}
		}
	}
	st := c.Stats().Prediction
	if st.Hits != 3*n || st.Misses != n || st.Stores != n || st.Evictions != 0 {
		t.Fatalf("counters = %+v, want hits=%d misses=%d stores=%d evictions=0", st, 3*n, n, n)
	}
	if st.Size != n {
		t.Fatalf("size = %d, want %d", st.Size, n)
	}
}

// TestRCUHammer races lock-free readers against concurrent stores,
// CLOCK evictions (tiny capacity forces constant churn), and generation
// swaps. Correctness oracle: values encode their (key, generation)
// pair, so any hit whose value disagrees with its key+generation is a
// torn read. Counters must stay monotonic throughout and exactly
// account for all traffic at the end. Runs in CI under -race.
func TestRCUHammer(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	c := New(Options{Shards: 8, Capacity: 64}) // 8 slots/shard: heavy eviction churn
	const (
		keys     = 256
		readers  = 8
		writers  = 4
		duration = 300 * time.Millisecond
	)
	gens := [2]uint64{111, 222}
	c.SetGeneration(gens[0])
	// value oracle: encodes (key index, generation) bit-exactly.
	val := func(i int, g uint64) float64 { return float64(i)*1e6 + float64(g) }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var torn atomic.Int64

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := c.Generation()
				c.PutPrediction(PredictionKey(0, fmt.Sprintf("k%d", i%keys)), g, val(i%keys, g))
				i += writers
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := r
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := c.Generation()
				k := i % keys
				if v, ok := c.GetPrediction(PredictionKey(0, fmt.Sprintf("k%d", k)), g); ok {
					// A hit at generation g must carry exactly the value
					// some writer stored for (k, g).
					if v != val(k, g) {
						torn.Add(1)
					}
				}
				i += readers
			}
		}(r)
	}
	// Swapper: flip generations under full load; monitor monotonicity.
	wg.Add(1)
	go func() {
		defer wg.Done()
		prevStats := c.Stats().Prediction
		flip := 0
		deadline := time.Now().Add(duration)
		for time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			flip++
			c.SetGeneration(gens[flip%2])
			st := c.Stats().Prediction
			if st.Hits < prevStats.Hits || st.Misses < prevStats.Misses ||
				st.Stores < prevStats.Stores || st.Evictions < prevStats.Evictions {
				t.Errorf("counters went backwards: %+v -> %+v", prevStats, st)
			}
			prevStats = st
		}
		close(stop)
	}()
	wg.Wait()

	if n := torn.Load(); n != 0 {
		t.Fatalf("%d torn reads (hit value disagreed with its key+generation)", n)
	}
	st := c.Stats().Prediction
	if st.Size > 64 {
		t.Fatalf("size %d exceeds capacity 64", st.Size)
	}
	if st.Hits+st.Misses == 0 || st.Stores == 0 {
		t.Fatalf("hammer did no work: %+v", st)
	}
	if math.IsNaN(c.Stats().HitRate()) {
		t.Fatal("hit rate NaN")
	}
}
