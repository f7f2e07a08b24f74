package qcache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPredictionHitZeroAlloc pins the warm-path contract at its lowest
// layer: from the moment a put returns, a prediction-tier hit — key
// construction, the lock-free bucket-chain walk, the three atomics —
// performs zero heap allocations. (The layers above hold the same
// property on their own paths: root TestEstimateSQLWarmZeroAlloc, serve
// TestEstimateWarmZeroAlloc, tenant TestWarmEstimateZeroAlloc.)
func TestPredictionHitZeroAlloc(t *testing.T) {
	c := New(Options{Shards: 8, Capacity: 256})
	g := c.Generation()
	k := PredictionKey(3, "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 42")
	c.PutPrediction(k, g, 1.5)
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
// chain walk allocates nothing, whatever the tier.
func TestTemplateFeatureHitZeroAlloc(t *testing.T) {
	c := New(Options{Shards: 8, Capacity: 256})
	g := c.Generation()
	fk := FeatureKey(1, "select * from t where a = ?", "n2:42")
	c.PutFeatures(fk, g, nil)
	tk := TemplateKey(1, "select * from t where a = ?")
	c.PutTemplate(tk, g, nil)
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
// serving layer depends on (serve's warm-probe test holds the server
// busy, so a post-store miss would hang a request): a get
// issued any time after put returns must hit. The put pushes its slot at
// the bucket head before it unlocks, so the reader's head load sees it;
// no lock-free index trails the writers.
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

// TestRCUHammer races lock-free chain walkers against concurrent stores,
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
}

// collidingKeys returns n prediction keys that land in one bucket of one
// shard of tr, so they share a chain.
func collidingKeys(tr *tier, n int) []Key {
	var out []Key
	var want *atomic.Pointer[slot]
	for i := 0; len(out) < n; i++ {
		k := PredictionKey(0, fmt.Sprintf("chain%d", i))
		if _, head := tr.locate(k.hash()); want == nil || head == want {
			want = head
			out = append(out, k)
		}
	}
	return out
}

// TestChainEvictionKeepsWalkersOnTrack pins the slot-lifetime rules on
// one chain, white-box: a reader parked on a middle slot (a held *slot)
// still reaches the live tail after that slot is evicted and unlinked;
// the dead slot reads as a miss; a re-inserted key gets a fresh slot,
// found from the head ahead of anything the parked reader can reach;
// and Size never exceeds the ring.
func TestChainEvictionKeepsWalkersOnTrack(t *testing.T) {
	tr := newTier(1, 3) // one shard, a three-slot ring, four buckets
	const g = 7
	ks := collidingKeys(tr, 4)
	a, b, c, d := ks[0], ks[1], ks[2], ks[3]
	_, head := tr.locate(a.hash())
	checkSize := func(step string) {
		t.Helper()
		if size := tr.stats().Size; size > len(tr.shards[0].ring) {
			t.Fatalf("%s: size %d exceeds the %d-slot ring", step, size, len(tr.shards[0].ring))
		}
	}
	for i, k := range []Key{a, b, c} {
		tr.put(k, g, i)
		checkSize("fill")
	}

	// Chain: c → b → a. Park a reader on b, the middle slot.
	parked, _ := find(head.Load(), b.hash(), b)
	if parked == nil {
		t.Fatal("b not chained after put")
	}
	// Referencing a makes the CLOCK sweep pass over it and take b.
	if _, ok := tr.get(a, g); !ok {
		t.Fatal("a missed")
	}
	tr.put(d, g, 3)
	checkSize("evict b")
	if ev := tr.evictions.Load(); ev != 1 || parked.box.Load() != nil {
		t.Fatalf("want b evicted: %d evictions, parked box %v", ev, parked.box.Load())
	}
	if sl, _ := find(parked, b.hash(), b); sl != nil {
		t.Fatal("the dead slot read as live from where the reader stands")
	}
	if _, ok := tr.get(b, g); ok {
		t.Fatal("evicted key hit from the head")
	}
	if sl, bx := find(parked, a.hash(), a); sl == nil || bx.val != 0 {
		t.Fatal("a reader parked on the evicted slot lost the live tail")
	}
	for sl := head.Load(); sl != nil; sl = sl.next.Load() {
		if sl == parked {
			t.Fatal("evicted slot still linked from the head")
		}
	}

	// Re-insert b: the sweep now takes c (unreferenced), and b comes
	// back in a fresh slot at the head.
	tr.put(b, g, 4)
	checkSize("re-insert b")
	fresh, bx := find(head.Load(), b.hash(), b)
	if fresh == nil || fresh == parked || bx.val != 4 {
		t.Fatalf("re-inserted b: slot %p (parked %p), box %v", fresh, parked, bx)
	}
	if head.Load() != fresh {
		t.Fatal("re-inserted slot is not at the head")
	}
	if v, ok := tr.get(b, g); !ok || v != 4 {
		t.Fatalf("re-inserted b: got (%v, %v), want (4, true)", v, ok)
	}
	if sl, _ := find(parked, b.hash(), b); sl != nil {
		t.Fatal("the parked reader found a b it could not have reached")
	}
	if size := tr.stats().Size; size != 3 {
		t.Fatalf("size %d, want a full ring of 3", size)
	}
}

// TestChainHammer is TestRCUHammer with every key on one chain: a
// one-shard tier whose keys all share a bucket, so each store unlinks a
// victim some walker may be standing on. Hits must carry their key's
// value, and every lookup is counted exactly once. Runs in CI under
// -race.
func TestChainHammer(t *testing.T) {
	tr := newTier(1, 8)
	keys := collidingKeys(tr, 24)
	const g = 1
	val := func(i int) float64 { return float64(i) + 0.5 }
	var (
		wg      sync.WaitGroup
		torn    atomic.Int64
		lookups atomic.Int64
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 20000; i += 4 {
				k := i % len(keys)
				if i%3 == 0 {
					tr.put(keys[k], g, val(k))
					continue
				}
				lookups.Add(1)
				if v, ok := tr.get(keys[k], g); ok && v != val(k) {
					torn.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d hits carried another key's value", n)
	}
	st := tr.stats()
	if st.Hits+st.Misses != lookups.Load() || st.Size != 8 {
		t.Fatalf("stats %+v after %d lookups, want them all counted and a full ring of 8", st, lookups.Load())
	}
}
