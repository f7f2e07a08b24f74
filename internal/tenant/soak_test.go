package tenant

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	qcfe "repro"
)

// TestTenantSoakHostile is the isolation soak: one tenant floods the
// registry with cold traffic from many goroutines while a well-behaved
// tenant issues requests within its fair share. For the whole run the
// well-behaved tenant must see rung-1/rung-2 service only — zero
// degraded answers, zero sheds, every answer bitwise identical to the
// library on the same artifact — and its latency distribution is
// reported. QCFE_SOAK_SECONDS extends the default 2-second run (CI
// race job sets 60).
func TestTenantSoakHostile(t *testing.T) {
	duration := 2 * time.Second
	if s := os.Getenv("QCFE_SOAK_SECONDS"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("QCFE_SOAK_SECONDS=%q: %v", s, err)
		}
		duration = time.Duration(secs) * time.Second
	}

	opts := Options{
		Cache:       &qcfe.CacheOptions{Shards: 4, Capacity: 256},
		MaxInflight: 4, // shares: 2 good + 2 evil
		QueueDepth:  8,
	}
	r := newRegistry(t, opts, "good", "evil")
	good, _ := r.Tenant("good")

	ref := loadEst(t)
	env := ref.Environments()[0]
	const goodSet = 32
	want := make([]float64, goodSet)
	goodSQL := func(i int) string {
		return fmt.Sprintf("SELECT COUNT(*) FROM sbtest1 WHERE id BETWEEN %d AND %d", 10+i, 400+i)
	}
	for i := range want {
		v, err := ref.EstimateSQL(env, goodSQL(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	ctx, cancel := context.WithCancel(context.Background())
	deadline := time.AfterFunc(duration, cancel)
	defer deadline.Stop()
	defer cancel()

	// The hostile tenant: 8 goroutines of never-repeating batches plus
	// 4 of never-repeating singles, as fast as they can go. Errors are
	// its own problem (that's the point).
	var evilSent atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				sqls := make([]string, 4)
				for k := range sqls {
					sqls[k] = fmt.Sprintf("SELECT * FROM sbtest1 WHERE id = %d", g*1_000_000+i*4+k)
				}
				r.EstimateBatch(ctx, "evil", env.ID, sqls)
				evilSent.Add(int64(len(sqls)))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				r.Estimate(ctx, "evil", env.ID,
					fmt.Sprintf("SELECT * FROM sbtest1 WHERE k < %d", g*1_000_000+i))
				evilSent.Add(1)
			}
		}(g)
	}

	// The well-behaved tenant: concurrency 2 == its guaranteed floor.
	type obs struct {
		lat []time.Duration
		err error
	}
	results := make([]obs, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o := &results[g]
			for i := g; ctx.Err() == nil; i += 2 {
				q := i % goodSet
				start := time.Now()
				ms, degraded, err := r.Estimate(ctx, "good", env.ID, goodSQL(q))
				if err != nil {
					if ctx.Err() != nil {
						return // shutdown race, not a verdict
					}
					o.err = fmt.Errorf("good request %d: %w", i, err)
					cancel()
					return
				}
				o.lat = append(o.lat, time.Since(start))
				if degraded {
					o.err = fmt.Errorf("good request %d was degraded", i)
					cancel()
					return
				}
				if ms != want[q] {
					o.err = fmt.Errorf("good request %d: %v != library %v", i, ms, want[q])
					cancel()
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var lats []time.Duration
	for _, o := range results {
		if o.err != nil {
			t.Fatal(o.err)
		}
		lats = append(lats, o.lat...)
	}
	if len(lats) == 0 {
		t.Fatal("well-behaved tenant completed no requests")
	}
	if shed := good.shed.Load(); shed != 0 {
		t.Fatalf("well-behaved tenant shed %d requests inside its fair share", shed)
	}
	if deg := good.degraded.Load(); deg != 0 {
		t.Fatalf("well-behaved tenant degraded %d times inside its fair share", deg)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50 := lats[len(lats)*50/100]
	p99 := lats[len(lats)*99/100]
	t.Logf("soak %v: good served %d (p50 %v, p99 %v; warm %d, admitted %d), evil sent %d (degraded %d, shed %d)",
		duration, len(lats), p50, p99, good.warm.Load(), good.admitted.Load(),
		evilSent.Load(), func() int64 { e, _ := r.Tenant("evil"); return e.degraded.Load() }(),
		func() int64 { e, _ := r.Tenant("evil"); return e.shed.Load() }())
	// The p99 bound is deliberately loose (CI machines vary wildly);
	// the hard isolation asserts are the zero shed/degrade counts and
	// the bitwise answers above.
	if p99 > 30*time.Second {
		t.Fatalf("well-behaved p99 %v exceeds even the loose bound", p99)
	}
}
