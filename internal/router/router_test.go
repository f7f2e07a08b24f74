package router

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	qcfe "repro"
	"repro/internal/serve"
	"repro/internal/sqlparse"
)

const testToken = "router-test-token"

// fixture shares one small trained estimator (the same pipeline every
// package in this repo trains for tests: sysbench seed 1, 2 envs, 80
// queries/env, mscn with 40 iters / 20 references / seed 3) plus its
// serialized artifact across the router tests — training dominates
// test runtime; fleets of Load-ed copies are cheap.
var fixture struct {
	once     sync.Once
	est      *qcfe.CostEstimator
	artifact []byte
	err      error
}

func testEstimator(t *testing.T) (*qcfe.CostEstimator, []byte) {
	t.Helper()
	fixture.once.Do(func() {
		b, err := qcfe.OpenBenchmark("sysbench", 1)
		if err != nil {
			fixture.err = err
			return
		}
		envs := qcfe.RandomEnvironments(2, 1)
		pool, err := b.CollectWorkload(envs, 80, 1)
		if err != nil {
			fixture.err = err
			return
		}
		train, _ := pool.Split(0.8)
		fixture.est, fixture.err = qcfe.NewPipeline("mscn",
			qcfe.WithTrainIters(40), qcfe.WithReferences(20), qcfe.WithSeed(3),
		).Fit(b, envs, train)
		if fixture.err != nil {
			return
		}
		var buf bytes.Buffer
		if fixture.err = fixture.est.Save(&buf); fixture.err == nil {
			fixture.artifact = buf.Bytes()
		}
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.est, fixture.artifact
}

// adaptedArtifact returns an estimator with genuinely different weights
// (Save→Load copy of the fixture retrained on fresh labels) and its
// serialized artifact — the "new generation" for rollout tests.
func adaptedArtifact(t *testing.T) (*qcfe.CostEstimator, []byte) {
	t.Helper()
	est, _ := testEstimator(t)
	pool, err := est.Benchmark().CollectWorkload(est.Environments(), 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := pool.Split(0.8)
	next, err := est.Adapt(train, 25)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := next.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return next, buf.Bytes()
}

// fleet is a set of in-process replicas, each an httptest server over
// its own Load-ed copy of the fixture artifact.
type fleet struct {
	urls    []string
	servers []*serve.Server
	https   []*httptest.Server
}

// startFleet stands up n replicas. wrap, when non-nil, is applied to
// each replica's handler (chaos middleware hooks in here); it receives
// the replica index and the real handler.
func startFleet(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler) *fleet {
	t.Helper()
	_, artifact := testEstimator(t)
	f := &fleet{}
	for i := 0; i < n; i++ {
		est, err := qcfe.LoadEstimator(bytes.NewReader(artifact))
		if err != nil {
			t.Fatal(err)
		}
		est.AttachCache(qcfe.NewQueryCache(qcfe.CacheOptions{Shards: 4, Capacity: 512}))
		srv := serve.New(est, serve.Options{
			AdminToken: testToken,
			Advertise:  fmt.Sprintf("replica-%d", i),
		})
		h := http.Handler(srv.Handler())
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		f.servers = append(f.servers, srv)
		f.https = append(f.https, ts)
		f.urls = append(f.urls, ts.URL)
	}
	t.Cleanup(func() {
		for _, ts := range f.https {
			ts.Close()
		}
	})
	return f
}

// newTestRouter fronts a fleet with fast-failure settings suited to
// tests (short timeouts and cooldowns; admin enabled).
func newTestRouter(t *testing.T, f *fleet, opts Options) *Router {
	t.Helper()
	if opts.Timeout == 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.AdminToken == "" {
		opts.AdminToken = testToken
	}
	rt, err := New(f.urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func testSQL(i int) string {
	switch i % 3 {
	case 0:
		return fmt.Sprintf("SELECT COUNT(*) FROM sbtest1 WHERE id BETWEEN %d AND %d", 50+i, 250+i)
	case 1:
		return fmt.Sprintf("SELECT * FROM sbtest1 WHERE id = %d", 1+i)
	default:
		return fmt.Sprintf("SELECT * FROM sbtest1 WHERE k < %d", 100+i)
	}
}

// wantBatch prices the batch on the library's batched path — the
// reference every routed answer must match bit for bit.
func wantBatch(t *testing.T, env int, sqls []string) []float64 {
	t.Helper()
	est, _ := testEstimator(t)
	want, err := est.EstimateSQLBatchCtx(context.Background(), est.Environments()[env], sqls)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func assertBitsEqual(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: result %d = %v (bits %x), want %v (bits %x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// keyHash generates distinct routing keys for ring tests: distinct
// table names mean distinct templates (testSQL's literal variants all
// collapse onto three templates by design — good for cache-locality
// tests, useless for distribution tests).
func keyHash(i int) uint64 {
	return sqlparse.RoutingHash(fmt.Sprintf("SELECT col FROM table_%d WHERE x < 5", i))
}

// TestRingPlacementIsOrderIndependent: the ring hashes replica IDs, so
// the same fleet listed in any order routes every key identically.
func TestRingPlacementIsOrderIndependent(t *testing.T) {
	ids := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	perm := []string{"http://c:3", "http://a:1", "http://d:4", "http://b:2"}
	r1, err := newRing(ids, 64)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := newRing(perm, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		h := keyHash(i)
		if got, want := perm[r2.pick(h)], ids[r1.pick(h)]; got != want {
			t.Fatalf("key %d: permuted fleet routes to %s, original to %s", i, got, want)
		}
	}
}

// TestRingResizeStability: removing one replica from an N-replica ring
// may only remap keys that replica owned; every other key keeps its
// home (and its replica-local cache locality).
func TestRingResizeStability(t *testing.T) {
	ids := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	full, err := newRing(ids, 64)
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := newRing(ids[:3], 64) // drop http://d:4
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	const keys = 2000
	for i := 0; i < keys; i++ {
		h := keyHash(i)
		before := ids[full.pick(h)]
		after := ids[shrunk.pick(h)]
		if before != "http://d:4" && before != after {
			t.Fatalf("key %d moved %s → %s though its replica survived the resize", i, before, after)
		}
		if before != after {
			moved++
		}
	}
	if moved == 0 || moved > keys/2 {
		t.Fatalf("%d/%d keys remapped by removing 1 of 4 replicas; expected roughly 1/4", moved, keys)
	}
}

// TestRingSequenceIsDeterministicAndComplete: a key's failover sequence
// visits every replica exactly once, starts at its primary, and is a
// pure function of the key.
func TestRingSequenceIsDeterministicAndComplete(t *testing.T) {
	ids := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4", "http://e:5"}
	r, err := newRing(ids, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		h := keyHash(i)
		seq := r.sequence(h)
		if len(seq) != len(ids) {
			t.Fatalf("sequence length %d, want %d", len(seq), len(ids))
		}
		if seq[0] != r.pick(h) {
			t.Fatalf("sequence starts at %d, primary is %d", seq[0], r.pick(h))
		}
		seen := make(map[int]bool)
		for _, ri := range seq {
			if seen[ri] {
				t.Fatalf("replica %d appears twice in sequence %v", ri, seq)
			}
			seen[ri] = true
		}
		again := r.sequence(h)
		for k := range seq {
			if seq[k] != again[k] {
				t.Fatalf("sequence not deterministic: %v vs %v", seq, again)
			}
		}
	}
}

// TestRingRejectsDuplicates: two replicas with one identity would make
// the failover walk ambiguous.
func TestRingRejectsDuplicates(t *testing.T) {
	if _, err := newRing([]string{"http://a:1", "http://a:1"}, 8); err == nil {
		t.Fatal("duplicate replica IDs accepted")
	}
	if _, err := newRing(nil, 8); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

// TestBreakerLifecycle walks the three states: threshold consecutive
// failures trip it, the cooldown diverts traffic, the half-open window
// admits exactly one probe, and the probe's outcome decides.
func TestBreakerLifecycle(t *testing.T) {
	b := newBreaker(3, 50*time.Millisecond)
	now := time.Now()

	for i := 0; i < 2; i++ {
		if !b.allow(now) {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.failure(now)
	}
	if state, _ := b.snapshot(); state != "closed" {
		t.Fatalf("state %s after 2/3 failures, want closed", state)
	}
	b.allow(now)
	b.failure(now) // third consecutive failure: trip
	if state, trips := b.snapshot(); state != "open" || trips != 1 {
		t.Fatalf("state %s trips %d after threshold, want open/1", state, trips)
	}
	if b.allow(now.Add(10 * time.Millisecond)) {
		t.Fatal("open breaker admitted traffic inside the cooldown")
	}

	// Cooldown over: exactly one half-open probe.
	after := now.Add(60 * time.Millisecond)
	if !b.allow(after) {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.allow(after) {
		t.Fatal("breaker admitted a second concurrent half-open probe")
	}
	b.failure(after) // probe fails: reopen
	if state, trips := b.snapshot(); state != "open" || trips != 2 {
		t.Fatalf("state %s trips %d after failed probe, want open/2", state, trips)
	}

	later := after.Add(60 * time.Millisecond)
	if !b.allow(later) {
		t.Fatal("breaker refused the second half-open probe")
	}
	b.success() // probe succeeds: close and reset
	if state, _ := b.snapshot(); state != "closed" {
		t.Fatalf("state %s after successful probe, want closed", state)
	}
	if !b.allow(later) {
		t.Fatal("closed breaker refused traffic after recovery")
	}
	b.failure(later)
	b.failure(later)
	if state, _ := b.snapshot(); state != "closed" {
		t.Fatal("failure count survived the successful probe; want a clean slate")
	}
}

// TestRoutingKeyGroupsTemplates: literal variants of one template share
// a routing hash (and so a replica), distinct templates may differ.
func TestRoutingKeyGroupsTemplates(t *testing.T) {
	a := sqlparse.RoutingHash("SELECT * FROM sbtest1 WHERE id = 7")
	b := sqlparse.RoutingHash("SELECT * FROM sbtest1 WHERE id = 900001")
	if a != b {
		t.Fatalf("literal variants map to different routing hashes: %#x, %#x", a, b)
	}
	c := sqlparse.RoutingHash("SELECT COUNT(*) FROM sbtest1 WHERE k < 10")
	if a == c {
		t.Fatal("distinct templates share a routing hash")
	}
}
