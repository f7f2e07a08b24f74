package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"
	"time"

	qcfe "repro"
)

// gateEstimator is a cacheless fake that prices a query as a pure
// function of its text and records every batch call. Its first batch
// call announces itself on parked and then waits for release, so a test
// can build a backlog behind a flush that is provably still pricing.
type gateEstimator struct {
	fakeBase
	parked  chan struct{}
	release chan struct{}
	once    sync.Once

	mu      sync.Mutex
	batches [][]string
}

func newGateEstimator() *gateEstimator {
	return &gateEstimator{
		fakeBase: fakeBase{env: &qcfe.Environment{ID: 0}},
		parked:   make(chan struct{}),
		release:  make(chan struct{}),
	}
}

// open releases the parked batch call; safe to call more than once.
func (f *gateEstimator) open() { f.once.Do(func() { close(f.release) }) }

func gatePrice(sql string) float64 {
	h := fnv.New32a()
	h.Write([]byte(sql))
	return float64(h.Sum32()) / 7
}

func (f *gateEstimator) EstimateSQL(_ *qcfe.Environment, sql string) (float64, error) {
	return gatePrice(sql), nil
}
func (f *gateEstimator) EstimateSQLBatchCtx(_ context.Context, _ *qcfe.Environment, sqls []string) ([]float64, error) {
	f.mu.Lock()
	f.batches = append(f.batches, append([]string(nil), sqls...))
	first := len(f.batches) == 1
	f.mu.Unlock()
	if first {
		close(f.parked)
		<-f.release
	}
	ms := make([]float64, len(sqls))
	for i, sql := range sqls {
		ms[i] = gatePrice(sql)
	}
	return ms, nil
}

// coalesceModes runs a policy test against both batcher loops. held is
// how many gathered batches the mode keeps outside the queue while the
// estimator's batch call is parked: the serial loop holds the one it is
// flushing; the pipeline holds one per stage worker, PipelineDepth per
// exchange channel, and one in the gather loop blocked on its handoff.
var coalesceModes = []struct {
	name string
	opts Options
	held int
}{
	{"serial", Options{MaxBatch: 4}, 1},
	{"pipelined", Options{MaxBatch: 4, PipelineDepth: 2, FeaturizeWorkers: 1, PredictWorkers: 1}, 1 + 2 + 1 + 2 + 1},
}

// TestIdleMissFlushesAtOnce is the idle half of the work-conserving
// policy: gather takes what is queued and never waits for more, so a
// lone request on an idle server is priced in a batch of one.
func TestIdleMissFlushesAtOnce(t *testing.T) {
	t.Run("gather", func(t *testing.T) {
		srv := New(newGateEstimator(), Options{})
		first := &request{}
		batch := srv.gather(first)
		if len(batch) != 1 || batch[0] != first {
			t.Fatalf("gather on an empty queue = %d requests, want just the first", len(batch))
		}
	})
	for _, mode := range coalesceModes {
		t.Run(mode.name, func(t *testing.T) {
			fake := newGateEstimator()
			fake.open() // nothing parks
			srv := New(fake, mode.opts)
			runServer(t, srv)
			got, err := srv.Estimate(context.Background(), 0, "SELECT 1")
			if err != nil {
				t.Fatal(err)
			}
			if want := gatePrice("SELECT 1"); got != want {
				t.Fatalf("served %v != per-query %v", got, want)
			}
			if st := srv.Stats(); st.Flushes != 1 || st.Coalesced != 0 {
				t.Fatalf("stats = %+v, want 1 flush, 0 coalesced", st)
			}
		})
	}
}

// TestBacklogFormsBatches is the backlog half: requests that queue up
// while a flush is pricing drain in ceil(K/MaxBatch) full-as-possible
// micro-batches, in arrival order, with per-query-exact replies.
// Requests are enqueued straight onto the queue from the test goroutine
// so arrival order is the program order below.
func TestBacklogFormsBatches(t *testing.T) {
	for _, mode := range coalesceModes {
		t.Run(mode.name, func(t *testing.T) {
			fake := newGateEstimator()
			srv := New(fake, mode.opts)
			maxBatch := mode.opts.MaxBatch

			var reqs []*request
			enqueue := func(n int) {
				for i := 0; i < n; i++ {
					r := &request{
						env:   fake.env,
						sql:   fmt.Sprintf("SELECT %d", len(reqs)),
						reply: make(chan result, 1),
						enq:   time.Now(),
					}
					reqs = append(reqs, r)
					srv.queue <- r
				}
			}
			// Queue one full batch per slot before the batcher starts. A
			// full gather returns without looking at the queue again, so
			// once the first flush is parked and the queue is empty, every
			// slot is taken and the batcher cannot touch the queue until
			// the release.
			enqueue(mode.held * maxBatch)
			runServer(t, srv)
			t.Cleanup(fake.open) // a failed assertion must not strand the batcher
			<-fake.parked
			for len(srv.queue) > 0 {
				time.Sleep(time.Millisecond)
			}

			const k = 2*4 + 3 // two full batches and a partial one at MaxBatch 4
			enqueue(k)
			if n := len(srv.queue); n != k {
				t.Fatalf("queue depth = %d with the batcher parked, want %d", n, k)
			}
			fake.open()

			for i, r := range reqs {
				select {
				case res := <-r.reply:
					if res.err != nil {
						t.Fatalf("request %d: %v", i, res.err)
					}
					if want := gatePrice(r.sql); res.ms != want {
						t.Fatalf("request %d: served %v != per-query %v", i, res.ms, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("request %d never answered", i)
				}
			}

			// Every flush, parked or backlogged, is the next MaxBatch
			// arrivals: mode.held full ones, then ceil(k/MaxBatch) more.
			var want [][]string
			for lo := 0; lo < len(reqs); lo += maxBatch {
				hi := lo + maxBatch
				if hi > len(reqs) {
					hi = len(reqs)
				}
				var b []string
				for _, r := range reqs[lo:hi] {
					b = append(b, r.sql)
				}
				want = append(want, b)
			}
			fake.mu.Lock()
			got := fake.batches
			fake.mu.Unlock()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batches = %v\nwant      %v", got, want)
			}
			st := srv.Stats()
			if wantFlushes := int64(mode.held + (k+maxBatch-1)/maxBatch); st.Flushes != wantFlushes {
				t.Fatalf("flushes = %d, want %d", st.Flushes, wantFlushes)
			}
			if st.Coalesced != int64(len(reqs)) {
				t.Fatalf("coalesced = %d, want all %d requests", st.Coalesced, len(reqs))
			}
		})
	}
}
