package qcfe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/planner"
	"repro/internal/workload"
)

// loadedFixture is one small TPC-H mscn estimator, fitted once per test
// process, with its saved artifact: the shape qcfe-serve boots from.
var loadedFixture = sync.OnceValues(func() (*loadedCase, error) {
	b, err := OpenBenchmark("tpch", 1)
	if err != nil {
		return nil, err
	}
	envs := RandomEnvironments(2, 1)
	pool, err := b.CollectWorkload(envs, 40, 1)
	if err != nil {
		return nil, err
	}
	train, _ := pool.Split(0.8)
	est, err := NewPipeline("mscn", WithTrainIters(20), WithReferences(20), WithSeed(3)).Fit(b, envs, train)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		return nil, err
	}
	return &loadedCase{est: est, raw: buf.Bytes(), train: train}, nil
})

type loadedCase struct {
	est   *CostEstimator
	raw   []byte
	train []workload.Sample
}

func loadedCaseFor(t *testing.T) *loadedCase {
	t.Helper()
	lc, err := loadedFixture()
	if err != nil {
		t.Fatal(err)
	}
	return lc
}

func loadRaw(t *testing.T, raw []byte) *CostEstimator {
	t.Helper()
	est, err := LoadEstimator(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// heapArtifactEnv names the artifact the child process of
// TestLoadedEstimatorHoldsNoRows loads and measures.
const heapArtifactEnv = "QCFE_TEST_HEAP_ARTIFACT"

// TestLoadedEstimatorHoldsNoRows: a loaded estimator prices from its
// artifact's schema and statistics and generates no rows. A fresh child
// process — datagen's memo holds every dataset a test process builds —
// loads the artifact, prices 330 misses, and bounds the live heap the
// estimator added, after a collection, at 4 MiB: what it serves from
// reads about 0.6 MiB, and the TPC-H rows an estimator regenerated on
// load held about 38 MiB.
func TestLoadedEstimatorHoldsNoRows(t *testing.T) {
	if path := os.Getenv(heapArtifactEnv); path != "" {
		measureLoadedHeap(t, path)
		return
	}
	if raceEnabled() {
		t.Skip("the race detector changes heap figures")
	}
	path := filepath.Join(t.TempDir(), "model.qcfe")
	if err := os.WriteFile(path, loadedCaseFor(t).raw, 0o600); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestLoadedEstimatorHoldsNoRows$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), heapArtifactEnv+"="+path)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, "live heap") {
			t.Log(strings.TrimSpace(line))
		}
	}
}

func measureLoadedHeap(t *testing.T, path string) {
	const maxLiveBytes = 4 << 20
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	sqls := missVariants(0, 300)
	before := liveHeap()
	est := loadRaw(t, raw)
	env := est.Environments()[0]
	for i := 0; i < len(sqls); i += 60 {
		if _, err := est.EstimateSQLBatch(env, sqls[i:i+60]); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range sqls[:30] {
		if _, err := est.EstimateSQL(env, sql); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(est)
	runtime.KeepAlive(sqls)
	live := float64(after) - float64(before)
	t.Logf("live heap of a loaded estimator after %d priced misses: %.2f MiB", len(sqls)+30, live/(1<<20))
	if n := est.bench.rowBuilds.Load(); n != 0 {
		t.Errorf("loading and pricing generated rows %d times, want none", n)
	}
	if live > maxLiveBytes {
		t.Errorf("a loaded estimator holds %.1f MiB of live heap, ceiling %d MiB", live/(1<<20), maxLiveBytes>>20)
	}
}

// TestLoadedEstimatorFirstUse: pricing never generates rows; the first
// Execute does, once, and CollectWorkload and Transfer reuse them. Each
// result equals the same call on the estimator the artifact was saved
// from, whose benchmark OpenBenchmark generated, bit for bit.
func TestLoadedEstimatorFirstUse(t *testing.T) {
	lc := loadedCaseFor(t)
	est := loadRaw(t, lc.raw)
	env := est.Environments()[0]
	builds := est.bench.rowBuilds.Load

	if _, err := est.EstimateSQLBatch(env, missVariants(0, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := est.Benchmark().Plan(env, missVariants(8, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if n := builds(); n != 0 {
		t.Fatalf("pricing and planning generated rows %d times, want none", n)
	}

	sql := missVariants(9, 1)[0]
	got, err := est.Benchmark().Execute(env, sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lc.est.Benchmark().Execute(lc.est.Environments()[0], sql)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ms != want.Ms || got.Rows != want.Rows || got.Plan.Explain() != want.Plan.Explain() {
		t.Fatalf("Execute: loaded %v ms, %d rows; opened %v ms, %d rows", got.Ms, got.Rows, want.Ms, want.Rows)
	}
	if n := builds(); n != 1 {
		t.Fatalf("first Execute generated rows %d times, want 1", n)
	}

	envs := est.Environments()
	gotPool, err := est.Benchmark().CollectWorkload(envs, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	wantPool, err := lc.est.Benchmark().CollectWorkload(lc.est.Environments(), 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	if gotPool.Len() != wantPool.Len() {
		t.Fatalf("CollectWorkload: %d samples loaded, %d opened", gotPool.Len(), wantPool.Len())
	}
	for i, g := range gotPool.lab.Samples {
		w := wantPool.lab.Samples[i]
		if g.SQL != w.SQL || g.Ms != w.Ms || g.EnvID != w.EnvID || g.Plan.Explain() != w.Plan.Explain() {
			t.Fatalf("CollectWorkload sample %d: loaded %q %v ms, opened %q %v ms", i, g.SQL, g.Ms, w.SQL, w.Ms)
		}
	}

	newEnv := RandomEnvironments(3, 47)[2]
	gotT, err := est.Transfer(newEnv, lc.train, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantT, err := lc.est.Transfer(newEnv, lc.train, 5)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*planner.Node, len(gotPool.lab.Samples))
	for i, s := range gotPool.lab.Samples {
		plans[i] = s.Plan
	}
	g, w := gotT.EstimateBatch(plans), wantT.EstimateBatch(plans)
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("Transfer: plan %d prices %v loaded, %v opened", i, g[i], w[i])
		}
	}
	if n := builds(); n != 1 {
		t.Fatalf("Execute, CollectWorkload and Transfer generated rows %d times, want 1", n)
	}
}

// TestLoadedEstimatorFirstUseConcurrent: goroutines that make a loaded
// estimator's first use at once — an -adapt labeller executing while a
// tenant's pool collects — generate its rows once and all see the same
// rows.
func TestLoadedEstimatorFirstUseConcurrent(t *testing.T) {
	const workers = 6
	est := loadRaw(t, loadedCaseFor(t).raw)
	env := est.Environments()[0]
	sql := missVariants(20, 1)[0]

	var wg sync.WaitGroup
	ready := make(chan struct{})
	ms := make([]float64, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-ready
			if i%2 == 1 {
				_, errs[i] = est.Benchmark().CollectWorkload(est.Environments(), 2, int64(i))
				return
			}
			var res *QueryResult
			if res, errs[i] = est.Benchmark().Execute(env, sql); errs[i] == nil {
				ms[i] = res.Ms
			}
		}(i)
	}
	close(ready)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		if i%2 == 0 && ms[i] != ms[0] {
			t.Fatalf("worker %d executed in %v ms, worker 0 in %v ms", i, ms[i], ms[0])
		}
	}
	if n := est.bench.rowBuilds.Load(); n != 1 {
		t.Fatalf("%d concurrent first uses generated rows %d times, want 1", workers, n)
	}
}

// TestLoadedEstimatorStaleStatistics: an artifact whose statistics this
// build's rows do not reproduce — here lineitem's row count, forged under
// a resealed checksum — loads and prices, since pricing reads only what
// the artifact carries, but its first use of rows fails with
// ErrStaleArtifact.
func TestLoadedEstimatorStaleStatistics(t *testing.T) {
	raw := append([]byte(nil), loadedCaseFor(t).raw...)
	// The statistics section writes each table as its length-prefixed
	// name followed by its row count; it is the first section to name a
	// table.
	name := binary.LittleEndian.AppendUint32(nil, uint32(len("lineitem")))
	name = append(name, "lineitem"...)
	at := bytes.Index(raw, name)
	if at < 0 {
		t.Fatal("no lineitem statistics in the artifact")
	}
	rows := raw[at+len(name):]
	binary.LittleEndian.PutUint64(rows, binary.LittleEndian.Uint64(rows)+1)
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))

	est := loadRaw(t, raw)
	env := est.Environments()[0]
	if _, err := est.EstimateSQL(env, missVariants(0, 1)[0]); err != nil {
		t.Fatalf("pricing from forged statistics: %v", err)
	}
	if _, err := est.Benchmark().Execute(env, missVariants(1, 1)[0]); !errors.Is(err, ErrStaleArtifact) {
		t.Fatalf("Execute: err = %v, want ErrStaleArtifact", err)
	}
	if _, err := est.Benchmark().CollectWorkload(est.Environments(), 2, 1); !errors.Is(err, ErrStaleArtifact) {
		t.Fatalf("CollectWorkload: err = %v, want ErrStaleArtifact", err)
	}
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, ErrStaleArtifact) {
			t.Fatalf("Dataset: recovered %v, want an ErrStaleArtifact panic", err)
		}
	}()
	est.Benchmark().Dataset()
}
