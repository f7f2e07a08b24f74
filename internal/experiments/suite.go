// Package experiments regenerates every table and figure of the paper's
// evaluation (§V). Each runner prints the same rows or series the paper
// reports and returns them as structured data for the benchmark harness.
//
// Runners are independent and safe to invoke concurrently: every shared
// artifact (dataset, environment set, labeled pool, fitted Features,
// transfer setup, runner result) is built exactly once behind a
// singleflight cache, and each runner buffers its human-readable block and
// flushes it atomically, so parallel runs do not interleave lines. RunAll
// fans independent runners out over the worker pool.
//
// docs/ARCHITECTURE.md describes the modules the runners drive (§3 covers
// how their grids fan out and which runners stay serial).
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/workload"
)

// Params sizes the experiment grid. Default values mirror the paper's
// workload configuration scaled to the in-repo datasets; Quick shrinks
// everything for unit tests.
type Params struct {
	NumEnvs     int            // environment (knob-config) count; paper: 20
	PerEnv      map[string]int // labeled queries per environment per benchmark
	Scales      []int          // labeled-set scales; paper: 2000…10000
	Iters       map[string]int // training iterations per benchmark
	Fig1Queries int            // probe queries per Figure 1 cell; paper: 1000
	Seed        int64
}

// DefaultParams reproduces the paper's workload configuration: 20
// environments; pools of 17,600 (TPC-H) and 14,000 (Sysbench, job-light)
// labeled queries; scales 2000–10000; iterations 400/100/800.
func DefaultParams() Params {
	return Params{
		NumEnvs:     20,
		PerEnv:      map[string]int{"tpch": 880, "sysbench": 700, "imdb": 700},
		Scales:      []int{2000, 4000, 6000, 8000, 10000},
		Iters:       map[string]int{"tpch": 1200, "sysbench": 300, "imdb": 1500},
		Fig1Queries: 1000,
		Seed:        1,
	}
}

// MedParams is the middle grid (minutes): every experiment, reduced
// pools, 500-query Figure 1 cells.
func MedParams() Params {
	return Params{
		NumEnvs:     10,
		PerEnv:      map[string]int{"tpch": 400, "sysbench": 500, "imdb": 300},
		Scales:      []int{1000, 2000, 4000},
		Iters:       map[string]int{"tpch": 600, "sysbench": 150, "imdb": 600},
		Fig1Queries: 500,
		Seed:        1,
	}
}

// QuickParams shrinks the grid for tests (4 envs, small pools, 2 scales,
// 250-query Figure 1 cells).
func QuickParams() Params {
	return Params{
		NumEnvs:     4,
		PerEnv:      map[string]int{"tpch": 60, "sysbench": 100, "imdb": 50},
		Scales:      []int{120, 200},
		Iters:       map[string]int{"tpch": 60, "sysbench": 60, "imdb": 60},
		Fig1Queries: 250,
		Seed:        1,
	}
}

// fig1Queries returns the configured Figure 1 cell size (paper default
// when unset).
func (p Params) fig1Queries() int {
	if p.Fig1Queries > 0 {
		return p.Fig1Queries
	}
	return 1000
}

// call is one singleflight slot: the first goroutine to claim a key runs
// the computation inside the Once; everyone else blocks on the same Once
// and reads the shared result.
type call struct {
	once sync.Once
	v    any
	err  error
}

// Suite owns the shared state of an experiment run: datasets, environment
// set, labeled pools, fitted Features, and memoized runner results, all
// built lazily, exactly once, and shared across concurrent runners.
type Suite struct {
	P   Params
	Out io.Writer

	mu    sync.Mutex // guards calls
	calls map[string]*call

	outMu sync.Mutex // serializes flushed report blocks on Out
}

// NewSuite builds a suite writing its human-readable rows to out.
func NewSuite(p Params, out io.Writer) *Suite {
	return &Suite{P: p, Out: out, calls: make(map[string]*call)}
}

// memo runs compute exactly once per key — across repeated and concurrent
// callers — and returns the shared result. Experiment runners are memoized
// so that benchmark harnesses (which may invoke them many times as
// testing.B scales b.N) and parallel runners (which share pools and
// snapshots) do the expensive work — and print their report — once per
// suite.
func (s *Suite) memo(key string, compute func() (any, error)) (any, error) {
	s.mu.Lock()
	c, ok := s.calls[key]
	if !ok {
		c = &call{}
		s.calls[key] = c
	}
	s.mu.Unlock()
	c.once.Do(func() { c.v, c.err = compute() })
	return c.v, c.err
}

// report accumulates one experiment's printed block and flushes it to the
// suite's writer in a single critical section, keeping concurrent runners'
// output readable.
type report struct {
	s   *Suite
	buf bytes.Buffer
}

func (s *Suite) newReport() *report { return &report{s: s} }

func (r *report) printf(format string, args ...any) {
	if r.s.Out != nil {
		fmt.Fprintf(&r.buf, format, args...)
	}
}

func (r *report) flush() {
	if r.s.Out == nil || r.buf.Len() == 0 {
		return
	}
	r.s.outMu.Lock()
	defer r.s.outMu.Unlock()
	r.s.Out.Write(r.buf.Bytes())
	r.buf.Reset()
}

// Envs returns the sampled environment set (the paper's 20 random knob
// configurations).
func (s *Suite) Envs() []*dbenv.Environment {
	v, _ := s.memo("envs", func() (any, error) {
		return dbenv.SampleSet(s.P.NumEnvs, s.P.Seed), nil
	})
	return v.([]*dbenv.Environment)
}

// Dataset returns (building if needed) the named benchmark dataset.
func (s *Suite) Dataset(name string) *datagen.Dataset {
	v, err := s.memo("dataset:"+name, func() (any, error) {
		return datagen.Build(name, s.P.Seed)
	})
	if err != nil {
		panic(err)
	}
	return v.(*datagen.Dataset)
}

// Pool returns the labeled query pool for a benchmark, collecting it on
// first use.
func (s *Suite) Pool(name string) (*workload.Labeled, error) {
	v, err := s.memo("pool:"+name, func() (any, error) {
		perEnv := s.P.PerEnv[name]
		if perEnv == 0 {
			perEnv = 100
		}
		return workload.Collect(context.TODO(), s.Dataset(name), s.Envs(), perEnv, s.P.Seed)
	})
	if err != nil {
		return nil, err
	}
	return v.(*workload.Labeled), nil
}

// Snapshots returns the snapshot-only Features for a benchmark over the
// suite's environments, in the given mode and (FST) template scale, fitted
// on first use. Runners reduce and train on it without refitting it.
func (s *Suite) Snapshots(name string, mode core.SnapshotMode, scale int) (core.Features, error) {
	if mode == core.FSO {
		scale = 0 // FSO labels original queries; the template scale is unused
	}
	v, err := s.memo(fmt.Sprintf("snapshots:%s:%s:%d", name, mode, scale), func() (any, error) {
		cfg := s.config("qppnet", name)
		cfg.SnapshotMode, cfg.TemplateScale = mode, scale
		return core.SnapshotFeaturesCtx(context.TODO(), s.Dataset(name), s.Envs(), cfg)
	})
	if err != nil {
		return core.Features{}, err
	}
	return v.(core.Features), nil
}

// qcfeFeatures returns QCFE's default Features (FST snapshots at scale 2,
// FR) reduced over the training split of a benchmark's first n pooled
// samples, fitted once for every model that trains on it: Table IV's
// QCFE(mscn) and QCFE(qpp), and the transfer basis of Table VII and
// Figure 8.
func (s *Suite) qcfeFeatures(name string, n int) (core.Features, error) {
	v, err := s.memo(fmt.Sprintf("features:%s:%d", name, n), func() (any, error) {
		pool, err := s.Pool(name)
		if err != nil {
			return nil, err
		}
		snaps, err := s.Snapshots(name, core.FST, 2)
		if err != nil {
			return nil, err
		}
		train, _ := workload.Split(pool.Scale(n), 0.8)
		return snaps.Reduced(train, s.config("qppnet", name))
	})
	if err != nil {
		return core.Features{}, err
	}
	return v.(core.Features), nil
}

// config is the default pipeline configuration of model at the suite's
// seed and the benchmark's iteration budget.
func (s *Suite) config(model, benchmark string) core.Config {
	cfg := core.DefaultConfig(model)
	cfg.TrainIters = s.trainIters(benchmark)
	cfg.Seed = s.P.Seed
	return cfg
}

// trainIters returns the per-benchmark iteration budget.
func (s *Suite) trainIters(name string) int {
	if it, ok := s.Iters()[name]; ok {
		return it
	}
	return 200
}

// Iters exposes the per-benchmark iteration map (default 200).
func (s *Suite) Iters() map[string]int { return s.P.Iters }
