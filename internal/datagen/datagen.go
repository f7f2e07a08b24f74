// Package datagen builds the three benchmark datasets the paper evaluates
// on — TPC-H, IMDB/job-light, and Sysbench — as deterministic synthetic
// equivalents. Schema shapes, key/foreign-key relationships, value skews,
// and index placement follow the originals; row counts are scaled down
// (documented per generator) so the full experiment grid runs in minutes
// on one machine.
package datagen

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// Dataset bundles everything one benchmark needs: schema, loaded storage,
// and the statistics registry (which doubles as the paper's data abstract).
type Dataset struct {
	Name   string
	Schema *catalog.Schema
	DB     *storage.Database
	Stats  *catalog.Stats
}

// buildCache memoizes datasets process-wide, one sync.Once per
// (name, seed). Generation is deterministic per key and a built Dataset
// is read-only everywhere downstream (the planner, executor, and
// estimators only scan it), so callers that open the same benchmark
// repeatedly — multiple experiment suites, the labeling pipeline's worker
// pool — share one copy instead of regenerating and reloading it.
var buildCache struct {
	mu    sync.Mutex
	calls map[string]*buildCall
}

type buildCall struct {
	once sync.Once
	ds   *Dataset
}

// Build constructs the named dataset ("tpch", "imdb", "sysbench") with the
// given deterministic seed. Results are cached per (name, seed) for the
// lifetime of the process — the right trade for this repo's workloads
// (a handful of (benchmark, seed) pairs reused heavily); callers sweeping
// many seeds should construct datasets directly via TPCH/IMDB/Sysbench
// to keep them collectable. The returned dataset must be treated as
// read-only.
func Build(name string, seed int64) (*Dataset, error) {
	switch name {
	case "tpch", "imdb", "sysbench":
	default:
		return nil, fmt.Errorf("datagen: unknown dataset %q", name)
	}
	key := fmt.Sprintf("%s/%d", name, seed)
	buildCache.mu.Lock()
	if buildCache.calls == nil {
		buildCache.calls = make(map[string]*buildCall)
	}
	c, ok := buildCache.calls[key]
	if !ok {
		c = &buildCall{}
		buildCache.calls[key] = c
	}
	buildCache.mu.Unlock()
	c.once.Do(func() {
		switch name {
		case "tpch":
			c.ds = TPCH(seed)
		case "imdb":
			c.ds = IMDB(seed)
		case "sysbench":
			c.ds = Sysbench(seed)
		}
	})
	return c.ds, nil
}

// Schema returns the named dataset's schema without generating its rows:
// a model loaded from an artifact plans against it and the statistics the
// artifact carries.
func Schema(name string) (*catalog.Schema, error) {
	switch name {
	case "tpch":
		return TPCHSchema(), nil
	case "imdb":
		return IMDBSchema(), nil
	case "sysbench":
		return SysbenchSchema(), nil
	}
	return nil, fmt.Errorf("datagen: unknown dataset %q", name)
}

// BenchmarkNames lists the supported datasets in paper order.
func BenchmarkNames() []string { return []string{"tpch", "sysbench", "imdb"} }

// buildStats scans every loaded column and derives its statistics. Tables
// are visited in sorted name order: the statistics draw samples from one
// shared rng, so the visit order is part of the deterministic-per-seed
// contract (map order would make stats differ from process to process).
func buildStats(db *storage.Database, rng *rand.Rand) *catalog.Stats {
	st := catalog.NewStats()
	names := make([]string, 0, len(db.Heaps))
	for name := range db.Heaps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		heap := db.Heaps[name]
		ts := &catalog.TableStats{
			RowCount: int64(heap.NumRows()),
			Pages:    heap.NumPages(),
			Columns:  make(map[string]*catalog.ColumnStats),
		}
		for ci, col := range heap.Table.Columns {
			vals := make([]catalog.Value, heap.NumRows())
			for r := 0; r < heap.NumRows(); r++ {
				vals[r] = heap.Get(r)[ci]
			}
			ts.Columns[col.Name] = catalog.BuildColumnStats(vals, rng)
		}
		st.Tables[name] = ts
	}
	return st
}

// pick returns a uniformly random element of xs.
func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// randWord builds a short pseudo-word for string columns.
func randWord(rng *rand.Rand, n int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}
