// Package dbenv models the paper's "ignored variables": database knobs,
// hardware, storage structure, and operating-system effects. An Environment
// converts the physical resource counts measured by the executor
// (sequential/random page reads, tuples, index tuples, operator startups)
// into simulated execution time.
//
// This package is the substitution for the paper's twenty random
// PostgreSQL 14.4 configurations on physical servers. It implements the
// paper's own causal premise (§III-A): the query plan and data determine
// the resource counts N = {ns, nr, nt, ni, no} while the ignored variables
// determine the per-unit coefficients C = {cs, cr, ct, ci, co} — plus the
// second-order effects (buffer-cache hits, work_mem spills, storage-format
// read amplification) that make C only *approximately* recoverable, so the
// feature-snapshot regression faces a realistic fitting problem.
package dbenv

import (
	"fmt"
	"math"
	"math/rand"
)

// Knobs mirrors the PostgreSQL settings the paper randomizes across its
// twenty configurations. Only settings with a cost effect are modeled.
type Knobs struct {
	SharedBuffersMB int  // buffer cache size; drives page-cache hit rates
	WorkMemKB       int  // per-sort/hash memory; overflow spills to disk
	EnableIndexScan bool // planner permission to use index scans
	EnableHashJoin  bool
	EnableMergeJoin bool
	EnableNestLoop  bool
	ParallelWorkers int  // max parallel workers per gather (0 = off)
	JIT             bool // expression compilation: cheaper per-tuple CPU
}

// DefaultKnobs returns a PostgreSQL-ish default configuration.
func DefaultKnobs() Knobs {
	return Knobs{
		SharedBuffersMB: 128,
		WorkMemKB:       4096,
		EnableIndexScan: true,
		EnableHashJoin:  true,
		EnableMergeJoin: true,
		EnableNestLoop:  true,
		ParallelWorkers: 0,
		JIT:             false,
	}
}

// Hardware is a machine profile. The two profiles from the paper's §V-A
// (data-collection server and training server) appear in Profiles, plus two
// more to widen the environment spread for Figure 1.
type Hardware struct {
	Name        string
	SeqReadMBps float64 // sustained sequential read bandwidth
	RandIOPS    float64 // 8KB random read operations per second
	CPUFactor   float64 // relative single-core speed (1.0 = baseline)
	MemoryGB    int
}

// Profiles holds the hardware fleet environments are sampled from.
var Profiles = []Hardware{
	{Name: "r7-7735hs-ssd", SeqReadMBps: 3500, RandIOPS: 400000, CPUFactor: 1.00, MemoryGB: 16},
	{Name: "i7-12700h-nvme", SeqReadMBps: 5000, RandIOPS: 650000, CPUFactor: 1.15, MemoryGB: 42},
	{Name: "xeon-sata-ssd", SeqReadMBps: 520, RandIOPS: 90000, CPUFactor: 0.80, MemoryGB: 64},
	{Name: "vm-hdd", SeqReadMBps: 160, RandIOPS: 180, CPUFactor: 0.60, MemoryGB: 8},
}

// ProfileByName returns the named profile.
func ProfileByName(name string) (Hardware, bool) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Hardware{}, false
}

// StorageFormat selects the physical layout, the paper's example of an
// ignored variable ("B+ tree or LSM tree").
type StorageFormat int

const (
	// HeapBTree is the PostgreSQL-style heap + B+tree layout.
	HeapBTree StorageFormat = iota
	// LSM approximates an LSM-tree engine: random point reads pay a
	// read-amplification factor across levels, sequential scans pay a
	// small merge overhead.
	LSM
)

// String implements fmt.Stringer.
func (f StorageFormat) String() string {
	if f == LSM {
		return "lsm"
	}
	return "heap+btree"
}

// Environment is one complete database environment: knobs × hardware ×
// storage format. Its ID seeds the per-query noise stream so experiment
// runs are reproducible.
type Environment struct {
	ID     int
	Knobs  Knobs
	HW     Hardware
	Format StorageFormat

	// NoiseStd is the lognormal σ applied to each query's simulated
	// latency, modeling OS scheduling jitter. Zero disables noise.
	NoiseStd float64
}

// Default returns the baseline environment (default knobs on the paper's
// data-collection server).
func Default() *Environment {
	return &Environment{ID: 0, Knobs: DefaultKnobs(), HW: Profiles[0], Format: HeapBTree, NoiseStd: 0.02}
}

// Random samples an environment the way the paper samples its twenty knob
// configurations, additionally varying hardware and storage format.
func Random(id int, rng *rand.Rand) *Environment {
	k := Knobs{
		SharedBuffersMB: []int{32, 64, 128, 256, 512, 1024}[rng.Intn(6)],
		WorkMemKB:       []int{256, 1024, 4096, 16384, 65536}[rng.Intn(5)],
		EnableIndexScan: rng.Float64() < 0.8,
		EnableHashJoin:  rng.Float64() < 0.8,
		EnableMergeJoin: rng.Float64() < 0.8,
		EnableNestLoop:  rng.Float64() < 0.9,
		ParallelWorkers: rng.Intn(5),
		JIT:             rng.Float64() < 0.5,
	}
	// Guarantee at least one join method stays enabled.
	if !k.EnableHashJoin && !k.EnableMergeJoin && !k.EnableNestLoop {
		k.EnableNestLoop = true
	}
	f := HeapBTree
	if rng.Float64() < 0.25 {
		f = LSM
	}
	return &Environment{
		ID:       id,
		Knobs:    k,
		HW:       Profiles[rng.Intn(len(Profiles))],
		Format:   f,
		NoiseStd: 0.02,
	}
}

// DuplicateIDError reports two environments of one set that share an ID.
// Labelling keys its per-worker planners and executors, the noise stream
// and every sample's EnvID by environment ID, and snapshots are keyed by
// it too, so the second environment would silently be labelled as the
// first.
type DuplicateIDError struct {
	ID            int
	First, Second int // positions of the two environments in the set
}

func (e *DuplicateIDError) Error() string {
	return fmt.Sprintf("dbenv: environments %d and %d share ID %d", e.First, e.Second, e.ID)
}

// CheckDistinctIDs returns a *DuplicateIDError for the first environment
// in envs whose ID an earlier one has, or nil when every ID is distinct.
func CheckDistinctIDs(envs []*Environment) error {
	seen := make(map[int]int, len(envs))
	for i, e := range envs {
		if first, ok := seen[e.ID]; ok {
			return &DuplicateIDError{ID: e.ID, First: first, Second: i}
		}
		seen[e.ID] = i
	}
	return nil
}

// SampleSet draws n distinct-seeming environments from one seed — the
// paper's "20 random database configurations".
func SampleSet(n int, seed int64) []*Environment {
	rng := rand.New(rand.NewSource(seed))
	envs := make([]*Environment, n)
	for i := range envs {
		envs[i] = Random(i, rng)
	}
	return envs
}

// Coefficients are the per-unit costs C = {cs, cr, ct, ci, co} of the
// paper's PostgreSQL cost formula, in milliseconds per unit. They are the
// quantities the feature snapshot tries to recover by regression.
type Coefficients struct {
	SeqPage  float64 // cs: sequential page read
	RandPage float64 // cr: random page read
	Tuple    float64 // ct: CPU per tuple
	IdxTuple float64 // ci: CPU per index tuple
	Operator float64 // co: per-operator startup / bookkeeping
}

// baseCoefficients derives the raw device-level coefficients before cache
// and format effects.
func (e *Environment) baseCoefficients() Coefficients {
	const pageKB = 8.0
	seqMs := pageKB / 1024 / e.HW.SeqReadMBps * 1000 // ms per 8KB sequential
	randMs := 1000 / e.HW.RandIOPS                   // ms per random IOP
	cpuMs := 0.0001 / e.HW.CPUFactor                 // ms per tuple at baseline
	if e.Knobs.JIT {
		cpuMs *= 0.75 // JIT removes interpretation overhead
	}
	return Coefficients{
		SeqPage:  seqMs,
		RandPage: randMs,
		Tuple:    cpuMs,
		IdxTuple: cpuMs * 0.5,
		Operator: 0.01 / e.HW.CPUFactor,
	}
}

// cacheHitFrac models the buffer cache: the fraction of page requests to a
// relation of relPages that hit shared_buffers (plus the OS page cache
// backed by total memory). Small relations are fully cached; large ones
// decay smoothly.
func (e *Environment) cacheHitFrac(relPages int64) float64 {
	if relPages <= 0 {
		return 1
	}
	bufferPages := float64(e.Knobs.SharedBuffersMB) * 1024 / 8
	osPages := float64(e.HW.MemoryGB) * 1024 * 1024 / 8 * 0.25 // OS page cache share
	effective := bufferPages + 0.5*osPages
	frac := effective / float64(relPages)
	if frac >= 1 {
		return 0.995 // first touch still misses occasionally
	}
	return frac * 0.9
}

// memPageCost is the cost of serving a page from cache (memcpy + buffer
// manager bookkeeping), CPU-bound.
func (e *Environment) memPageCost() float64 { return 0.0008 / e.HW.CPUFactor }

// SeqPageCost returns the effective ms per sequentially read page of a
// relation occupying relPages, blending cache hits and device reads and
// applying the storage-format overhead.
func (e *Environment) SeqPageCost(relPages int64) float64 {
	c := e.baseCoefficients()
	hit := e.cacheHitFrac(relPages)
	cost := hit*e.memPageCost() + (1-hit)*c.SeqPage
	if e.Format == LSM {
		cost *= 1.3 // merge across runs during scans
	}
	return cost
}

// RandPageCost returns the effective ms per randomly read page.
func (e *Environment) RandPageCost(relPages int64) float64 {
	c := e.baseCoefficients()
	hit := e.cacheHitFrac(relPages)
	cost := hit*e.memPageCost() + (1-hit)*c.RandPage
	if e.Format == LSM {
		cost *= 2.2 // read amplification across levels
	}
	return cost
}

// TupleCost returns ms of CPU per tuple processed.
func (e *Environment) TupleCost() float64 { return e.baseCoefficients().Tuple }

// IdxTupleCost returns ms of CPU per index entry processed.
func (e *Environment) IdxTupleCost() float64 { return e.baseCoefficients().IdxTuple }

// OperatorCost returns the per-operator startup cost in ms.
func (e *Environment) OperatorCost() float64 { return e.baseCoefficients().Operator }

// ParallelSpeedup returns the wall-clock divisor applied to scan-heavy
// work when parallel workers are enabled (diminishing returns per worker,
// Amdahl-style).
func (e *Environment) ParallelSpeedup() float64 {
	w := e.Knobs.ParallelWorkers
	if w <= 0 {
		return 1
	}
	return 1 + 0.6*float64(w)
}

// SpillPasses returns the number of extra read+write passes an operator
// needs when its working set of bytes exceeds work_mem (0 when it fits).
// Mirrors external merge sort: each pass reads and writes the whole set.
func (e *Environment) SpillPasses(bytes int64) int {
	limit := int64(e.Knobs.WorkMemKB) * 1024
	if limit <= 0 || bytes <= limit {
		return 0
	}
	ratio := float64(bytes) / float64(limit)
	return int(math.Ceil(math.Log2(ratio)))
}

// Noise returns a multiplicative lognormal noise factor for one query,
// derived deterministically from the environment ID and query sequence so
// repeated runs reproduce byte-identical labels.
func (e *Environment) Noise(querySeq int64) float64 {
	if e.NoiseStd == 0 {
		return 1
	}
	rng := rand.New(rand.NewSource(int64(e.ID)*1_000_003 + querySeq))
	return math.Exp(rng.NormFloat64() * e.NoiseStd)
}

// String summarizes the environment for logs and EXPLAIN headers.
func (e *Environment) String() string {
	return fmt.Sprintf("env#%d{hw=%s fmt=%s shared_buffers=%dMB work_mem=%dKB idx=%v hash=%v merge=%v nl=%v par=%d jit=%v}",
		e.ID, e.HW.Name, e.Format, e.Knobs.SharedBuffersMB, e.Knobs.WorkMemKB,
		e.Knobs.EnableIndexScan, e.Knobs.EnableHashJoin, e.Knobs.EnableMergeJoin,
		e.Knobs.EnableNestLoop, e.Knobs.ParallelWorkers, e.Knobs.JIT)
}
