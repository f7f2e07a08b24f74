package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"time"

	"repro/internal/artifact"
	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/encoding"
	"repro/internal/featred"
	"repro/internal/mscn"
	"repro/internal/qppnet"
	"repro/internal/snapshot"
)

// ArtifactVersion is the persistent artifact format version. Bump it on
// any layout change; loaders reject other versions loudly rather than
// misreading bytes.
const ArtifactVersion = 1

// Artifact is one loaded model artifact: the rebuilt dataset, the
// environment set the model was trained across, the pipeline
// configuration, and the trained Result (model weights, featurizer with
// snapshots and mask, bookkeeping). It is everything needed to serve the
// model — or to keep training it.
type Artifact struct {
	BenchName string
	BenchSeed int64
	DS        *datagen.Dataset
	Envs      []*dbenv.Environment
	Cfg       Config
	Res       *Result
}

// fingerprint hashes everything the artifact's feature layout depends on:
// the benchmark identity (name + generation seed) and the featurizer's
// raw feature names (which encode the schema vocabularies, the numeric
// block, and snapshot-block presence). A loader recomputes it against the
// code it is running and the dataset it rebuilt; a mismatch means the
// artifact's feature vectors would not line up with this build's
// encoding, so loading fails loudly instead of predicting garbage.
func fingerprint(benchName string, benchSeed int64, featureNames []string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%d\x00", benchName, benchSeed)
	for _, n := range featureNames {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return int64(h.Sum64())
}

// SaveArtifact writes one versioned binary artifact: magic header, format
// version, benchmark/seed fingerprint, pipeline config, environment set,
// featurizer state (per-environment snapshots + reduction mask), model
// weights, and a CRC-32 trailer. The written bytes are deterministic for
// a given trained pipeline, and a LoadArtifact of them reproduces the
// model's predictions bit for bit.
func SaveArtifact(w io.Writer, benchName string, benchSeed int64, envs []*dbenv.Environment, cfg Config, res *Result) error {
	if res == nil || res.Model == nil || res.F == nil {
		return fmt.Errorf("core: cannot save an empty result")
	}
	modelName := res.Model.Name()
	e := &artifact.Encoder{}

	// Header: model identity + benchmark fingerprint.
	e.Str(modelName)
	e.Str(benchName)
	e.I64(benchSeed)
	e.I64(fingerprint(benchName, benchSeed, res.F.Names()))

	// Pipeline configuration (everything except Prebuilt, which is an
	// in-process cache handle, not state).
	e.Str(cfg.Model)
	e.Bool(cfg.UseSnapshot)
	e.Str(string(cfg.SnapshotMode))
	e.Int(cfg.TemplateScale)
	e.Int(cfg.FSOPerEnv)
	e.Str(string(cfg.Reduction))
	e.Int(cfg.NumReferences)
	e.F64(cfg.Threshold)
	e.Int(cfg.TrainIters)
	e.Int(cfg.ProbeEpochs)
	e.Int(cfg.ProbeSamples)
	e.I64(cfg.Seed)

	// Environment set.
	e.U32(uint32(len(envs)))
	for _, env := range envs {
		env.Encode(e)
	}

	// Featurizer state: per-environment snapshots in ascending env-ID
	// order (map iteration order must not leak into the bytes), then the
	// reduction mask.
	e.Bool(res.F.Snaps != nil)
	if res.F.Snaps != nil {
		ids := make([]int, 0, len(res.F.Snaps))
		for id := range res.F.Snaps {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		e.U32(uint32(len(ids)))
		for _, id := range ids {
			e.Int(id)
			res.F.Snaps[id].Encode(e)
		}
	}
	e.Bools(res.F.Mask)

	// Bookkeeping the serving front end reports.
	e.I64(int64(res.TrainTime))
	e.F64(res.SnapshotMs)
	e.I64(int64(res.ReductionTime))
	e.F64(res.ReductionRatio)
	e.Int(res.RawDim)

	// Model weights.
	switch m := res.Model.(type) {
	case *mscn.Model:
		m.Encode(e)
	case *qppnet.Model:
		m.Encode(e)
	case *Analytic:
		// Stateless: fully reconstructed from the dataset statistics.
	default:
		return fmt.Errorf("core: cannot save estimator %T", res.Model)
	}

	return e.WriteTo(w, ArtifactVersion)
}

// LoadArtifact reads an artifact written by SaveArtifact: it validates
// the magic, version, and checksum, rebuilds the benchmark dataset from
// its recorded (name, seed) — dataset generation is deterministic — and
// verifies the fingerprint against this build's feature layout before
// reconstructing the featurizer and model. The loaded model's
// EstimateBatch output is bit-identical to the saved model's.
func LoadArtifact(r io.Reader) (*Artifact, error) {
	d, err := artifact.NewDecoder(r, ArtifactVersion)
	if err != nil {
		return nil, err
	}

	a := &Artifact{}
	modelName := d.Str()
	a.BenchName = d.Str()
	a.BenchSeed = d.I64()
	wantFP := d.I64()
	if err := d.Err(); err != nil {
		return nil, err
	}

	a.Cfg.Model = d.Str()
	a.Cfg.UseSnapshot = d.Bool()
	a.Cfg.SnapshotMode = SnapshotMode(d.Str())
	a.Cfg.TemplateScale = d.Int()
	a.Cfg.FSOPerEnv = d.Int()
	a.Cfg.Reduction = ReductionMethod(d.Str())
	a.Cfg.NumReferences = d.Int()
	a.Cfg.Threshold = d.F64()
	a.Cfg.TrainIters = d.Int()
	a.Cfg.ProbeEpochs = d.Int()
	a.Cfg.ProbeSamples = d.Int()
	a.Cfg.Seed = d.I64()

	// Counts are checked against the payload left before they size
	// anything: an environment starts with its 8-byte ID, a snapshot
	// entry with its 8-byte environment ID and two 4-byte dimensions.
	nEnvs := d.Count(8, "environment count")
	if err := d.Err(); err != nil {
		return nil, err
	}
	a.Envs = make([]*dbenv.Environment, 0, nEnvs)
	for i := 0; i < nEnvs; i++ {
		env, err := dbenv.Decode(d)
		if err != nil {
			return nil, fmt.Errorf("core: environment %d: %w", i, err)
		}
		a.Envs = append(a.Envs, env)
	}

	ds, err := datagen.Build(a.BenchName, a.BenchSeed)
	if err != nil {
		return nil, fmt.Errorf("core: artifact references benchmark %q: %w", a.BenchName, err)
	}
	a.DS = ds

	f := &encoding.Featurizer{Enc: encoding.New(ds.Schema)}
	if d.Bool() { // snapshot block present
		nSnaps := d.Count(16, "snapshot count")
		if err := d.Err(); err != nil {
			return nil, err
		}
		f.Snaps = make(map[int]*snapshot.Snapshot, nSnaps)
		for i := 0; i < nSnaps; i++ {
			id := d.Int()
			snap, err := snapshot.Decode(d)
			if err != nil {
				return nil, fmt.Errorf("core: snapshot for env %d: %w", id, err)
			}
			f.Snaps[id] = snap
		}
	}
	mask := d.Bools()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if mask != nil {
		if err := featred.Validate(mask, f.RawDim()); err != nil {
			return nil, fmt.Errorf("core: artifact reduction mask: %w", err)
		}
		f.Mask = mask
	}

	// The fingerprint is recomputed from the rebuilt dataset and this
	// build's encoding — not from the artifact's bytes — so it catches
	// both a changed dataset generator and a changed feature layout.
	if gotFP := fingerprint(a.BenchName, a.BenchSeed, f.Names()); gotFP != wantFP {
		return nil, fmt.Errorf("core: stale artifact: fingerprint mismatch for %s/seed=%d (artifact %x, this build %x) — the dataset generator or feature encoding changed since the artifact was written; retrain and re-save",
			a.BenchName, a.BenchSeed, uint64(wantFP), uint64(gotFP))
	}

	res := &Result{F: f, Mask: mask}
	res.TrainTime = time.Duration(d.I64())
	res.SnapshotMs = d.F64()
	res.ReductionTime = time.Duration(d.I64())
	res.ReductionRatio = d.F64()
	res.RawDim = d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}

	switch modelName {
	case "mscn":
		m, err := mscn.Decode(d, f, a.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		res.Model = m
	case "qppnet":
		m, err := qppnet.Decode(d, f, a.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		res.Model = m
	case "analytic":
		res.Model = NewAnalytic(ds.Stats)
	default:
		return nil, fmt.Errorf("core: artifact contains unknown model %q", modelName)
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	a.Res = res
	return a, nil
}
