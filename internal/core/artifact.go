package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"time"

	"repro/internal/artifact"
	"repro/internal/catalog"
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
const ArtifactVersion = 3

// ErrStaleArtifact reports an artifact this build cannot use as written:
// its feature layout differs from this build's encoding, or the rows this
// build generates for its benchmark have other statistics than it records.
var ErrStaleArtifact = errors.New("core: stale artifact")

// Artifact is one loaded model artifact: the benchmark's schema and the
// statistics the model was trained over, the environment set it was
// trained across, the pipeline configuration, and the trained Result
// (model weights, featurizer with snapshots and mask, bookkeeping). It is
// everything needed to serve the model — or to keep training it, once the
// benchmark's rows are generated.
type Artifact struct {
	BenchSeed int64
	// DS holds the benchmark's name, its schema and the artifact's
	// statistics; its DB is nil.
	DS   *datagen.Dataset
	Envs []*dbenv.Environment
	Cfg  Config
	Res  *Result
}

// fingerprint hashes everything the artifact's feature layout depends on:
// the benchmark identity (name + generation seed) and the featurizer's
// raw feature names (which encode the schema vocabularies, the numeric
// block, and snapshot-block presence). A loader recomputes it against the
// code it is running and the schema that code declares; a mismatch means
// the artifact's feature vectors would not line up with this build's
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
// version, benchmark/seed fingerprint, pipeline config, the dataset's
// statistics, environment set, featurizer state (per-environment
// snapshots + reduction mask), model weights, and a CRC-32 trailer. ds
// names the benchmark and supplies the statistics; its rows are not
// read. The written bytes are deterministic for a given trained pipeline,
// and a LoadArtifact of them reproduces the model's predictions bit for
// bit without generating a row.
func SaveArtifact(w io.Writer, ds *datagen.Dataset, benchSeed int64, envs []*dbenv.Environment, cfg Config, res *Result) error {
	if res == nil || res.Model == nil || res.F == nil {
		return fmt.Errorf("core: cannot save an empty result")
	}
	modelName := res.Model.Name()
	e := &artifact.Encoder{}

	// Header: model identity + benchmark fingerprint.
	e.Str(modelName)
	e.Str(ds.Name)
	e.I64(benchSeed)
	e.I64(fingerprint(ds.Name, benchSeed, res.F.Names()))

	// Pipeline configuration.
	e.Str(cfg.Model)
	e.Bool(cfg.UseSnapshot)
	e.Str(string(cfg.SnapshotMode))
	e.Int(cfg.TemplateScale)
	e.Int(cfg.FSOPerEnv)
	e.Str(string(cfg.Reduction))
	e.Int(cfg.NumReferences)
	e.Int(cfg.TrainIters)
	e.Int(cfg.ProbeEpochs)
	e.Int(cfg.ProbeSamples)
	e.I64(cfg.Seed)

	// The statistics the planner, featurizer and analytic model read.
	ds.Stats.Encode(e)

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

	// Bookkeeping the serving front end reports. The last two fields are
	// derived from the featurizer; LoadArtifact checks them against the
	// one it rebuilds.
	e.I64(int64(res.TrainTime))
	e.F64(res.SnapshotMs)
	e.I64(int64(res.ReductionTime))
	e.F64(res.ReductionRatio())
	e.Int(res.F.RawDim())

	// Model weights.
	switch m := res.Model.(type) {
	case *mscn.Model:
		m.Encode(e)
	case *qppnet.Model:
		m.Encode(e)
	case *Analytic:
		// Stateless: fully reconstructed from the statistics section.
	default:
		return fmt.Errorf("core: cannot save estimator %T", res.Model)
	}

	return e.WriteTo(w, ArtifactVersion)
}

// LoadArtifact reads an artifact written by SaveArtifact: it validates
// the magic, version, and checksum, takes the benchmark's schema from
// this build by its recorded name and its statistics from the artifact,
// and verifies the fingerprint against this build's feature layout before
// reconstructing the featurizer and model. It generates no rows: the
// returned DS has a nil DB. The loaded model's EstimateBatch output is
// bit-identical to the saved model's.
func LoadArtifact(r io.Reader) (*Artifact, error) {
	d, err := artifact.NewDecoder(r, ArtifactVersion)
	if err != nil {
		return nil, err
	}

	a := &Artifact{}
	modelName := d.Str()
	benchName := d.Str()
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
	a.Cfg.TrainIters = d.Int()
	a.Cfg.ProbeEpochs = d.Int()
	a.Cfg.ProbeSamples = d.Int()
	a.Cfg.Seed = d.I64()

	stats, err := catalog.DecodeStats(d)
	if err != nil {
		return nil, err
	}

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

	schema, err := datagen.Schema(benchName)
	if err != nil {
		return nil, fmt.Errorf("core: artifact references benchmark %q: %w", benchName, err)
	}
	ds := &datagen.Dataset{Name: benchName, Schema: schema, Stats: stats}
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

	// The fingerprint is recomputed from this build's schema and encoding
	// — not from the artifact's bytes — so it catches a changed schema or
	// feature layout. A changed row generator shows in the statistics
	// instead, once rows are generated (CheckStats).
	if gotFP := fingerprint(benchName, a.BenchSeed, f.Names()); gotFP != wantFP {
		return nil, fmt.Errorf("%w: fingerprint mismatch for %s/seed=%d (artifact %x, this build %x) — the schema or feature encoding changed since the artifact was written; retrain and re-save",
			ErrStaleArtifact, benchName, a.BenchSeed, uint64(wantFP), uint64(gotFP))
	}

	res := &Result{Features: Features{F: f}}
	res.TrainTime = time.Duration(d.I64())
	res.SnapshotMs = d.F64()
	res.ReductionTime = time.Duration(d.I64())
	ratio, rawDim := d.F64(), d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if ratio != res.ReductionRatio() || rawDim != f.RawDim() {
		return nil, fmt.Errorf("core: artifact records reduction ratio %v over %d raw features, but its featurizer prunes %v of %d",
			ratio, rawDim, res.ReductionRatio(), f.RawDim())
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
	if err := stats.Validate(schema); err != nil {
		return nil, fmt.Errorf("%w: %v", artifact.ErrMalformed, err)
	}
	a.Res = res
	return a, nil
}

// CheckStats reports, as ErrStaleArtifact, generated rows whose
// statistics are not the ones an artifact recorded for them: the dataset
// generator changed since the artifact was written, and the rows are not
// the data its model was trained over.
func CheckStats(ds *datagen.Dataset, recorded *catalog.Stats) error {
	if !bytes.Equal(statsBytes(ds.Stats), statsBytes(recorded)) {
		return fmt.Errorf("%w: the %s rows this build generates have other statistics than the artifact records — the dataset generator changed since it was written; retrain and re-save",
			ErrStaleArtifact, ds.Name)
	}
	return nil
}

// statsBytes is the statistics section SaveArtifact would write for s.
func statsBytes(s *catalog.Stats) []byte {
	e := &artifact.Encoder{}
	s.Encode(e)
	var buf bytes.Buffer
	e.WriteTo(&buf, ArtifactVersion) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}
