package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/encoding"
	"repro/internal/mscn"
	"repro/internal/nn"
	"repro/internal/qppnet"
	"repro/internal/snapshot"
)

// hostileConfig encodes an artifact's leading sections as SaveArtifact
// lays them out — model and benchmark identity, fingerprint, pipeline
// configuration — so a test can follow them with a forged statistics
// count.
func hostileConfig(e *artifact.Encoder, bench string, seed int64) {
	e.Str("mscn")
	e.Str(bench)
	e.I64(seed)
	e.I64(0) // fingerprint: never reached
	cfg := DefaultConfig("mscn")
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
}

// hostileHeader is hostileConfig followed by a valid, empty statistics
// section, so a forged count after it reaches the environment section.
func hostileHeader(e *artifact.Encoder, bench string, seed int64) {
	hostileConfig(e, bench, seed)
	e.U32(0)
}

// hostileTable encodes the statistics section up to its one table's
// column count: the table count, then sbtest1's name, rows and pages.
func hostileTable(e *artifact.Encoder) {
	hostileConfig(e, "sysbench", 1)
	e.U32(1)
	e.Str("sbtest1")
	e.I64(10) // rows
	e.I64(1)  // pages
}

// hostileColumn follows hostileTable with one column, sbtest1.id, up to
// its histogram count: its name and its five fixed fields.
func hostileColumn(e *artifact.Encoder) {
	hostileTable(e)
	e.U32(1)
	e.Str("id")
	for i := 0; i < 5; i++ { // row count, distinct count, null fraction, min, max
		e.I64(0)
	}
}

// TestLoadArtifactHostileCounts: an artifact with a valid checksum whose
// statistics table, column, histogram or sample count, environment count
// or snapshot count is 2^31−1 fails with ErrMalformed, and rejecting it
// allocates no more than the bytes it holds would justify. Pre-sizing a
// slice or map from such a count ends the process with an unrecoverable
// out-of-memory error. Each case encodes every section before the one it
// names validly, so the forged count is the one the decoder reads there.
func TestLoadArtifactHostileCounts(t *testing.T) {
	cases := []struct {
		name, count string // the case and the count the decoder must reject
		encode      func(e *artifact.Encoder)
	}{
		{"statistics tables", "statistics table count", func(e *artifact.Encoder) {
			hostileConfig(e, "sysbench", 1)
			e.U32(1<<31 - 1)
		}},
		{"statistics columns", "column statistics count", func(e *artifact.Encoder) {
			hostileTable(e)
			e.U32(1<<31 - 1)
		}},
		{"histogram bounds", "histogram bound count", func(e *artifact.Encoder) {
			hostileColumn(e)
			e.U32(1<<31 - 1)
			e.U32(0) // samples
		}},
		{"sample values", "sample count", func(e *artifact.Encoder) {
			hostileColumn(e)
			e.U32(0)
			e.U32(1<<31 - 1)
		}},
		{"environments", "environment count", func(e *artifact.Encoder) {
			hostileHeader(e, "sysbench", 1)
			e.U32(1<<31 - 1)
		}},
		{"snapshots", "snapshot count", func(e *artifact.Encoder) {
			hostileHeader(e, "sysbench", 1)
			e.U32(0)
			e.Bool(true)
			e.U32(1<<31 - 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := &artifact.Encoder{}
			tc.encode(e)
			var buf bytes.Buffer
			if err := e.WriteTo(&buf, ArtifactVersion); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := LoadArtifact(bytes.NewReader(raw))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, artifact.ErrMalformed) || !strings.Contains(err.Error(), tc.count) {
				t.Fatalf("%d-byte artifact: err = %v, want ErrMalformed at the %s", len(raw), err, tc.count)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("rejecting a %d-byte artifact allocated %d bytes", len(raw), alloc)
			}
		})
	}
}

// TestLoadArtifactChecksDerivedBookkeeping: the raw feature width and the
// reduction ratio an artifact stores are derived from its featurizer, so
// LoadArtifact checks them against the featurizer it rebuilds. An artifact
// with a valid checksum whose stored value disagrees is rejected.
func TestLoadArtifactChecksDerivedBookkeeping(t *testing.T) {
	raw := fuzzSeedArtifact(t, "mscn")
	a, err := LoadArtifact(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	ratio, rawDim := a.Res.ReductionRatio(), a.Res.F.RawDim()
	if ratio <= 0 {
		t.Fatalf("seed artifact reduction ratio %v, want a mask that prunes", ratio)
	}
	// SaveArtifact writes the ratio's IEEE-754 bits, then the width as an
	// int64, both little-endian.
	field := binary.LittleEndian.AppendUint64(nil, math.Float64bits(ratio))
	field = binary.LittleEndian.AppendUint64(field, uint64(rawDim))
	if n := bytes.Count(raw, field); n != 1 {
		t.Fatalf("bookkeeping bytes found %d times, want once", n)
	}
	at := bytes.Index(raw, field)
	for _, tc := range []struct {
		name   string
		off    int
		forged uint64
	}{
		{"reduction ratio", at, math.Float64bits(ratio / 2)},
		{"raw width", at + 8, uint64(rawDim + 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint64(bad[tc.off:], tc.forged)
			if _, err := LoadArtifact(bytes.NewReader(reseal(bad))); err == nil {
				t.Fatalf("artifact with a forged %s loaded", tc.name)
			}
		})
	}
}

// The fuzz target's seed artifacts are models over this dataset.
const (
	fuzzBench = "sysbench"
	fuzzSeed  = 1
)

// fuzzSeedArtifact saves a model of the named kind over fuzzBench with two
// environments, a snapshot block and a reduction mask, so every section
// decoder has bytes to read. Its networks are two units wide and its
// statistics keep two histogram bounds and two sample values per column:
// the fuzzer's mutation and minimization costs grow with the input (with
// the full 64-value samples it spent its whole run minimizing one seed),
// and the decoders read a short list exactly as a long one.
func fuzzSeedArtifact(f testing.TB, model string) []byte {
	f.Helper()
	full, err := datagen.Build(fuzzBench, fuzzSeed)
	if err != nil {
		f.Fatal(err)
	}
	ds := &datagen.Dataset{Name: full.Name, Schema: full.Schema, Stats: catalog.NewStats()}
	for name, ts := range full.Stats.Tables {
		small := &catalog.TableStats{RowCount: ts.RowCount, Pages: ts.Pages, Columns: map[string]*catalog.ColumnStats{}}
		for col, cs := range ts.Columns {
			c := *cs
			c.HistBounds = c.HistBounds[:min(2, len(c.HistBounds))]
			c.Sample = c.Sample[:min(2, len(c.Sample))]
			small.Columns[col] = &c
		}
		ds.Stats.Tables[name] = small
	}
	envs := dbenv.SampleSet(2, 3)
	feat := &encoding.Featurizer{Enc: encoding.New(ds.Schema), Snaps: map[int]*snapshot.Snapshot{}}
	for _, env := range envs {
		feat.Snaps[env.ID] = &snapshot.Snapshot{}
	}
	feat.Mask = make([]bool, feat.RawDim())
	for i := range feat.Mask {
		feat.Mask[i] = i%7 == 0
	}
	rng := rand.New(rand.NewSource(1))
	var est Estimator
	switch model {
	case "mscn":
		m := mscn.New(feat, 1)
		m.SetNet = nn.NewMLP([]int{feat.Dim(), 2, 2}, rng)
		m.OutNet = nn.NewMLP([]int{2, 2, 1}, rng)
		est = m
	case "qppnet":
		m := qppnet.New(feat, 1)
		m.Hidden, m.OutVec = 2, 2
		for op := range m.Nets {
			m.Nets[op] = nn.NewMLP([]int{feat.Dim() + m.OutVec, 2, 2, m.OutVec}, rng)
		}
		est = m
	}
	var buf bytes.Buffer
	res := &Result{Model: est, Features: Features{F: feat}}
	if err := SaveArtifact(&buf, ds, fuzzSeed, envs, DefaultConfig(model), res); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// reseal writes the correct CRC-32 after the declared payload when the
// stream is long enough to hold it, so mutated payloads reach the section
// decoders instead of stopping at the checksum.
func reseal(raw []byte) []byte {
	if len(raw) < 24 {
		return raw
	}
	n := binary.LittleEndian.Uint64(raw[12:20])
	if n > uint64(len(raw)-24) {
		return raw
	}
	out := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(out[20+n:], crc32.ChecksumIEEE(out[:20+n]))
	return out
}

// FuzzLoadArtifact: whatever the bytes, LoadArtifact returns without
// panicking, and returns either an artifact or an error, never both or
// neither. Seeds are small real artifacts of both learned models and the
// two hostile inputs the loader once failed on: a 28-byte stream that
// declares a 1 GiB payload, and an environment count of 2^31−1.
func FuzzLoadArtifact(f *testing.F) {
	for _, model := range []string{"mscn", "qppnet"} {
		raw := fuzzSeedArtifact(f, model)
		if _, err := LoadArtifact(bytes.NewReader(raw)); err != nil {
			f.Fatalf("%s seed artifact does not load: %v", model, err)
		}
		f.Add(raw)
	}

	var long bytes.Buffer
	long.Write(fuzzSeedArtifact(f, "mscn")[:12]) // magic + version
	binary.Write(&long, binary.LittleEndian, uint64(1<<30))
	long.Write([]byte("8 bytes."))
	f.Add(long.Bytes())

	e := &artifact.Encoder{}
	hostileHeader(e, fuzzBench, fuzzSeed)
	e.U32(1<<31 - 1)
	var count bytes.Buffer
	if err := e.WriteTo(&count, ArtifactVersion); err != nil {
		f.Fatal(err)
	}
	f.Add(count.Bytes())

	f.Fuzz(func(t *testing.T, raw []byte) {
		raw = reseal(raw)
		a, err := LoadArtifact(bytes.NewReader(raw))
		if (a == nil) == (err == nil) {
			t.Fatalf("LoadArtifact returned artifact %v and error %v", a != nil, err)
		}
	})
}
