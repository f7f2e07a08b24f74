package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/artifact"
	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/encoding"
	"repro/internal/mscn"
	"repro/internal/nn"
	"repro/internal/qppnet"
	"repro/internal/snapshot"
)

// hostileHeader encodes an artifact's leading sections as SaveArtifact
// lays them out — model and benchmark identity, fingerprint, pipeline
// configuration — so a test can follow them with a forged count.
func hostileHeader(e *artifact.Encoder, bench string, seed int64) {
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
	e.F64(cfg.Threshold)
	e.Int(cfg.TrainIters)
	e.Int(cfg.ProbeEpochs)
	e.Int(cfg.ProbeSamples)
	e.I64(cfg.Seed)
}

// TestLoadArtifactHostileCounts: an artifact with a valid checksum whose
// environment or snapshot count is 2^31−1 fails with ErrMalformed, and
// rejecting it allocates no more than the bytes it holds would justify.
// Pre-sizing a slice or map from such a count ends the process with an
// unrecoverable out-of-memory error.
func TestLoadArtifactHostileCounts(t *testing.T) {
	if _, err := datagen.Build("sysbench", 1); err != nil { // off the measured path
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		encode func(e *artifact.Encoder)
	}{
		{"environments", func(e *artifact.Encoder) {
			hostileHeader(e, "sysbench", 1)
			e.U32(1<<31 - 1)
		}},
		{"snapshots", func(e *artifact.Encoder) {
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
			if !errors.Is(err, artifact.ErrMalformed) {
				t.Fatalf("%d-byte artifact: err = %v, want ErrMalformed", len(raw), err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("rejecting a %d-byte artifact allocated %d bytes", len(raw), alloc)
			}
		})
	}
}

// The fuzz target loads every input against one dataset: LoadArtifact
// builds (and datagen memoizes for the life of the process) whatever
// benchmark and seed an artifact names, so inputs naming another one are
// passed over.
const (
	fuzzBench = "sysbench"
	fuzzSeed  = 1
)

// fuzzSeedArtifact saves a model of the named kind over fuzzBench with two
// environments, a snapshot block and a reduction mask, so every section
// decoder has bytes to read. Its networks are two units wide: the
// fuzzer's mutation and minimization costs grow with the input, and the
// decoders read a two-unit layer exactly as a wide one.
func fuzzSeedArtifact(f *testing.F, model string) []byte {
	f.Helper()
	ds, err := datagen.Build(fuzzBench, fuzzSeed)
	if err != nil {
		f.Fatal(err)
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
	res := &Result{Model: est, F: feat, Mask: feat.Mask, RawDim: feat.RawDim()}
	if err := SaveArtifact(&buf, fuzzBench, fuzzSeed, envs, DefaultConfig(model), res); err != nil {
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

// namesOtherDataset reports whether the payload names a buildable
// benchmark other than (fuzzBench, fuzzSeed).
func namesOtherDataset(raw []byte) bool {
	p := raw[min(len(raw), 20):]
	str := func() (string, bool) {
		if len(p) < 4 {
			return "", false
		}
		n := uint64(binary.LittleEndian.Uint32(p))
		if uint64(len(p)-4) < n {
			return "", false
		}
		s := string(p[4 : 4+n])
		p = p[4+n:]
		return s, true
	}
	if _, ok := str(); !ok {
		return false
	}
	bench, ok := str()
	if !ok || len(p) < 8 {
		return false
	}
	seed := int64(binary.LittleEndian.Uint64(p))
	switch bench {
	case "tpch", "imdb", "sysbench":
		return bench != fuzzBench || seed != fuzzSeed
	}
	return false
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
		if namesOtherDataset(raw) {
			return
		}
		a, err := LoadArtifact(bytes.NewReader(raw))
		if (a == nil) == (err == nil) {
			t.Fatalf("LoadArtifact returned artifact %v and error %v", a != nil, err)
		}
	})
}
