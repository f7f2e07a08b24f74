package workload

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/dbenv"
	"repro/internal/parallel"
	"repro/internal/planner"
)

// planFingerprint renders every per-node actual of a plan tree, so two
// collections can be compared bit-for-bit.
func planFingerprint(root *planner.Node) string {
	var out string
	root.Walk(func(n *planner.Node) {
		out += fmt.Sprintf("%v|%d|%b|%b|%b;", n.Op, n.ActualRows,
			int64FromFloat(n.ActualIn1), int64FromFloat(n.ActualIn2), int64FromFloat(n.ActualMs))
	})
	return out
}

func int64FromFloat(f float64) uint64 {
	return uint64(f * 1e9) // enough precision to catch any drift
}

// TestCollectWorkerCountInvariant is the determinism regression test for
// the parallel labeling pipeline: the pool collected with 1 worker must be
// bit-identical — same SQL, same labels, same per-node actuals, same order
// — to the pool collected with many workers from the same seed. The count
// is set through the process default, which is what Collect's fan-out
// reads.
func TestCollectWorkerCountInvariant(t *testing.T) {
	defer parallel.SetDefaultWorkers(0)
	collect := func(workers int) *Labeled {
		t.Helper()
		parallel.SetDefaultWorkers(workers)
		lab, err := Collect(context.Background(), sysb, dbenv.SampleSet(3, 5), 20, 42)
		if err != nil {
			t.Fatal(err)
		}
		return lab
	}
	serial := collect(1)
	for _, workers := range []int{2, 8} {
		par := collect(workers)
		if len(par.Samples) != len(serial.Samples) {
			t.Fatalf("workers=%d: %d samples, want %d", workers, len(par.Samples), len(serial.Samples))
		}
		for i := range serial.Samples {
			a, b := serial.Samples[i], par.Samples[i]
			if a.SQL != b.SQL || a.EnvID != b.EnvID {
				t.Fatalf("workers=%d: sample %d diverged: %q/env%d vs %q/env%d",
					workers, i, a.SQL, a.EnvID, b.SQL, b.EnvID)
			}
			if a.Ms != b.Ms {
				t.Fatalf("workers=%d: sample %d label diverged: %v vs %v", workers, i, a.Ms, b.Ms)
			}
			if planFingerprint(a.Plan) != planFingerprint(b.Plan) {
				t.Fatalf("workers=%d: sample %d plan actuals diverged", workers, i)
			}
		}
	}
}

// TestCollectRejectsDuplicateIDs labels two different environments that
// share ID 0. Labelling keys executors, noise and EnvID by ID, so the
// second environment's queries would be labelled as the first's; the
// collection must fail with a typed error instead.
func TestCollectRejectsDuplicateIDs(t *testing.T) {
	other := dbenv.SampleSet(1, 7)[0]
	_, err := Collect(context.Background(), tpch, []*dbenv.Environment{dbenv.Default(), other}, 40, 1)
	var dup *dbenv.DuplicateIDError
	if !errors.As(err, &dup) || dup.ID != 0 || dup.First != 0 || dup.Second != 1 {
		t.Fatalf("err = %v, want a DuplicateIDError for ID 0 at positions 0 and 1", err)
	}
}
