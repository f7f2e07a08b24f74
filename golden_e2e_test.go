package qcfe_test

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	qcfe "repro"
	"repro/internal/serve"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files from the current build's output")

// TestGoldenEndToEnd locks the entire train→Save→Load→serve path to a
// checked-in byte sequence: a fixed pipeline is trained, saved,
// reloaded, served over HTTP, and the /estimate_batch response body is
// compared byte-for-byte against testdata/golden_estimate_batch.json.
// Any drift anywhere in the stack — dataset generation, labeling,
// training, featurization, the artifact codec, serving, JSON framing —
// fails this test loudly. After an *intentional* change to any of
// those, regenerate with:
//
//	go test -run TestGoldenEndToEnd -update-golden .
//
// and commit the diff; the review of that diff is the drift review.
func TestGoldenEndToEnd(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The golden bytes pin float results; Go may fuse multiply-adds
		// on other architectures, which changes last-bit rounding.
		t.Skipf("golden floats are pinned on amd64, running on %s", runtime.GOARCH)
	}

	// The exact fixture the package tests train everywhere: sysbench,
	// 2 environments, 80 queries/env, 40 iterations, seed 3.
	b, err := qcfe.OpenBenchmark("sysbench", 1)
	if err != nil {
		t.Fatal(err)
	}
	envs := qcfe.RandomEnvironments(2, 1)
	pool, err := b.CollectWorkload(envs, 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := pool.Split(0.8)
	est, err := qcfe.NewPipeline("mscn",
		qcfe.WithTrainIters(40), qcfe.WithReferences(20), qcfe.WithSeed(3),
	).Fit(b, envs, train)
	if err != nil {
		t.Fatal(err)
	}

	// Train → Save → Load: serve only what the artifact reproduces.
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := qcfe.LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}

	srv := serve.New(loaded, serve.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// /estimate_batch prices directly through the batched inference path.

	body := `{"env":0,"sqls":[` +
		`"SELECT COUNT(*) FROM sbtest1 WHERE id BETWEEN 100 AND 300",` +
		`"SELECT * FROM sbtest1 WHERE id = 7",` +
		`"SELECT * FROM sbtest1 WHERE k < 250",` +
		`"SELECT k FROM sbtest1 WHERE k < 120 ORDER BY k LIMIT 5",` +
		`"SELECT COUNT(*) FROM sbtest1 WHERE id BETWEEN 10 AND 900"]}`
	resp, err := ts.Client().Post(ts.URL+"/estimate_batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, got.String())
	}

	goldenPath := filepath.Join("testdata", "golden_estimate_batch.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, got.Len())
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v — regenerate with `go test -run TestGoldenEndToEnd -update-golden .`", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("served /estimate_batch drifted from golden:\n  got  %s  want %s"+
			"If this change is intentional, regenerate with -update-golden and commit the diff.",
			got.String(), string(want))
	}
}
