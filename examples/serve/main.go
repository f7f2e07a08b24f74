// Command serve demonstrates the train-once/serve-many flow end to end,
// in-process: train a QCFE pipeline, save it as a persistent artifact,
// load the artifact back (exactly what cmd/qcfe-serve does at startup),
// stand up the HTTP server, and fire concurrent requests at
// it — verifying the served predictions equal the library's.
//
//	go run ./examples/serve
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"

	qcfe "repro"
	"repro/internal/serve"
)

func main() {
	// 1. Train a small pipeline (see examples/quickstart for the details).
	bench, err := qcfe.OpenBenchmark("sysbench", 1)
	check(err)
	envs := qcfe.RandomEnvironments(2, 1)
	pool, err := bench.CollectWorkload(envs, 100, 1)
	check(err)
	train, _ := pool.Split(0.8)
	fmt.Println("training…")
	est, err := qcfe.NewPipeline("mscn", qcfe.WithTrainIters(80), qcfe.WithSeed(1)).Fit(bench, envs, train)
	check(err)

	// 2. Save the estimator as a versioned binary artifact.
	path := "model.qcfe"
	f, err := os.Create(path)
	check(err)
	check(est.Save(f))
	check(f.Close())
	info, _ := os.Stat(path)
	fmt.Printf("saved artifact %s (%d bytes)\n", path, info.Size())
	defer os.Remove(path)

	// 3. Load it back — the serving process's startup path. The loaded
	// estimator predicts bit-identically to the in-memory one.
	f, err = os.Open(path)
	check(err)
	loaded, err := qcfe.LoadEstimator(f)
	f.Close()
	check(err)
	fmt.Printf("loaded %s estimator for %s (%d environments)\n",
		loaded.ModelName(), loaded.BenchmarkName(), len(loaded.Environments()))

	// Attach the query-fingerprint cache (what qcfe-serve does by
	// default): repeats short-circuit at the prediction tier, literal
	// variants reuse cached plan skeletons — results stay bit-identical.
	loaded.AttachCache(qcfe.NewQueryCache(qcfe.CacheOptions{}))

	// 4. Serve it: concurrent single-query requests are each priced on
	// their own request's goroutine.
	srv := serve.New(loaded, serve.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("serving on %s\n", ts.URL)

	sqls := []string{
		"SELECT COUNT(*) FROM sbtest1 WHERE id BETWEEN 100 AND 300",
		"SELECT * FROM sbtest1 WHERE id = 7",
		"SELECT * FROM sbtest1 WHERE k < 500",
		"SELECT COUNT(*) FROM sbtest1 WHERE k BETWEEN 10 AND 90",
	}
	var wg sync.WaitGroup
	served := make([]float64, len(sqls))
	for i, sql := range sqls {
		wg.Add(1)
		go func(i int, sql string) {
			defer wg.Done()
			body := fmt.Sprintf(`{"env":0,"sql":%q}`, sql)
			resp, err := http.Post(ts.URL+"/estimate", "application/json", strings.NewReader(body))
			check(err)
			defer resp.Body.Close()
			var out struct {
				Ms float64 `json:"ms"`
			}
			check(json.NewDecoder(resp.Body).Decode(&out))
			served[i] = out.Ms
		}(i, sql)
	}
	wg.Wait()

	// 5. Served predictions are bit-identical to direct library calls.
	env := loaded.Environments()[0]
	for i, sql := range sqls {
		direct, err := loaded.EstimateSQL(env, sql)
		check(err)
		match := "==" // bitwise
		if direct != served[i] {
			match = "!="
		}
		fmt.Printf("  %-55s served %.4f ms %s library %.4f ms\n", sql, served[i], match, direct)
	}

	// A warm repeat is served from the cache's prediction tier without
	// being priced (see "cache_hits" in the stats).
	warm, err := loaded.EstimateSQL(env, sqls[0])
	check(err)
	fmt.Printf("warm repeat: %.4f ms (prediction-tier hit)\n", warm)

	resp, err := http.Get(ts.URL + "/stats")
	check(err)
	var stats bytes.Buffer
	stats.ReadFrom(resp.Body)
	resp.Body.Close()
	fmt.Printf("stats: %s", stats.String())
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
