// Command router demonstrates distributed scatter/gather serving
// in-process: train one pipeline, stand up three httptest replicas all
// serving the same artifact, front them with internal/router, and show
// (1) batch answers identical to the library's batched path bit for
// bit, (2) the fingerprint routing that keeps a template's literal
// variants on one replica's cache, and (3) a canary-gated fleet
// rollout to an adapted model — plus the rollback when a canary fails.
//
//	go run ./examples/router
package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	qcfe "repro"
	"repro/internal/router"
	"repro/internal/serve"
)

const adminToken = "example-token"

func main() {
	// 1. Train once; every replica loads the same saved artifact.
	bench, err := qcfe.OpenBenchmark("sysbench", 1)
	check(err)
	envs := qcfe.RandomEnvironments(2, 1)
	pool, err := bench.CollectWorkload(envs, 100, 1)
	check(err)
	train, _ := pool.Split(0.8)
	fmt.Println("training…")
	est, err := qcfe.NewPipeline("mscn", qcfe.WithTrainIters(80), qcfe.WithSeed(1)).Fit(bench, envs, train)
	check(err)
	var artifact bytes.Buffer
	check(est.Save(&artifact))

	// 2. A three-replica fleet: each replica is an independent process
	// in real deployments; here each is an httptest server over its own
	// loaded copy of the artifact, admin surface enabled for rollouts.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var urls []string
	for i := 0; i < 3; i++ {
		rep, err := qcfe.LoadEstimator(bytes.NewReader(artifact.Bytes()))
		check(err)
		rep.AttachCache(qcfe.NewQueryCache(qcfe.CacheOptions{}))
		srv := serve.New(rep, serve.Options{AdminToken: adminToken, Advertise: fmt.Sprintf("replica-%d", i)})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}

	// 3. The router consistent-hashes each query's fingerprint onto a
	// replica and scatter/gathers batches across the fleet.
	rt, err := router.New(urls, router.Options{AdminToken: adminToken, Timeout: 10 * time.Second})
	check(err)
	fmt.Printf("routing over %d replicas\n", len(rt.Replicas()))

	sqls := []string{
		"SELECT COUNT(*) FROM sbtest1 WHERE id BETWEEN 100 AND 300",
		"SELECT * FROM sbtest1 WHERE id = 7",
		"SELECT * FROM sbtest1 WHERE id = 8", // same template as above → same replica
		"SELECT * FROM sbtest1 WHERE k < 500",
		"SELECT COUNT(*) FROM sbtest1 WHERE k BETWEEN 10 AND 90",
	}
	routed, err := rt.EstimateBatch(ctx, 0, sqls)
	check(err)
	env := est.Environments()[0]
	direct, err := est.EstimateSQLBatchCtx(ctx, env, sqls)
	check(err)
	for i, sql := range sqls {
		match := "==" // bitwise
		if routed[i] != direct[i] {
			match = "!="
		}
		fmt.Printf("  %-55s routed %.4f ms %s library %.4f ms\n", sql, routed[i], match, direct[i])
	}

	// 4. Fleet rollout: adapt the model on fresh labels, then push the
	// new artifact replica-by-replica behind a byte-for-byte canary
	// gate. The canary probes are priced on each replica's *staged*
	// estimator, so a disagreeing replica never serves the new bytes.
	fmt.Println("adapting…")
	adaptPool, err := bench.CollectWorkload(envs, 40, 7)
	check(err)
	window, _ := adaptPool.Split(0.8)
	adapted, err := est.Adapt(window, 20)
	check(err)
	est = adapted
	var next bytes.Buffer
	check(est.Save(&next))
	res, err := rt.Rollout(ctx, router.RolloutRequest{
		ArtifactB64: base64.StdEncoding.EncodeToString(next.Bytes()),
		CanaryEnv:   0,
		CanarySQLs:  sqls,
	})
	check(err)
	fmt.Printf("rollout ok=%v fleet generation %s\n", res.OK, res.Generation)
	for _, step := range res.Steps {
		fmt.Printf("  %s staged=%s committed=%v\n", step.Replica, step.Staged, step.Committed)
	}

	// The routed answers now come from the new generation — still
	// bit-identical to the adapted library estimator.
	routed, err = rt.EstimateBatch(ctx, 0, sqls)
	check(err)
	direct, err = est.EstimateSQLBatchCtx(ctx, env, sqls)
	check(err)
	same := true
	for i := range sqls {
		same = same && routed[i] == direct[i]
	}
	fmt.Printf("post-rollout routed == adapted library (bitwise): %v\n", same)

	// 5. A rollout whose canary expectations cannot be met rolls the
	// fleet back: expecting the OLD model's outputs while shipping the
	// NEW artifact fails on the first replica whose canary disagrees.
	bad, err := rt.Rollout(ctx, router.RolloutRequest{
		ArtifactB64: base64.StdEncoding.EncodeToString(artifact.Bytes()), // the original model again
		CanaryEnv:   0,
		CanarySQLs:  sqls,
		ExpectedMs:  direct, // but demand the adapted model's answers
	})
	check(err)
	fmt.Printf("mismatched rollout ok=%v (%s); fleet stays on %s\n", bad.OK, bad.Error, res.Generation)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
