package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"time"

	qcfe "repro"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/qcache"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/sqlparse"
	"repro/internal/tenant"
)

// The traced run peels a request like an onion, from outside. Program
// code has no spans of its own, so the same input is replayed at five
// depths, each against its own freshly primed in-process stack, so that
// it meets the same cache temperature at every depth:
//
//  1. a loopback socket to an http.Server around serve.Server.Handler()
//  2. Handler().ServeHTTP on a recorder
//  3. serve.Server.Estimate / EstimateBatch
//  4. CostEstimator.EstimateSQL, or FeaturizeSQLBatchCtx then PredictFeaturized
//  5. the leaves, called one by one the way EstimateSQL chains them
//
// A layer's self time is its depth's p50 minus the next depth's.

// traceInputs caps the replay: requests of a single-query workload,
// batches of a batch workload (at least 8192 queries either way).
func traceInputs(spec servingSpec) int {
	if spec.batch > 0 {
		return 256
	}
	return 2000
}

// stack is one in-process serving stack with default options, the same
// ones the daemon's default flags select.
type stack struct {
	est *qcfe.CostEstimator
	srv *serve.Server
	h   http.Handler
}

func newStack(ctx context.Context, m *model, prime []request) (*stack, error) {
	est, err := m.estimator()
	if err != nil {
		return nil, err
	}
	est.AttachCache(qcfe.NewQueryCache(qcfe.CacheOptions{}))
	s := &stack{est: est, srv: serve.New(est, serve.Options{})}
	s.h = s.srv.Handler()
	go s.srv.Run(ctx)
	for _, r := range prime {
		if _, err := s.srv.EstimateBatch(ctx, r.env, r.sqls); err != nil {
			return nil, fmt.Errorf("prime in-process stack: %w", err)
		}
	}
	return s, nil
}

// leaves is depth 5: featurizer and model straight from core.LoadArtifact
// and a query cache of its own.
type leaves struct {
	art   *core.Artifact
	cache *qcache.QueryCache
	gen   uint64
}

func newLeaves(m *model) (*leaves, error) {
	art, err := core.LoadArtifact(bytes.NewReader(m.artifact))
	if err != nil {
		return nil, err
	}
	l := &leaves{art: art, cache: qcache.New(qcache.Options{}), gen: 1}
	l.cache.SetGeneration(l.gen)
	return l, nil
}

// front runs the leaf calls of the cache-aware front half for one query:
// probe, fingerprint, feature and template lookups, bind, plan, featurize
// and the stores. It returns the cached prediction on a hit, the
// featurized plan otherwise.
func (l *leaves) front(t *tracer, trace, parent int64, env *qcfe.Environment, sql string) (ms float64, hit bool, fp *encoding.FeaturizedPlan, err error) {
	id := t.begin(trace, parent, "qcache", "get_prediction_miss")
	ms, hit = l.cache.GetPrediction(qcache.PredictionKey(env.ID, sql), l.gen)
	t.end(id)
	if hit {
		t.spans[id-1].Name = "get_prediction_hit"
		return ms, true, nil, nil
	}

	id = t.begin(trace, parent, "sqlparse", "fingerprint")
	fpr, lits, err := sqlparse.Fingerprint(sql)
	t.end(id)
	if err != nil {
		return 0, false, nil, err
	}

	id = t.begin(trace, parent, "qcache", "get_features")
	fkey := qcache.FeatureKey(env.ID, fpr, sqlparse.Signature(lits))
	fp, ok := l.cache.GetFeatures(fkey, l.gen)
	t.end(id)
	if ok {
		return 0, false, fp, nil
	}

	id = t.begin(trace, parent, "qcache", "get_template")
	tkey := qcache.TemplateKey(env.ID, fpr)
	skel, ok := l.cache.GetTemplate(tkey, l.gen)
	t.end(id)

	pl := planner.New(l.art.DS.Schema, l.art.DS.Stats, env.Knobs)
	var node *planner.Node
	if ok {
		id = t.begin(trace, parent, "sqlparse", "bind")
		q := skel.Clone()
		err = q.BindLiterals(lits)
		t.end(id)
		if err != nil {
			return 0, false, nil, err
		}
		id = t.begin(trace, parent, "planner", "plan_resolved")
		node, err = pl.PlanResolved(q)
		t.end(id)
		if err != nil {
			return 0, false, nil, err
		}
	} else {
		id = t.begin(trace, parent, "sqlparse", "parse")
		q, err := sqlparse.Parse(sql)
		t.end(id)
		if err != nil {
			return 0, false, nil, err
		}
		id = t.begin(trace, parent, "planner", "plan_cold")
		node, err = pl.Plan(q)
		t.end(id)
		if err != nil {
			return 0, false, nil, err
		}
		id = t.begin(trace, parent, "qcache", "put_template")
		l.cache.PutTemplate(tkey, l.gen, q.Clone())
		t.end(id)
	}
	node.Walk(func(n *planner.Node) { n.EnvID = env.ID })

	id = t.begin(trace, parent, "encoding", "featurize")
	fp = l.art.Res.F.Featurize(node)
	t.end(id)
	id = t.begin(trace, parent, "qcache", "put_features")
	l.cache.PutFeatures(fkey, l.gen, fp)
	t.end(id)
	return 0, false, fp, nil
}

// estimate is the whole leaf chain for one query, as EstimateSQL runs it.
func (l *leaves) estimate(t *tracer, trace, parent int64, envID int, sql string) (float64, error) {
	env := envByID(l.art.Envs, envID)
	ms, hit, fp, err := l.front(t, trace, parent, env, sql)
	if err != nil || hit {
		return ms, err
	}
	id := t.begin(trace, parent, "mscn", "predict1")
	ms = l.art.Res.Model.PredictFeaturizedBatch([]*encoding.FeaturizedPlan{fp})[0]
	t.end(id)
	id = t.begin(trace, parent, "qcache", "put_prediction")
	l.cache.PutPrediction(qcache.PredictionKey(env.ID, sql), l.gen, ms)
	t.end(id)
	return ms, nil
}

// estimateBatch is the leaf chain for a batch: the front half per query,
// one batched inference, the stores.
func (l *leaves) estimateBatch(t *tracer, trace, parent int64, envID int, sqls []string) ([]float64, error) {
	env := envByID(l.art.Envs, envID)
	out := make([]float64, len(sqls))
	var miss []int
	var fps []*encoding.FeaturizedPlan
	for i, sql := range sqls {
		ms, hit, fp, err := l.front(t, trace, parent, env, sql)
		if err != nil {
			return nil, err
		}
		if hit {
			out[i] = ms
			continue
		}
		miss, fps = append(miss, i), append(fps, fp)
	}
	if len(miss) == 0 {
		return out, nil
	}
	id := t.begin(trace, parent, "mscn", fmt.Sprintf("predict%d", len(sqls)))
	ms := l.art.Res.Model.PredictFeaturizedBatch(fps)
	t.end(id)
	for k, i := range miss {
		out[i] = ms[k]
		id = t.begin(trace, parent, "qcache", "put_prediction")
		l.cache.PutPrediction(qcache.PredictionKey(env.ID, sqls[i]), l.gen, ms[k])
		t.end(id)
	}
	return out, nil
}

// agree reports whether every depth returned the same bits.
func agree(vals ...[]float64) bool {
	for _, v := range vals[1:] {
		if len(v) != len(vals[0]) {
			return false
		}
		for i := range v {
			if math.Float64bits(v[i]) != math.Float64bits(vals[0][i]) {
				return false
			}
		}
	}
	return true
}

// traceServing replays the first inputs of the workload's stream through
// the onion and turns the spans into per-layer metrics.
func traceServing(ctx context.Context, cfg config, spec servingSpec, m *model, in *inputs, res *result) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	reqs, err := in.next(traceInputs(spec))
	if err != nil {
		return err
	}
	t := newTracer(spec.name)
	budget := time.Now().Add(2 * cfg.seconds / 3)
	if spec.routed {
		err = replayRouted(ctx, t, spec, m, in.prime, reqs, budget, res)
	} else {
		err = replayServe(ctx, t, spec, m, in.prime, reqs, budget, res)
	}
	if err != nil {
		return err
	}
	res.layer["linalg.calib_fma_ns"] = calibFMA(t)
	return finishTrace(cfg, t, res)
}

// replayServe is the onion over one qcfe-serve: depths 1 to 5 plus, on
// single-query workloads, the tenant registry and the cold-path probes.
func replayServe(ctx context.Context, t *tracer, spec servingSpec, m *model, prime, reqs []request, budget time.Time, res *result) error {
	var st [4]*stack
	for i := range st {
		var err error
		if st[i], err = newStack(ctx, m, prime); err != nil {
			return err
		}
	}
	lv, err := newLeaves(m)
	if err != nil {
		return err
	}
	scratch := &tracer{epoch: time.Now()}
	for _, r := range prime {
		if _, err := lv.estimateBatch(scratch, 0, 0, r.env, r.sqls); err != nil {
			return err
		}
	}
	ts := httptest.NewServer(st[0].h)
	defer ts.Close()
	hc := newClient()
	defer hc.CloseIdleConnections()
	batch := spec.batch > 0

	// Two tenants over the same artifact; alpha is primed like the stacks.
	var reg *tenant.Registry
	if !batch {
		var cfgs []tenant.Config
		for _, name := range []string{"alpha", "beta"} {
			est, err := m.estimator()
			if err != nil {
				return err
			}
			cfgs = append(cfgs, tenant.Config{Name: name, Est: est})
		}
		if reg, err = tenant.New(tenant.Options{Cache: &qcfe.CacheOptions{}}, cfgs); err != nil {
			return err
		}
		go reg.Run(ctx)
		for _, r := range prime {
			if _, _, err := reg.EstimateBatch(ctx, "alpha", r.env, r.sqls); err != nil {
				return err
			}
		}
	}

	nodes, plans := 0, 0
	for i := range reqs {
		if time.Now().After(budget) {
			break
		}
		r := &reqs[i]
		trace := int64(i + 1)
		root := t.begin(trace, 0, "loadgen", "replay")

		id := t.begin(trace, root, "serve", "http_socket")
		raw, err := post(hc, ts.URL+spec.path(), r.body)
		t.end(id)
		if err != nil {
			return err
		}
		v1, err := decodeReply(batch, raw)
		if err != nil {
			return err
		}

		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, spec.path(), bytes.NewReader(r.body))
		id = t.begin(trace, root, "serve", "http_handler")
		st[1].h.ServeHTTP(rec, hreq)
		t.end(id)
		v2, err := decodeReply(batch, rec.Body.Bytes())
		if err != nil {
			return fmt.Errorf("depth 2: %v: %s", err, rec.Body.Bytes())
		}

		var v3, v4, v5 []float64
		vt := v1 // the tenant registry's answer, where it is asked
		if batch {
			id = t.begin(trace, root, "serve", "estimate_batch")
			v3, err = st[2].srv.EstimateBatch(ctx, r.env, r.sqls)
			t.end(id)
			if err != nil {
				return err
			}
			env := envByID(st[3].est.Environments(), r.env)
			d4 := t.begin(trace, root, "qcfe", "estimate_sql_batch")
			id = t.begin(trace, d4, "qcfe", "featurize_batch")
			fb, err := st[3].est.FeaturizeSQLBatchCtx(ctx, env, r.sqls)
			t.end(id)
			if err != nil {
				return err
			}
			id = t.begin(trace, d4, "qcfe", "predict_featurized")
			v4 = st[3].est.PredictFeaturized(fb)
			t.end(id)
			t.end(d4)
			id = t.begin(trace, root, "qcfe", "leaf_chain")
			v5, err = lv.estimateBatch(t, trace, id, r.env, r.sqls)
			t.end(id)
			if err != nil {
				return err
			}
		} else {
			sql := r.sqls[0]
			id = t.begin(trace, root, "serve", "estimate")
			a, err := st[2].srv.Estimate(ctx, r.env, sql)
			t.end(id)
			if err != nil {
				return err
			}
			id = t.begin(trace, root, "qcfe", "estimate_sql")
			b, err := st[3].est.EstimateSQL(envByID(st[3].est.Environments(), r.env), sql)
			t.end(id)
			if err != nil {
				return err
			}
			id = t.begin(trace, root, "qcfe", "leaf_chain")
			c, err := lv.estimate(t, trace, id, r.env, sql)
			t.end(id)
			if err != nil {
				return err
			}
			id = t.begin(trace, root, "tenant", "estimate")
			d, _, err := reg.Estimate(ctx, "alpha", r.env, sql)
			t.end(id)
			if err != nil {
				return err
			}
			v3, v4, v5 = []float64{a}, []float64{b}, []float64{c}
			vt = []float64{d}

			// Cold-path probes: what the first sight of a template costs.
			id = t.begin(trace, root, "sqlparse", "parse_resolve")
			q, err := sqlparse.Parse(sql)
			if err == nil {
				err = q.Resolve(lv.art.DS.Schema)
			}
			t.end(id)
			if err != nil {
				return err
			}
			q2, _ := sqlparse.Parse(sql)
			id = t.begin(trace, root, "planner", "plan")
			node, err := planner.New(lv.art.DS.Schema, lv.art.DS.Stats, envByID(lv.art.Envs, r.env).Knobs).Plan(q2)
			t.end(id)
			if err != nil {
				return err
			}
			nodes, plans = nodes+node.CountNodes(), plans+1
		}
		t.end(root)
		res.check(agree(v1, v2, v3, v4, v5, vt), "the onion's depths disagree on %q", r.sqls[0])
	}

	// The onion, read off.
	d1, d2 := t.stat("serve", "http_socket").p50, t.stat("serve", "http_handler").p50
	e2e := res.e2e["lat_p50_us"] * 1e3
	switch spec.name {
	case wlWarmRepeat:
		d3, d4 := t.stat("serve", "estimate").p50, t.stat("qcfe", "estimate_sql").p50
		tn := t.stat("tenant", "estimate").p50
		put(res.layer, map[string]float64{
			"serve.http_roundtrip_warm_ns": d1,
			"serve.http_handler_warm_ns":   d2,
			"serve.http_socket_self_ns":    d1 - d2,
			"serve.http_self_ns":           d2 - d3,
			"serve.estimate_warm_ns":       d3,
			"qcfe.estimate_sql_warm_ns":    d4,
			"qcache.get_prediction_hit_ns": t.stat("qcache", "get_prediction_hit").p50,
			"tenant.estimate_warm_ns":      tn,
			"tenant.self_warm_ns":          tn - d3,
			"obs.histogram_record_ns":      probeHistogram(t),
			"obs.metrics_render_us":        probeMetrics(t, st[1].h),
		})
	case wlLiteralMiss:
		d3, d4 := t.stat("serve", "estimate").p50, t.stat("qcfe", "estimate_sql").p50
		leaf := map[string]float64{
			"qcache.get_prediction_miss_ns": t.stat("qcache", "get_prediction_miss").p50,
			"sqlparse.fingerprint_ns":       t.stat("sqlparse", "fingerprint").p50,
			"qcache.get_features_ns":        t.stat("qcache", "get_features").p50,
			"qcache.get_template_ns":        t.stat("qcache", "get_template").p50,
			"sqlparse.bind_ns":              t.stat("sqlparse", "bind").p50,
			"planner.plan_resolved_ns":      t.stat("planner", "plan_resolved").p50,
			"encoding.featurize_ns":         t.stat("encoding", "featurize").p50,
			"qcache.put_features_ns":        t.stat("qcache", "put_features").p50,
			"mscn.predict1_ns":              t.stat("mscn", "predict1").p50,
			"qcache.put_prediction_ns":      t.stat("qcache", "put_prediction").p50,
		}
		sum := 0.0
		for _, v := range leaf {
			sum += v
		}
		put(res.layer, leaf)
		put(res.layer, map[string]float64{
			"serve.estimate_miss_ns":       d3,
			"serve.queue_wait_ns":          d3 - d4,
			"qcfe.estimate_sql_miss_ns":    d4,
			"qcfe.miss_unattributed_share": (d4 - sum) / d4,
			"tenant.estimate_miss_ns":      t.stat("tenant", "estimate").p50,
			"sqlparse.parse_resolve_ns":    t.stat("sqlparse", "parse_resolve").p50,
			"planner.plan_ns":              t.stat("planner", "plan").p50,
			"planner.nodes_per_plan":       float64(nodes) / float64(max(plans, 1)),
		})
	case wlBatchMiss:
		n := float64(spec.batch)
		d3 := t.stat("serve", "estimate_batch").p50
		put(res.layer, map[string]float64{
			"serve.http_batch64_self_ns_per_q":   (d2 - d3) / n,
			"serve.estimate_batch64_ns_per_q":    d3 / n,
			"qcfe.featurize_batch64_ns_per_q":    t.stat("qcfe", "featurize_batch").p50 / n,
			"qcfe.predict_featurized64_ns_per_q": t.stat("qcfe", "predict_featurized").p50 / n,
			"mscn.predict64_ns_per_plan":         t.stat("mscn", "predict64").p50 / n,
			"encoding.feature_dim_raw":           float64(lv.art.Res.F.RawDim()),
			"encoding.feature_dim_kept":          float64(lv.art.Res.F.Dim()),
		})
	}
	if !batch && e2e > 0 {
		res.layer["trace.roundtrip_vs_e2e_ratio"] = d1 / e2e
	}
	return nil
}

// replayRouted is the onion over the router: a loopback socket to the
// router's handler, the handler on a recorder, Router.EstimateBatch, and
// the same batch sent straight to a single replica. Each depth has its own
// fleet of two in-process replicas behind real loopback sockets.
func replayRouted(ctx context.Context, t *tracer, spec servingSpec, m *model, prime, reqs []request, budget time.Time, res *result) error {
	var servers []*httptest.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	listen := func(h http.Handler) string {
		servers = append(servers, httptest.NewServer(h))
		return servers[len(servers)-1].URL
	}
	newFleet := func() (*router.Router, error) {
		var urls []string
		for i := 0; i < 2; i++ {
			s, err := newStack(ctx, m, nil)
			if err != nil {
				return nil, err
			}
			urls = append(urls, listen(s.h))
		}
		rt, err := router.New(urls, router.Options{})
		if err != nil {
			return nil, err
		}
		for _, r := range prime {
			if _, err := rt.EstimateBatch(ctx, r.env, r.sqls); err != nil {
				return nil, err
			}
		}
		return rt, nil
	}
	var rts [3]*router.Router
	for i := range rts {
		var err error
		if rts[i], err = newFleet(); err != nil {
			return err
		}
	}
	lone, err := newStack(ctx, m, prime)
	if err != nil {
		return err
	}
	direct := &serve.Client{BaseURL: listen(lone.h)}
	front := listen(rts[0].Handler())
	h := rts[1].Handler()
	hc := newClient()
	defer hc.CloseIdleConnections()

	for i := range reqs {
		if time.Now().After(budget) {
			break
		}
		r := &reqs[i]
		trace := int64(i + 1)
		root := t.begin(trace, 0, "loadgen", "replay")

		id := t.begin(trace, root, "router", "http_socket")
		raw, err := post(hc, front+spec.path(), r.body)
		t.end(id)
		if err != nil {
			return err
		}
		v1, err := decodeReply(true, raw)
		if err != nil {
			return err
		}

		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, spec.path(), bytes.NewReader(r.body))
		id = t.begin(trace, root, "router", "http_handler")
		h.ServeHTTP(rec, hreq)
		t.end(id)
		v2, err := decodeReply(true, rec.Body.Bytes())
		if err != nil {
			return fmt.Errorf("depth 2: %v: %s", err, rec.Body.Bytes())
		}

		id = t.begin(trace, root, "router", "estimate_batch")
		v3, err := rts[2].EstimateBatch(ctx, r.env, r.sqls)
		t.end(id)
		if err != nil {
			return err
		}

		id = t.begin(trace, root, "serve", "client_estimate_batch")
		v4, err := direct.EstimateBatch(ctx, r.env, r.sqls)
		t.end(id)
		if err != nil {
			return err
		}

		for _, sql := range r.sqls {
			id = t.begin(trace, root, "sqlparse", "routing_hash")
			sqlparse.RoutingHash(sql)
			t.end(id)
		}
		t.end(root)
		res.check(agree(v1, v2, v3, v4), "the routed onion's depths disagree on %q", r.sqls[0])
	}
	n := float64(spec.batch)
	d3 := t.stat("router", "estimate_batch").p50
	put(res.layer, map[string]float64{
		"router.estimate_batch32_ns_per_q": d3 / n,
		"router.self_ns_per_q":             (d3 - t.stat("serve", "client_estimate_batch").p50) / n,
		"sqlparse.routing_hash_ns":         t.stat("sqlparse", "routing_hash").p50,
	})
	return nil
}

func put(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

var sink float64

// calibFMA times a dependent multiply-add chain: a machine-speed proxy to
// read the other numbers against. It returns ns per step.
func calibFMA(t *tracer) float64 {
	const steps = 1 << 16
	for i := 0; i < 100; i++ {
		id := t.begin(int64(-1-i), 0, "linalg", "calib_fma")
		s := 1.0
		for j := 0; j < steps; j++ {
			s = s*0.999 + 0.25
		}
		t.end(id)
		sink = s
	}
	return t.stat("linalg", "calib_fma").p50 / steps
}

// probeHistogram times obs.Histogram.Record, 1000 calls to a span.
func probeHistogram(t *tracer) float64 {
	h := obs.NewHistogram()
	durs := [...]time.Duration{1_000, 17_000, 250_000, 3_100_000, 42_000_000}
	for i := 0; i < 200; i++ {
		id := t.begin(int64(-1000-i), 0, "obs", "histogram_record_x1000")
		for j := 0; j < 1000; j++ {
			h.Record(durs[j%len(durs)])
		}
		t.end(id)
	}
	return t.stat("obs", "histogram_record_x1000").p50 / 1000
}

// probeMetrics times GET /metrics on a recorder; it returns microseconds.
func probeMetrics(t *tracer, h http.Handler) float64 {
	for i := 0; i < 50; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		id := t.begin(int64(-2000-i), 0, "obs", "metrics_render")
		h.ServeHTTP(rec, req)
		t.end(id)
	}
	return t.stat("obs", "metrics_render").p50 / 1e3
}

// finishTrace checks the span forest, writes it to
// benchmark/out/trace-<workload>.json and logs every call site's count,
// p50 and p90.
func finishTrace(cfg config, t *tracer, res *result) error {
	if err := checkForest(t.spans); err != nil {
		res.invalid = append(res.invalid, "trace: "+err.Error())
	}
	path := filepath.Join(cfg.paths.out, "trace-"+t.workload+".json")
	if err := t.write(path); err != nil {
		return err
	}
	type site struct{ layer, name string }
	seen := map[site]bool{}
	var sites []site
	for i := range t.spans {
		s := site{t.spans[i].Layer, t.spans[i].Name}
		if !seen[s] {
			seen[s] = true
			sites = append(sites, s)
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].layer != sites[j].layer {
			return sites[i].layer < sites[j].layer
		}
		return sites[i].name < sites[j].name
	})
	logf("%s: %d spans in %s (span overhead %dns, removed below)", t.workload, len(t.spans), path, t.overhead.Nanoseconds())
	for _, s := range sites {
		st := t.stat(s.layer, s.name)
		logf("  span %-10s %-24s calls=%-7d p50=%.0fns p90=%.0fns", s.layer, s.name, st.calls, st.p50, st.p90)
	}
	return nil
}
