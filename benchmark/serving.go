package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"time"

	qcfe "repro"
	"repro/internal/serve"
)

// servingSpec is what distinguishes one serving workload from another.
type servingSpec struct {
	name   string
	batch  int     // 0: POST /estimate; n: POST /estimate_batch of n queries
	routed bool    // qcfe-router in front of two replicas
	sizing float64 // the most requests per second seen on this host; the warm-up stream holds twice that
	// tempLo..tempHi is the band the workload's temperature must land in:
	// the share of its queries answered from the prediction tier.
	tempLo, tempHi float64
}

var servingSpecs = map[string]servingSpec{
	wlWarmRepeat:  {name: wlWarmRepeat, sizing: 28000, tempLo: 0.999, tempHi: 1},
	wlLiteralMiss: {name: wlLiteralMiss, sizing: 1000, tempLo: 0, tempHi: 0.01},
	wlBatchMiss:   {name: wlBatchMiss, batch: 64, sizing: 600, tempLo: 0, tempHi: 0.01},
	wlZipfChurn:   {name: wlZipfChurn, sizing: 3600, tempLo: 0.60, tempHi: 0.80},
	wlRoutedMixed: {name: wlRoutedMixed, batch: 32, routed: true, sizing: 800, tempLo: 0.45, tempHi: 0.55},
}

const (
	warmSetSize   = 256   // warm_repeat's primed set
	zipfSetSize   = 16384 // zipf_churn's distinct queries: 4x the prediction tier
	zipfPrimed    = 16384 // zipf_churn primes with this many draws of its own stream
	zipfS         = 1.01
	routedWarmSet = 512 // routed_mixed's primed set
	setUps        = 5   // set-ups per run; setup_s is their median
	warmUp        = 3 * time.Second
	windowSlices  = 5
	oracleSample  = 256
	// routedPort is the first replica's port; the second takes the next.
	// The router's ring hashes the replica URLs, and FNV-1a spreads
	// near-identical URLs so unevenly that the busier replica's share of
	// the templates ranges from 0.5 to nearly 1 with the port numbers.
	// Fixed ports make the split, 12 templates to 10, repeat; a run that
	// cannot have them stops, because it would measure another workload.
	routedPort = 18171
)

func (s servingSpec) path() string {
	if s.batch > 0 {
		return "/estimate_batch"
	}
	return "/estimate"
}

// inputs is a workload's request source. prime is replayed against every
// freshly started fleet; next returns the following n requests of the
// stream, deterministically for the seed.
type inputs struct {
	prime []request
	next  func(n int) ([]request, error)
}

// newInputs builds the request source of a serving workload.
func newInputs(spec servingSpec, g *generator, envs []int, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x10adc0de))
	in := &inputs{}
	// templatePrimer makes every (environment, template) pair a
	// template-tier hit: the state literal-variant traffic runs in.
	templatePrimer := func() {
		sqls := g.perTemplate()
		for _, e := range envs {
			in.prime = append(in.prime, batchRequest(e, sqls))
		}
	}
	switch spec.name {
	case wlWarmRepeat:
		set, err := g.unique(warmSetSize)
		if err != nil {
			return nil, err
		}
		in.prime = batches(envs, set, 64)
		reqs := singles(envs, set)
		in.next = func(n int) ([]request, error) {
			out := make([]request, n)
			for i := range out {
				out[i] = reqs[rng.Intn(len(reqs))]
			}
			return out, nil
		}
	case wlLiteralMiss:
		templatePrimer()
		in.next = func(n int) ([]request, error) {
			sqls, err := g.unique(n)
			return singles(envs, sqls), err
		}
	case wlBatchMiss:
		templatePrimer()
		in.next = func(n int) ([]request, error) {
			sqls, err := g.unique(n * spec.batch)
			return batches(envs, sqls, spec.batch), err
		}
	case wlZipfChurn:
		set, err := g.unique(zipfSetSize)
		if err != nil {
			return nil, err
		}
		// Index is Zipf rank. Priming is a stretch of the stream itself, long
		// enough to fill the prediction tier, so the run starts near the mix
		// of hot and recently missed entries it will hold, not at the all-hot
		// state it would then spend the window decaying from.
		reqs := singles(envs, set)
		zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(reqs)-1))
		pending := map[int][]string{}
		for k := 0; k < zipfPrimed; k++ {
			r := reqs[zipf.Uint64()]
			pending[r.env] = append(pending[r.env], r.sqls[0])
			if len(pending[r.env]) == 64 {
				in.prime = append(in.prime, batchRequest(r.env, pending[r.env]))
				pending[r.env] = nil
			}
		}
		in.next = func(n int) ([]request, error) {
			out := make([]request, n)
			for i := range out {
				out[i] = reqs[zipf.Uint64()]
			}
			return out, nil
		}
	case wlRoutedMixed:
		templatePrimer()
		warm, err := g.unique(routedWarmSet)
		if err != nil {
			return nil, err
		}
		in.prime = append(in.prime, batches(envs, warm, 64)...)
		warmBy := map[int][]string{}
		for i, sql := range warm {
			e := envOf(envs, i)
			warmBy[e] = append(warmBy[e], sql)
		}
		half := spec.batch / 2
		in.next = func(n int) ([]request, error) {
			fresh, err := g.unique(n * half)
			if err != nil {
				return nil, err
			}
			out := make([]request, n)
			for b := range out {
				e := envs[b%len(envs)]
				sqls := append([]string(nil), fresh[b*half:(b+1)*half]...)
				for _, k := range rng.Perm(len(warmBy[e]))[:half] {
					sqls = append(sqls, warmBy[e][k])
				}
				rng.Shuffle(len(sqls), func(i, j int) { sqls[i], sqls[j] = sqls[j], sqls[i] })
				out[b] = batchRequest(e, sqls)
			}
			return out, nil
		}
	default:
		return nil, fmt.Errorf("no serving workload %q", spec.name)
	}
	return in, nil
}

// fleet is the running daemons of one set-up: front takes the load.
type fleet struct {
	front   *daemon
	daemons []*daemon
}

func (f *fleet) stop() {
	for i := len(f.daemons) - 1; i >= 0; i-- {
		f.daemons[i].stop()
	}
	started.forget(f.daemons...)
}

// setUp starts the workload's daemons with default flags, waits for
// /healthz and primes them; it returns the fleet and how long that took.
func setUp(ctx context.Context, p paths, spec servingSpec, m *model, prime []request, hc *http.Client) (*fleet, float64, error) {
	t0 := time.Now()
	f := &fleet{}
	fail := func(err error) (*fleet, float64, error) {
		f.stop()
		return nil, 0, err
	}
	replicas, port := 1, 0
	if spec.routed {
		replicas, port = 2, routedPort
	}
	var urls []string
	for i := 0; i < replicas; i++ {
		d, err := p.startDaemon(spec.name, fmt.Sprintf("serve%d", i), "qcfe-serve", port, "-artifact", m.path)
		if port != 0 {
			port++
		}
		if err != nil {
			return fail(err)
		}
		f.daemons = append(f.daemons, d)
		urls = append(urls, d.url)
	}
	f.front = f.daemons[0]
	for _, d := range f.daemons {
		if err := d.waitHealthy(ctx, hc); err != nil {
			return fail(err)
		}
	}
	if spec.routed {
		d, err := p.startDaemon(spec.name, "router", "qcfe-router", 0, "-replicas", strings.Join(urls, ","))
		if err != nil {
			return fail(err)
		}
		f.daemons = append(f.daemons, d)
		f.front = d
		if err := d.waitHealthy(ctx, hc); err != nil {
			return fail(err)
		}
	}
	for i := range prime {
		if _, err := post(hc, f.front.url+"/estimate_batch", prime[i].body); err != nil {
			return fail(fmt.Errorf("priming: %w", err))
		}
	}
	return f, time.Since(t0).Seconds(), nil
}

// post sends one body and returns the reply of a 200.
func post(hc *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", url, resp.Status, raw)
	}
	return raw, nil
}

// tier is one cache tier's counters, summed over the fleet.
type tier struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

func (t tier) sub(o tier) tier {
	return tier{t.Hits - o.Hits, t.Misses - o.Misses, t.Evictions - o.Evictions}
}

func (t tier) hitRatio() float64 { return ratio(t.Hits, t.Hits+t.Misses) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// statsReply is what the harness reads of GET /stats, from qcfe-serve and
// from qcfe-router alike. A lone qcfe-serve reports its serving counters
// inline; the router reports its replicas' sum under "fleet" and its own
// routing counters beside it.
type statsReply struct {
	serve.Stats
	Fleet *serve.Stats `json:"fleet"`
	Cache struct {
		Template   tier `json:"template"`
		Feature    tier `json:"feature"`
		Prediction tier `json:"prediction"`
	} `json:"cache"`
	Fanouts      int64 `json:"fanouts"`
	Retries      int64 `json:"retries"`
	RouteHash    tier  `json:"routehash"`
	ReplicaStats []struct {
		Requests int64 `json:"requests"`
	} `json:"replica_stats"`
}

// snapshot is the fleet's counters at one instant.
type snapshot struct {
	statsReply
	cpu float64 // utime+stime over all daemons, seconds
}

func (f *fleet) snapshot(hc *http.Client) (snapshot, error) {
	var s snapshot
	for _, d := range f.daemons {
		c, err := cpuSeconds(d.cmd.Process.Pid)
		if err != nil {
			return s, err
		}
		s.cpu += c
	}
	if err := getJSON(hc, f.front.url+"/stats", &s.statsReply); err != nil {
		return s, err
	}
	if s.Fleet != nil {
		s.Stats = *s.Fleet
	}
	return s, nil
}

// runServing runs one serving workload end to end and, when cfg.trace is
// set, the traced in-process replay after a shortened window.
func runServing(ctx context.Context, cfg config, spec servingSpec) (*result, error) {
	res := newResult(spec.name, cfg.seed)
	m, err := cfg.paths.loadModel(ctx)
	if err != nil {
		return nil, err
	}
	oracle, err := m.estimator()
	if err != nil {
		return nil, err
	}
	g, err := newGenerator(oracle.Benchmark().Dataset(), cfg.seed)
	if err != nil {
		return nil, err
	}
	in, err := newInputs(spec, g, envIDs(oracle), cfg.seed)
	if err != nil {
		return nil, err
	}
	window, warm := cfg.seconds, warmUp
	if cfg.trace {
		window, warm = cfg.seconds/3, warmUp/3
	}

	// Set-up, several times over; the last fleet stays for the run.
	admin := newClient()
	defer admin.CloseIdleConnections()
	var fl *fleet
	var setupS []float64
	for i := 0; i < setUps; i++ {
		if fl != nil {
			admin.CloseIdleConnections()
			fl.stop()
		}
		var s float64
		if fl, s, err = setUp(ctx, cfg.paths, spec, m, in.prime, admin); err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
	}
	defer fl.stop()

	conns := make([]*conn, clients)
	for i := range conns {
		if conns[i], err = dial(fl.front.url + spec.path()); err != nil {
			return nil, err
		}
		defer conns[i].c.Close()
	}

	// Warm-up: untimed, and its rate sizes the timed window's stream, which
	// is generated before the clock starts. The window has run up to 1.48
	// times as fast as the warm-up before it (of 240 runs), so the stream
	// holds 2.5 times what the warm-up's rate asks for.
	reqs, err := in.next(int(spec.sizing*warm.Seconds()*2) + clients)
	if err != nil {
		return nil, err
	}
	wu := drive(ctx, conns, reqs, warm)
	res.phase("warm-up", wu.counts())
	rate := float64(len(wu.samples)) / wu.wall.Seconds()
	if reqs, err = in.next(int(rate*window.Seconds()*2.5) + 64*clients); err != nil {
		return nil, err
	}
	logf("%s: query mix%s", spec.name, g.mixLine())

	before, err := fl.snapshot(admin)
	if err != nil {
		return nil, err
	}
	selfBefore := selfCPUSeconds()
	run := drive(ctx, conns, reqs, window)
	selfCPU := selfCPUSeconds() - selfBefore
	after, err := fl.snapshot(admin)
	if err != nil {
		return nil, err
	}
	rss := 0.0
	for _, d := range fl.daemons {
		v, err := peakRSSMiB(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rss += v
	}
	c := run.counts()
	res.phase("timed", c)
	res.attempted, res.failed = c.attempted, c.failed
	res.require(!run.exhausted, "the request stream ran dry before the window closed (%d requests)", len(reqs))
	if c.ok == 0 {
		res.require(false, "no request succeeded") // and no rate or ratio below has a denominator
		return res, nil
	}
	checkReplies(res, spec, run, oracle, cfg.seed)

	// Temperature: the prediction tier's hits over its lookups. (A queued
	// /estimate miss looks up twice, once before the queue and once in the
	// flush, so zipf_churn's band sits below its share of warm requests.)
	pred := after.Cache.Prediction.sub(before.Cache.Prediction)
	temp := pred.hitRatio()
	res.require(temp >= spec.tempLo && temp <= spec.tempHi,
		"temperature %.4f outside [%g, %g]: the workload did not exercise what it claims", temp, spec.tempLo, spec.tempHi)

	priced := float64(run.queries())
	lats := run.latencies()
	rates := run.sliceRates(windowSlices, window)
	lo, hi := slices.Min(rates), slices.Max(rates)
	daemonCPU := after.cpu - before.cpu
	res.e2e = map[string]float64{
		"queries_per_s":           median(rates),
		"lat_p50_us":              us(quantile(lats, 0.5)),
		"server_cpu_us_per_query": daemonCPU * 1e6 / priced,
		"server_rss_mb":           rss,
		"setup_s":                 median(setupS),
		"qerror_median":           m.qerror.Median,
		"qerror_p90":              m.qerror.P90,
	}
	requests, flushes := after.Requests-before.Requests, after.Flushes-before.Flushes
	res.layer = map[string]float64{
		"serve.mean_batch":                   ratio(requests-(after.CacheHits-before.CacheHits), flushes),
		"serve.flushes_per_kq":               float64(flushes) * 1000 / priced,
		"serve.coalesced_ratio":              ratio(after.Coalesced-before.Coalesced, requests),
		"serve.errors":                       float64(after.Errors - before.Errors),
		"qcache.prediction_hit_ratio":        temp,
		"qcache.feature_hit_ratio":           after.Cache.Feature.sub(before.Cache.Feature).hitRatio(),
		"qcache.template_hit_ratio":          after.Cache.Template.sub(before.Cache.Template).hitRatio(),
		"qcache.prediction_evictions_per_kq": float64(pred.Evictions) * 1000 / priced,
		"loadgen.lat_p90_us":                 us(quantile(lats, 0.9)),
		"loadgen.lat_p99_us":                 us(quantile(lats, 0.99)),
		"loadgen.lat_p999_us":                us(quantile(lats, 0.999)),
		"loadgen.samples":                    float64(len(lats)),
		"loadgen.attempted":                  float64(c.attempted),
		"loadgen.ok":                         float64(c.ok),
		"loadgen.cpu_share":                  selfCPU / (selfCPU + daemonCPU),
		"loadgen.slice_rate_spread":          (hi - lo) / median(rates),
	}
	if spec.routed {
		var sum, top int64
		for i := range after.ReplicaStats {
			n := after.ReplicaStats[i].Requests - before.ReplicaStats[i].Requests
			sum, top = sum+n, max(top, n)
		}
		res.layer["router.routehash_hit_ratio"] = after.RouteHash.sub(before.RouteHash).hitRatio()
		res.layer["router.fanouts_per_batch"] = ratio(after.Fanouts-before.Fanouts, int64(c.ok))
		res.layer["router.retries"] = float64(after.Retries - before.Retries)
		res.layer["router.replica_max_share"] = ratio(top, sum)
	}
	logf("%s: temperature %.4f, %d samples, slices %.0f q/s, loadgen cpu share %.2f",
		spec.name, temp, len(lats), rates, res.layer["loadgen.cpu_share"])

	if cfg.trace {
		if err := traceServing(ctx, cfg, spec, m, in, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkReplies is the correctness oracle of a serving window: every ok
// reply must parse to one value per query, and a seeded sample of the sent
// queries, re-priced in process, must be bit-identical to the daemon's
// answers. Each offending request counts as failed.
func checkReplies(res *result, spec servingSpec, run phase, oracle *qcfe.CostEstimator, seed int64) {
	var okIdx []int
	for i, s := range run.samples {
		if !s.ok {
			continue
		}
		if ms, err := decodeReply(spec.batch > 0, s.reply); err != nil || len(ms) != len(s.req.sqls) {
			res.fail("reply to %q does not parse: %v", s.req.sqls[0], err)
			continue
		}
		okIdx = append(okIdx, i)
	}
	pick := rand.New(rand.NewSource(seed ^ 0x0fac1e))
	pick.Shuffle(len(okIdx), func(i, j int) { okIdx[i], okIdx[j] = okIdx[j], okIdx[i] })
	for checked := 0; checked < oracleSample && len(okIdx) > 0; okIdx = okIdx[1:] {
		s := run.samples[okIdx[0]]
		got, _ := decodeReply(spec.batch > 0, s.reply)
		want, err := oracle.EstimateSQLBatch(envByID(oracle.Environments(), s.req.env), s.req.sqls)
		if err != nil || !agree(want, got) {
			res.fail("daemon and in-process estimator disagree on %q (%v)", s.req.sqls[0], err)
		}
		checked += len(s.req.sqls)
	}
}
