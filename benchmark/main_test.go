package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	qcfe "repro"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is BENCHMARK.json's run_seconds: the window the driver asks
// for. 136 runs and two builds must fit in 3420 s.
const runSeconds = 12

func wantBenchmarkFile() benchmarkFile {
	f := benchmarkFile{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		b := m.Bound
		f.EndToEnd = append(f.EndToEnd, benchmarkMetric{m.Name, m.Unit, m.Better, &b})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, benchmarkMetric{m.Name, m.Unit, m.Better, nil})
	}
	return f
}

// TestBenchmarkJSON keeps BENCHMARK.json and spec.go in step and inside
// the driver's limits. QCFE_UPDATE_GOLDEN=1 rewrites the file from spec.go.
func TestBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want, err := json.MarshalIndent(wantBenchmarkFile(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if os.Getenv("QCFE_UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is out of step with spec.go; run QCFE_UPDATE_GOLDEN=1 go test -run TestBenchmarkJSON")
	}

	var f benchmarkFile
	if err := json.Unmarshal(got, &f); err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRe.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range f.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range f.EndToEnd {
		name(m.Name)
		if !unitRe.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup || len(f.EndToEnd) > 16 {
		t.Errorf("end_to_end needs setup_s and at most 16 metrics")
	}
	if len(f.PerLayer) < 1 || len(f.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(f.PerLayer))
	}
	for _, m := range f.PerLayer {
		name(m.Name)
		if !unitRe.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(got) > 64<<10 {
		t.Errorf("run_seconds %d, %d bytes", f.RunSeconds, len(got))
	}
}

// fullResult is a result carrying every metric its workload produces.
func fullResult(workload string) *result {
	r := newResult(workload, 1)
	for _, m := range endToEnd {
		r.e2e[m.Name] = 1.5
	}
	for _, m := range perLayer {
		if slices.Contains(m.On, workload) {
			r.layer[m.Name] = 2.5
		}
	}
	return r
}

// TestReportCarriesEveryMetric: the printed report and the driver's JSON
// line name every workload and metric of BENCHMARK.json, each with its
// unit, and nothing else.
func TestReportCarriesEveryMetric(t *testing.T) {
	var all []*result
	for _, w := range workloads {
		all = append(all, fullResult(w.Name))
	}
	lineRe := regexp.MustCompile(`^  (\S+)\s+(\S+) (\S+)`)
	printed := map[string]string{} // metric -> unit
	gotWorkloads := map[string]bool{}
	for _, traced := range []bool{false, true} {
		var buf bytes.Buffer
		printReport(&buf, all, traced)
		for _, line := range strings.Split(buf.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "workload "); ok {
				gotWorkloads[strings.Fields(rest)[0]] = true
			} else if m := lineRe.FindStringSubmatch(line); m != nil {
				printed[m[1]] = m[3]
			}
		}
	}
	want := map[string]string{}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		want[m.Name] = m.Unit
		if len(m.On) == 0 {
			t.Errorf("%s: no workload produces it", m.Name)
		}
	}
	for n, u := range want {
		if printed[n] != u {
			t.Errorf("report prints %s with unit %q, want %q", n, printed[n], u)
		}
	}
	for n := range printed {
		if _, ok := want[n]; !ok {
			t.Errorf("report prints %s, which BENCHMARK.json does not name", n)
		}
	}
	if len(gotWorkloads) != len(workloads) {
		t.Errorf("report names workloads %v", gotWorkloads)
	}

	for _, traced := range []bool{false, true} {
		specs := endToEnd
		if traced {
			specs = perLayer
		}
		got := contractMetrics(all[0], traced)
		if len(got) != len(specs) {
			t.Errorf("traced=%v: %d metrics in the JSON line, want %d", traced, len(got), len(specs))
		}
		for _, m := range specs {
			if got[m.Name].Unit != m.Unit {
				t.Errorf("traced=%v: JSON line lacks %s in %s", traced, m.Name, m.Unit)
			}
		}
	}
}

// TestNonFiniteMetricInvalidatesRun: a ratio without a denominator must
// cost the run its validity, not its JSON line.
func TestNonFiniteMetricInvalidatesRun(t *testing.T) {
	r := fullResult(wlWarmRepeat)
	r.e2e["server_cpu_us_per_query"] = math.Inf(1)
	r.layer["serve.flushes_per_kq"] = math.NaN()
	r.requireComplete(false)
	if r.correct() || len(r.invalid) != 2 {
		t.Errorf("invalid reasons %q", r.invalid)
	}
	for _, traced := range []bool{false, true} {
		if _, err := json.Marshal(contractMetrics(r, traced)); err != nil {
			t.Errorf("traced=%v: %v", traced, err)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "fit", "--seed", "3", "--seconds", "12", "--trace", "1"})
	want := []string{"--workload", "fit", "--seed", "3", "--seconds", "12", "-trace=1"}
	if !slices.Equal(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
	if got := normalizeArgs([]string{"-trace", "-seed", "0"}); !slices.Equal(got, []string{"-trace", "-seed", "0"}) {
		t.Errorf("a bare -trace must stay a boolean flag: %q", got)
	}
}

var dataset = sync.OnceValue(func() *qcfe.Benchmark {
	b, err := qcfe.OpenBenchmark(fitBenchmark, fitSeed)
	if err != nil {
		panic(err)
	}
	return b
})

// streamBytes renders a workload's priming and its first n requests.
func streamBytes(t *testing.T, spec servingSpec, seed int64, n int) []byte {
	t.Helper()
	g, err := newGenerator(dataset().Dataset(), seed)
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInputs(spec, g, []int{0, 1, 2}, seed)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := in.next(n)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range append(in.prime, reqs...) {
		buf.Write(r.body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestStreamIsDeterministic: a seed fixes the request stream byte for
// byte; another seed gives another stream.
func TestStreamIsDeterministic(t *testing.T) {
	for _, w := range onServing {
		spec := servingSpecs[w]
		a, b, c := streamBytes(t, spec, 7, 100), streamBytes(t, spec, 7, 100), streamBytes(t, spec, 8, 100)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different streams", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: two seeds gave the same stream", w)
		}
	}
}

// TestFreshQueriesAreUnique: no text comes out of the generator twice,
// across calls, and small literal domains are marked rather than looped on.
func TestFreshQueriesAreUnique(t *testing.T) {
	g, err := newGenerator(dataset().Dataset(), 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for call := 0; call < 3; call++ {
		sqls, err := g.unique(5000)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range append(sqls, g.perTemplate()...) {
			if seen[s] {
				t.Fatalf("query issued twice: %s", s)
			}
			seen[s] = true
		}
	}
	if !g.exhausted[20] { // Q21 has no placeholder: one text, ever
		t.Errorf("the literal-free template was not marked exhausted")
	}
}

// TestMixDoesNotDependOnLength: a template's share of the stream is the
// same in a short stream and a long one, so that a faster daemon, which is
// sent more queries, is not sent other queries.
func TestMixDoesNotDependOnLength(t *testing.T) {
	share := func(n int) []float64 {
		g, err := newGenerator(dataset().Dataset(), 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.unique(n); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(g.counts))
		for ti, c := range g.counts {
			out[ti] = float64(c) / float64(n)
		}
		return out
	}
	short, long := share(5000), share(100000)
	for ti := range short {
		// Rounding up gives each template one query too many at most, which
		// the last template's share pays for.
		if d, tol := short[ti]-long[ti], float64(len(short))/5000; d < -tol || d > tol {
			t.Errorf("Q%d: share %.4f of 5000 queries, %.4f of 100000", ti+1, short[ti], long[ti])
		}
	}
}

func TestCheckForest(t *testing.T) {
	ok := []span{
		{TraceID: 1, SpanID: 1, StartNs: 0, EndNs: 100},
		{TraceID: 1, SpanID: 2, ParentID: 1, StartNs: 10, EndNs: 90},
		{TraceID: 1, SpanID: 3, ParentID: 2, StartNs: 10, EndNs: 20},
	}
	if err := checkForest(ok); err != nil {
		t.Errorf("well-formed forest rejected: %v", err)
	}
	orphan := append(slices.Clone(ok), span{TraceID: 1, SpanID: 4, ParentID: 9})
	outside := append(slices.Clone(ok), span{TraceID: 1, SpanID: 4, ParentID: 2, StartNs: 5, EndNs: 20})
	for name, bad := range map[string][]span{"missing parent": orphan, "child outside parent": outside} {
		if checkForest(bad) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// quickModel trains a small plain mscn model: enough to serve and trace,
// in about a second.
func quickModel(t *testing.T) *model {
	t.Helper()
	b := dataset()
	envs := qcfe.RandomEnvironments(3, fitSeed)
	pool, err := b.CollectWorkload(envs, 22, fitSeed)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := pool.Split(fitTrainFrac)
	est, err := qcfe.NewPipeline("mscn", qcfe.WithoutSnapshot(), qcfe.WithReduction("none"), qcfe.WithTrainIters(20)).Fit(b, envs, train)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return &model{artifact: buf.Bytes()}
}

// TestOnion replays a few inputs of a warm and a miss workload through
// the onion. The spans must form a forest, the depths must agree on every
// answer, each depth must cost at least what the one below it costs, and
// every metric the replay reports must be one BENCHMARK.json names.
func TestOnion(t *testing.T) {
	m := quickModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	known := map[string]bool{}
	for _, s := range perLayer {
		known[s.Name] = true
	}
	for _, w := range []string{wlWarmRepeat, wlLiteralMiss, wlBatchMiss} {
		spec := servingSpecs[w]
		g, err := newGenerator(dataset().Dataset(), 5)
		if err != nil {
			t.Fatal(err)
		}
		in, err := newInputs(spec, g, []int{0, 1, 2}, 5)
		if err != nil {
			t.Fatal(err)
		}
		n := map[string]int{wlWarmRepeat: 300, wlLiteralMiss: 40, wlBatchMiss: 8}[w]
		reqs, err := in.next(n)
		if err != nil {
			t.Fatal(err)
		}
		tr, res := newTracer(w), newResult(w, 5)
		if err := replayServe(ctx, tr, spec, m, in.prime, reqs, time.Now().Add(time.Minute), res); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.attempted != n || res.failed != 0 {
			t.Errorf("%s: %d of %d replays had depths that disagree", w, res.failed, res.attempted)
		}
		if err := checkForest(tr.spans); err != nil {
			t.Errorf("%s: %v", w, err)
		}
		for name := range res.layer {
			if !known[name] {
				t.Errorf("%s: replay reports %s, which BENCHMARK.json does not name", w, name)
			}
		}
		// On a hit every depth adds work the next one lacks. On a miss the
		// 2 ms batch window sits in depths 1 to 3 and its jitter exceeds
		// what the HTTP edge adds, so only their lead over depth 4 is told.
		d := []callStat{tr.stat("serve", "http_socket"), tr.stat("serve", "http_handler"), tr.stat("serve", "estimate"), tr.stat("qcfe", "estimate_sql")}
		switch w {
		case wlWarmRepeat:
			for i := 1; i < len(d); i++ {
				if d[i].calls != n || d[i-1].p50 < d[i].p50 {
					t.Errorf("%s: depth %d p50 %.0fns is below depth %d p50 %.0fns (%d calls)", w, i, d[i-1].p50, i+1, d[i].p50, d[i].calls)
				}
			}
		case wlLiteralMiss:
			for i := 0; i < 3; i++ {
				if d[i].calls != n || d[i].p50 < d[3].p50 {
					t.Errorf("%s: depth %d p50 %.0fns is below depth 4 p50 %.0fns (%d calls)", w, i+1, d[i].p50, d[3].p50, d[i].calls)
				}
			}
		}
	}
}
