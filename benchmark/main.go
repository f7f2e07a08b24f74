// Command benchmark is this repository's benchmark: it builds qcfe-serve
// and qcfe-router from the working tree, starts them with default flags on
// loopback ports, drives them with two closed-loop clients, runs the
// offline fit recipe, and prints every metric of BENCHMARK.json by name
// and unit. README.md in this directory describes the workloads, the
// metrics and how they interact.
//
// Two ways in:
//
//	go run . [-workloads a,b] [-seed n] [-seconds n] [-trace] [-repeat-check]
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
//
// The second form is the driver's contract: one workload, one JSON object
// as the last line of standard output.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	paths   paths
	seed    int64         // seeds the request streams
	seconds time.Duration // timed window of a serving workload
	trace   bool
}

// result is what one workload's run produced.
type result struct {
	workload  string
	seed      int64
	attempted int // operations whose outcome was checked
	failed    int
	invalid   []string // why the run does not count, if it does not
	e2e       map[string]float64
	layer     map[string]float64
}

func newResult(workload string, seed int64) *result {
	return &result{workload: workload, seed: seed, e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check counts one verified operation and fails it when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail counts one operation, already attempted, as failed.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		logf("%s: FAILED: "+format, append([]any{r.workload}, args...)...)
	}
}

// require asserts a condition of the run as a whole; a run that breaks
// one is invalid whatever its numbers say.
func (r *result) require(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.invalid = append(r.invalid, msg)
		logf("%s: INVALID: %s", r.workload, msg)
	}
}

func (r *result) phase(name string, c counts) {
	logf("%s: phase %-8s %s", r.workload, name, c)
}

// requireComplete asserts that the run produced every metric the
// vocabulary promises for its workload, all end-to-end metrics of an
// untraced run, every per-layer metric listed for the workload of a
// traced one, and that each is a number: JSON has no NaN or infinity.
func (r *result) requireComplete(traced bool) {
	for _, vals := range []map[string]float64{r.e2e, r.layer} {
		for name, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.require(false, "metric %s is %v", name, v)
				vals[name] = 0
			}
		}
	}
	for _, m := range endToEnd {
		if _, ok := r.e2e[m.Name]; !ok && !traced {
			r.require(false, "metric %s was not measured", m.Name)
		}
	}
	for _, m := range perLayer {
		if _, ok := r.layer[m.Name]; !ok && traced && slices.Contains(m.On, r.workload) {
			r.require(false, "metric %s was not measured", m.Name)
		}
	}
}

func (r *result) correct() bool { return r.failed == 0 && len(r.invalid) == 0 }

func (r *result) failRatio() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// logf writes progress to standard error; standard output carries the
// report alone.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// normalizeArgs lets the boolean -trace also be written "--trace 0" and
// "--trace 1", as the driver does.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) (code int) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	one := fs.String("workload", "", "run this one workload and end with the driver's JSON line")
	list := fs.String("workloads", "", "comma-separated workloads to run (default: all)")
	seed := fs.Int64("seed", 1, "seed of the request streams")
	seconds := fs.Int("seconds", 15, "timed window of a serving workload, in seconds")
	trace := fs.Bool("trace", false, "run the traced replay and print per-layer metrics in place of end-to-end ones")
	repeat := fs.Bool("repeat-check", false, "run the set twice and compare each end-to-end metric's delta with its bound")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 {
		logf("benchmark: unexpected arguments %q", fs.Args())
		return 2
	}
	if *repeat && *trace {
		logf("benchmark: -repeat-check compares end-to-end metrics, which a traced run does not report")
		return 2
	}
	var names []string
	for _, n := range strings.Split(*one+","+*list, ",") {
		if _, ok := findWorkload(n); !ok && n != "" {
			logf("benchmark: no workload %q", n)
			return 2
		}
	}
	for _, w := range workloads {
		if *list == "" || strings.Contains(","+*list+",", ","+w.Name+",") {
			names = append(names, w.Name)
		}
	}
	p, err := newPaths()
	if err != nil {
		logf("benchmark: %v", err)
		return 1
	}
	cfg := config{paths: p, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace}

	// Every exit path stops the daemons: normal return, a failed check,
	// and SIGINT or SIGTERM, which cancel ctx and unwind the run.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	defer func() {
		if err := started.stopAll(); err != nil {
			logf("benchmark: %v", err)
			code = 1
		}
	}()

	if *one != "" {
		logf("benchmark: commit %s, %s, nproc %d, seed %d, window %ds, %d closed-loop clients",
			commit(p.root), runtime.Version(), runtime.NumCPU(), cfg.seed, *seconds, clients)
		return runOne(ctx, cfg, *one)
	}

	// Several workloads: each in a process of its own, so that none meets
	// the heap, the memoized dataset or the peak RSS another left behind,
	// and every number is the one the driver's single-workload run gives.
	// A run that broke ends the set; a wrong or invalid one fails it.
	runSet := func() (set []contractLine, ok bool) {
		ok = true
		for _, n := range names {
			line, err := runChild(ctx, n, args)
			if err != nil {
				logf("benchmark: %s: %v", n, err)
				return set, false
			}
			set, ok = append(set, line), ok && line.Correct
		}
		return set, ok
	}
	first, ok := runSet()
	if ok && *repeat {
		var second []contractLine
		if second, ok = runSet(); ok {
			ok = printRepeatCheck(os.Stdout, names, first, second)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne runs a single workload in this process. Standard output gets the
// report and then, as its last line, the driver's JSON object.
func runOne(ctx context.Context, cfg config, name string) int {
	if err := cfg.paths.buildDaemons(); err != nil {
		logf("benchmark: %v", err)
		return 1
	}
	var r *result
	var err error
	if name == wlFit {
		r, err = runFit(ctx, cfg)
	} else {
		r, err = runServing(ctx, cfg, servingSpecs[name])
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		logf("benchmark: %s: %v", name, err)
		return 1 // the run itself broke: no result line
	}
	if err := started.stopAll(); err != nil {
		r.require(false, "%v", err)
	}
	r.requireComplete(cfg.trace)
	line, err := json.Marshal(contractLine{Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: contractMetrics(r, cfg.trace)})
	if err != nil {
		logf("benchmark: %s: result does not marshal: %v", name, err)
		return 1
	}
	printReport(os.Stdout, []*result{r}, cfg.trace)
	fmt.Printf("%s\n", line)
	if !r.correct() {
		return 1
	}
	return 0
}

// runChild runs one workload in a child harness with this invocation's
// flags, passes the child's report on and returns the JSON line the child
// ended with.
func runChild(ctx context.Context, name string, args []string) (contractLine, error) {
	var line contractLine
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	cmd := exec.CommandContext(ctx, exe, append(slices.Clone(args), "-workload", name)...)
	cmd.Stderr = os.Stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) } // the child stops its own daemons
	cmd.WaitDelay = 10 * time.Second
	out, runErr := cmd.Output()
	out = bytes.TrimRight(out, "\n")
	cut := bytes.LastIndexByte(out, '\n') + 1
	if json.Unmarshal(out[cut:], &line) != nil {
		return line, fmt.Errorf("child harness gave no result: %v", runErr)
	}
	os.Stdout.Write(out[:cut])
	return line, nil
}

// commit names the working tree's commit, or "unknown" outside git.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev += "+dirty"
	}
	return rev
}

// contractLine is the driver's result object.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractMetrics selects what the driver reads: every end-to-end metric
// of an untraced run, every per-layer metric of a traced one. A per-layer
// metric the workload does not produce reads 0.
func contractMetrics(r *result, traced bool) map[string]contractValue {
	specs, vals := endToEnd, r.e2e
	if traced {
		specs, vals = perLayer, r.layer
	}
	out := make(map[string]contractValue, len(specs))
	for _, m := range specs {
		out[m.Name] = contractValue{Value: vals[m.Name], Unit: m.Unit}
	}
	return out
}
