package main

import (
	"fmt"
	"io"
	"strconv"
)

// printReport prints each workload's metrics by name, with unit. An
// untraced run shows the end-to-end metrics and the layer metrics that
// come from the same run (counter deltas around the timed window); a
// traced run shows per-layer metrics only, because end-to-end numbers
// always come from the untraced run.
func printReport(w io.Writer, results []*result, traced bool) {
	for _, r := range results {
		fmt.Fprintf(w, "\nworkload %s  seed %d  correct=%v  attempted=%d ok=%d failed=%d fail_ratio=%s\n",
			r.workload, r.seed, r.correct(), r.attempted, r.attempted-r.failed, r.failed, num(r.failRatio()))
		for _, why := range r.invalid {
			fmt.Fprintf(w, "  INVALID: %s\n", why)
		}
		if !traced {
			for _, m := range endToEnd {
				if v, ok := r.e2e[m.Name]; ok {
					fmt.Fprintf(w, "  %-36s %14s %-5s (%s is better, bound %g%%)\n", m.Name, num(v), m.Unit, m.Better, m.Bound*100)
				}
			}
		}
		for _, m := range perLayer {
			if v, ok := r.layer[m.Name]; ok {
				fmt.Fprintf(w, "  %-36s %14s %-5s\n", m.Name, num(v), m.Unit)
			}
		}
	}
}

// num prints a value with all the digits it was measured with.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// worsening is how much worse b reads than a, as a share of a.
func worsening(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// printRepeatCheck compares two back-to-back sets of the same code: each
// end-to-end metric's relative delta per workload against its bound, in
// whichever direction is worse. Identical code that cannot repeat within
// the bounds means a noisy host or a benchmark too short for it; either
// way no claim should be measured on it.
func printRepeatCheck(w io.Writer, names []string, first, second []contractLine) bool {
	fmt.Fprintf(w, "\nrepeat check: second set against the first, same code\n")
	ok := true
	for i, name := range names {
		for _, m := range endToEnd {
			x, y := first[i].Metrics[m.Name].Value, second[i].Metrics[m.Name].Value
			d := max(worsening(m, x, y), worsening(m, y, x))
			verdict := "ok"
			if d > m.Bound {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Fprintf(w, "  %-13s %-26s %14s %14s  delta %6.2f%%  bound %4.0f%%  %s\n",
				name, m.Name, num(x), num(y), d*100, m.Bound*100, verdict)
		}
	}
	return ok
}
