package obs

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled: the
// repository is stdlib-only, and the subset a scraper needs — # HELP,
// # TYPE, and samples with labels, with histograms expanded into
// cumulative _bucket/_sum/_count series — is small enough to render
// directly. Collectors append samples into a Gatherer; the Gatherer
// groups samples by metric name (the format requires one contiguous
// block per name) and renders them in first-registration order, so
// output is deterministic for a deterministic collector.

// Label is one name="value" pair.
type Label struct{ Name, Value string }

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

type sample struct {
	labels []Label
	value  float64
}

type metric struct {
	name    string
	help    string
	typ     string // "counter", "gauge", "histogram"
	samples []sample
	hists   []histSample
}

type histSample struct {
	labels []Label
	snap   HistSnapshot
}

// Gatherer accumulates one scrape's samples. Not safe for concurrent
// use; build one per scrape (the /metrics handlers do).
type Gatherer struct {
	order  []*metric
	byName map[string]*metric
}

// NewGatherer returns an empty Gatherer.
func NewGatherer() *Gatherer { return &Gatherer{byName: make(map[string]*metric)} }

func (g *Gatherer) metricFor(name, help, typ string) *metric {
	if m, ok := g.byName[name]; ok {
		return m
	}
	m := &metric{name: name, help: help, typ: typ}
	g.byName[name] = m
	g.order = append(g.order, m)
	return m
}

// Counter appends one sample of a monotonically increasing series.
// Calls with the same name accumulate label variants under one block;
// help and type come from the first call.
func (g *Gatherer) Counter(name, help string, value int64, labels ...Label) {
	m := g.metricFor(name, help, "counter")
	m.samples = append(m.samples, sample{labels: labels, value: float64(value)})
}

// Gauge appends one sample of an instantaneous-value series.
func (g *Gatherer) Gauge(name, help string, value float64, labels ...Label) {
	m := g.metricFor(name, help, "gauge")
	m.samples = append(m.samples, sample{labels: labels, value: value})
}

// Histogram appends one labeled histogram, rendered as cumulative
// _bucket series (le in seconds), _sum (seconds), and _count. Empty
// buckets are skipped — the cumulative count only gets a line where it
// changes, plus the mandatory le="+Inf" — which keeps a 497-bucket
// register from bloating the scrape.
func (g *Gatherer) Histogram(name, help string, snap HistSnapshot, labels ...Label) {
	m := g.metricFor(name, help, "histogram")
	m.hists = append(m.hists, histSample{labels: labels, snap: snap})
}

// Collector appends samples for one subsystem; /metrics handlers run a
// list of them over a fresh Gatherer per scrape.
type Collector func(g *Gatherer)

// MetricsWriter is implemented by subsystem stats values that render
// themselves into a scrape. It lets a layer pick up metrics from a
// subsystem it only knows behind an `any` (serve's drift block, for
// example) without importing its package.
type MetricsWriter interface {
	WriteMetrics(g *Gatherer, extra ...Label)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string (backslash and newline only).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, `\`+"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func writeLabels(b *bytes.Buffer, labels []Label) {
	if len(labels) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func writeSample(b *bytes.Buffer, name string, labels []Label, extra []Label, v float64) {
	b.WriteString(name)
	all := labels
	if len(extra) > 0 {
		all = append(append([]Label{}, labels...), extra...)
	}
	writeLabels(b, all)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	b.WriteByte('\n')
}

// RenderText renders the accumulated metrics as one exposition
// document.
func (g *Gatherer) RenderText() []byte {
	var b bytes.Buffer
	for _, m := range g.order {
		fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.typ)
		for _, s := range m.samples {
			writeSample(&b, m.name, s.labels, nil, s.value)
		}
		for _, h := range m.hists {
			var cum int64
			for i := range h.snap.Counts {
				if h.snap.Counts[i] == 0 {
					continue
				}
				cum += h.snap.Counts[i]
				le := strconv.FormatFloat(float64(bucketUpperNs(i))/1e9, 'g', -1, 64)
				writeSample(&b, m.name+"_bucket", h.labels, []Label{L("le", le)}, float64(cum))
			}
			writeSample(&b, m.name+"_bucket", h.labels, []Label{L("le", "+Inf")}, float64(cum))
			writeSample(&b, m.name+"_sum", h.labels, nil, float64(h.snap.SumNs)/1e9)
			writeSample(&b, m.name+"_count", h.labels, nil, float64(cum))
		}
	}
	return b.Bytes()
}

// MetricsHandler serves a /metrics endpoint: each scrape runs the
// collectors over a fresh Gatherer and writes the rendered text with
// the exposition content type.
func MetricsHandler(collectors ...Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		g := NewGatherer()
		for _, c := range collectors {
			c(g)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write(g.RenderText())
	})
}
