package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a public function of a layer. Spans of one
// replayed input share a trace_id; parent_id 0 marks a root. Program code
// carries no spans yet, so every span here is recorded by the harness
// around the call.
type span struct {
	TraceID  int64  `json:"trace_id"`
	SpanID   int64  `json:"span_id"`
	ParentID int64  `json:"parent_id"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: the traced replay is sequential.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	// overhead is the p50 duration of an empty span: the clock reads and
	// bookkeeping that every recorded duration includes.
	overhead time.Duration
}

func newTracer(workload string) *tracer {
	cal := &tracer{epoch: time.Now()}
	for i := 0; i < 20000; i++ {
		cal.end(cal.begin(0, 0, "", ""))
	}
	ds := cal.durations("", "")
	return &tracer{workload: workload, epoch: time.Now(), overhead: quantile(ds, 0.5)}
}

// begin opens a span and returns its id; parent 0 makes it a root.
func (t *tracer) begin(trace, parent int64, layer, name string) int64 {
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{TraceID: trace, SpanID: id, ParentID: parent, Layer: layer, Name: name, Workload: t.workload})
	t.spans[id-1].StartNs = int64(time.Since(t.epoch))
	return id
}

func (t *tracer) end(id int64) {
	t.spans[id-1].EndNs = int64(time.Since(t.epoch))
}

// durations returns the sorted durations of the spans named layer/name.
func (t *tracer) durations(layer, name string) []time.Duration {
	var ds []time.Duration
	for i := range t.spans {
		if s := &t.spans[i]; s.Layer == layer && s.Name == name {
			ds = append(ds, time.Duration(s.EndNs-s.StartNs))
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

// callStat summarises the spans of one call site.
type callStat struct {
	calls    int
	p50, p90 float64 // ns, span overhead removed
}

func (t *tracer) stat(layer, name string) callStat {
	ds := t.durations(layer, name)
	net := func(d time.Duration) float64 { return max(float64(d-t.overhead), 1) }
	return callStat{calls: len(ds), p50: net(quantile(ds, 0.5)), p90: net(quantile(ds, 0.9))}
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("[\n")
	for i := range t.spans {
		b, err := json.Marshal(&t.spans[i])
		if err != nil {
			f.Close()
			return err
		}
		w.Write(b)
		if i < len(t.spans)-1 {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkForest verifies that spans form a well-formed forest: ids are
// unique, every parent exists in the same trace, and a child lies within
// its parent's interval.
func checkForest(spans []span) error {
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.SpanID == 0 || byID[s.SpanID] != nil {
			return fmt.Errorf("span id %d missing or repeated", s.SpanID)
		}
		if s.EndNs < s.StartNs {
			return fmt.Errorf("span %d (%s.%s) ends before it starts", s.SpanID, s.Layer, s.Name)
		}
		byID[s.SpanID] = s
	}
	for i := range spans {
		s := &spans[i]
		if s.ParentID == 0 {
			continue
		}
		p := byID[s.ParentID]
		switch {
		case p == nil:
			return fmt.Errorf("span %d (%s.%s): parent %d does not exist", s.SpanID, s.Layer, s.Name, s.ParentID)
		case p.TraceID != s.TraceID:
			return fmt.Errorf("span %d: parent %d belongs to another trace", s.SpanID, s.ParentID)
		case s.StartNs < p.StartNs || s.EndNs > p.EndNs:
			return fmt.Errorf("span %d (%s.%s) is not within parent %d (%s.%s)", s.SpanID, s.Layer, s.Name, p.SpanID, p.Layer, p.Name)
		}
	}
	return nil
}
