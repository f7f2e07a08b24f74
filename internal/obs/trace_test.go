package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceIDs: well-formed, unique, and cheap to mint concurrently.
func TestTraceIDs(t *testing.T) {
	seen := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]string, 1000)
			for i := range local {
				local[i] = NewTraceID()
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range local {
				if len(id) != 32 {
					t.Errorf("trace id %q: want 32 hex chars", id)
					return
				}
				if seen[id] {
					t.Errorf("duplicate trace id %q", id)
					return
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
}

// TestTraceContextAndSpans: the context round trip, concurrent span
// appends, and nil-safety of every method.
func TestTraceContextAndSpans(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Fatal("empty context produced a trace")
	}
	var nilTrace *Trace
	nilTrace.AddSpan("probe", "", time.Now())
	nilTrace.AddSpanDur("probe", "", time.Now(), time.Millisecond)
	if nilTrace.Spans() != nil {
		t.Fatal("nil trace has spans")
	}

	tr := NewTrace("abc123")
	ctx := ContextWithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatal("trace did not round-trip through context")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.AddSpanDur("subbatch", fmt.Sprintf("replica-%d", g), tr.Start, time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if n := len(tr.Spans()); n != 800 {
		t.Fatalf("lost spans under concurrency: %d, want 800", n)
	}
}

// TestTracerRingAndSlowLog: the ring keeps the newest records in
// order, and only requests over the threshold hit the slow-query log.
func TestTracerRingAndSlowLog(t *testing.T) {
	var slow bytes.Buffer
	tc := &Tracer{ring: make([]TraceRecord, 4), slowThreshold: 10 * time.Millisecond, slowW: &slow}
	for i := 0; i < 6; i++ {
		tr := NewTrace(fmt.Sprintf("id-%d", i))
		tr.Start = time.Now().Add(-time.Duration(i) * 5 * time.Millisecond)
		tr.AddSpanDur("probe", "", tr.Start, time.Duration(i)*5*time.Millisecond)
		tc.Finish(tr, "estimate", "acme", nil)
	}
	recent := tc.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("ring holds %d records, want capacity 4", len(recent))
	}
	if recent[0].TraceID != "id-5" || recent[3].TraceID != "id-2" {
		t.Fatalf("ring order wrong: newest %s ... oldest %s", recent[0].TraceID, recent[3].TraceID)
	}
	if got := tc.Recent(2); len(got) != 2 || got[0].TraceID != "id-5" {
		t.Fatalf("Recent(2) = %+v", got)
	}
	if recent[0].Op != "estimate" || recent[0].Tenant != "acme" || len(recent[0].Spans) != 1 {
		t.Fatalf("record fields lost: %+v", recent[0])
	}

	// Traces 2..5 were backdated ≥10ms, so exactly 4 slow lines, each
	// valid JSON carrying the trace id.
	lines := strings.Split(strings.TrimSpace(slow.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("slow log has %d lines, want 4:\n%s", len(lines), slow.String())
	}
	for _, ln := range lines {
		var rec struct {
			Slow    bool    `json:"slow_query"`
			TraceID string  `json:"trace_id"`
			DurMs   float64 `json:"dur_ms"`
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("slow log line is not JSON: %v\n%s", err, ln)
		}
		if !rec.Slow || rec.TraceID == "" || rec.DurMs < 10 {
			t.Fatalf("slow log line malformed: %+v", rec)
		}
	}

	// Nil tracer and nil trace: no-ops.
	var nilTc *Tracer
	nilTc.Finish(NewTrace("x"), "estimate", "", nil)
	if nilTc.Recent(1) != nil {
		t.Fatal("nil tracer returned records")
	}
	tc.Finish(nil, "estimate", "", nil)
}

// TestTracerError: a failed request's error string rides the record.
func TestTracerError(t *testing.T) {
	tc := NewTracer(0, nil)
	tc.Finish(NewTrace("e1"), "estimate_batch", "", fmt.Errorf("boom"))
	recent := tc.Recent(1)
	if len(recent) != 1 || recent[0].Err != "boom" {
		t.Fatalf("error not recorded: %+v", recent)
	}
}
