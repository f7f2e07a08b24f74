package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Request tracing. One trace ID — X-QCFE-Trace-ID — is minted at
// whichever daemon a request first enters (router or replica) and
// propagated on every hop it fans out to: the router stamps it on every
// scattered sub-batch (retries included: a failover re-dispatch carries
// the ORIGINAL id — that contract is pinned by the chaos tests), the
// tenant layer carries it through admission and delegation, and every
// daemon echoes it back in the response headers. Along the way each
// layer appends stage spans (probe → admit → featurize → predict →
// merge) to the trace; the finished record lands in a
// per-daemon ring buffer served by /trace/recent and, when it exceeds
// the -slow-query-threshold, in a structured slow-query log line on
// stderr.

// TraceHeader is the HTTP header carrying the request's trace ID.
const TraceHeader = "X-QCFE-Trace-ID"

// Trace-ID generation: an 8-byte per-process random prefix plus an
// 8-byte counter, hex-rendered to the conventional 32 characters.
// Unique within a process by the counter, across processes by the
// prefix, and costs one atomic add per ID.
var (
	traceIDPrefix [8]byte
	traceIDSeq    atomic.Uint64
)

func init() {
	if _, err := rand.Read(traceIDPrefix[:]); err != nil {
		// No entropy source: fall back to a fixed prefix; the counter
		// still makes IDs unique within the process.
		copy(traceIDPrefix[:], "qcfetrce")
	}
}

// NewTraceID mints a fresh 32-hex-character trace ID.
func NewTraceID() string {
	var raw [16]byte
	copy(raw[:8], traceIDPrefix[:])
	binary.BigEndian.PutUint64(raw[8:], traceIDSeq.Add(1))
	return hex.EncodeToString(raw[:])
}

// Span is one recorded stage of a request: its offset from the trace
// start and its duration, both in nanoseconds, plus an optional detail
// (replica URL, ladder rung, environment).
type Span struct {
	Stage    string `json:"stage"`
	Detail   string `json:"detail,omitempty"`
	OffsetNs int64  `json:"offset_ns"`
	DurNs    int64  `json:"dur_ns"`
}

// Trace accumulates one request's spans. Created at the HTTP edge,
// carried by context through every layer, appended to concurrently by
// scattered sub-batches (hence the mutex), and finished back at the
// edge into a TraceRecord. All methods are nil-receiver-safe, so
// library paths entered without a trace (benchmarks, tests, the
// in-process API) pay only a context lookup.
type Trace struct {
	ID    string
	Start time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTrace starts a trace now under the given ID.
func NewTrace(id string) *Trace {
	return &Trace{ID: id, Start: time.Now()}
}

// AddSpan records a stage that started at t0 and just ended.
func (t *Trace) AddSpan(stage, detail string, t0 time.Time) {
	if t != nil {
		t.AddSpanDur(stage, detail, t0, time.Since(t0))
	}
}

// AddSpanDur records a stage with an explicit duration.
func (t *Trace) AddSpanDur(stage, detail string, t0 time.Time, d time.Duration) {
	if t == nil {
		return
	}
	sp := Span{Stage: stage, Detail: detail, OffsetNs: int64(t0.Sub(t.Start)), DurNs: int64(d)}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Spans copies out the spans recorded so far.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// traceKey carries a *Trace through context.
type traceKey struct{}

// ContextWithTrace attaches a trace to a context.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom extracts the context's trace; nil when the request entered
// without one (every Trace method is safe on that nil).
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// TraceRecord is one finished request as stored in the ring and logged
// on slow queries.
type TraceRecord struct {
	TraceID string    `json:"trace_id"`
	Op      string    `json:"op"`
	Tenant  string    `json:"tenant,omitempty"`
	Start   time.Time `json:"start"`
	DurNs   int64     `json:"dur_ns"`
	DurMs   float64   `json:"dur_ms"`
	Err     string    `json:"error,omitempty"`
	Spans   []Span    `json:"spans,omitempty"`
}

// Tracer owns a daemon's trace sink: the /trace/recent ring plus the
// slow-query log. Safe for concurrent use; the zero threshold disables
// slow-query logging.
type Tracer struct {
	mu   sync.Mutex
	ring []TraceRecord
	next int
	n    int

	slowThreshold time.Duration
	slowW         io.Writer
	slowMu        sync.Mutex
}

// NewTracer builds a tracer whose ring keeps the last 256 finished
// requests. Requests slower than slowThreshold (>0) are logged as one
// JSON line to slowW.
func NewTracer(slowThreshold time.Duration, slowW io.Writer) *Tracer {
	return &Tracer{ring: make([]TraceRecord, 256), slowThreshold: slowThreshold, slowW: slowW}
}

// Finish closes a trace into a record, stores it in the ring, and
// emits the slow-query line when it crossed the threshold. Nil-safe on
// both receiver and trace.
func (tc *Tracer) Finish(t *Trace, op, tenant string, err error) {
	if tc == nil || t == nil {
		return
	}
	d := time.Since(t.Start)
	rec := TraceRecord{
		TraceID: t.ID,
		Op:      op,
		Tenant:  tenant,
		Start:   t.Start,
		DurNs:   int64(d),
		DurMs:   float64(d) / 1e6,
		Spans:   t.Spans(),
	}
	if err != nil {
		rec.Err = err.Error()
	}
	tc.mu.Lock()
	tc.ring[tc.next] = rec
	tc.next = (tc.next + 1) % len(tc.ring)
	if tc.n < len(tc.ring) {
		tc.n++
	}
	tc.mu.Unlock()

	if tc.slowThreshold > 0 && d >= tc.slowThreshold && tc.slowW != nil {
		line, jerr := json.Marshal(struct {
			Slow bool `json:"slow_query"`
			TraceRecord
		}{true, rec})
		if jerr == nil {
			tc.slowMu.Lock()
			tc.slowW.Write(append(line, '\n'))
			tc.slowMu.Unlock()
		}
	}
}

// Recent returns up to max finished traces, newest first (all retained
// when max ≤ 0).
func (tc *Tracer) Recent(max int) []TraceRecord {
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	n := tc.n
	if max > 0 && max < n {
		n = max
	}
	out := make([]TraceRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, tc.ring[(tc.next-i+len(tc.ring))%len(tc.ring)])
	}
	return out
}
