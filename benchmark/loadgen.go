package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// clients is the number of closed-loop clients: one per core of the
// 2-core runner, each on its own keep-alive connection.
const clients = 2

// newClient returns a net/http client pinned to one keep-alive
// connection: the harness's control-plane client (health, priming, /stats)
// and the traced replay's depth-1 client.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			IdleConnTimeout:     5 * time.Minute,
			DisableCompression:  true,
		},
	}
}

// conn is a load client's keep-alive connection. It writes requests as
// prepared bytes and reads replies with http.ReadResponse, on the caller's
// goroutine: net/http's client hands every round trip to two more
// goroutines, which on a 2-core runner cost the harness as much CPU as
// the daemon spent answering, and the harness must not be the bottleneck
// it measures.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	head []byte // request line and headers up to the Content-Length value
	out  []byte
}

// dial connects to a daemon URL (http://host:port/path).
func dial(url string) (*conn, error) {
	rest, ok := strings.CutPrefix(url, "http://")
	host, path, ok2 := strings.Cut(rest, "/")
	if !ok || !ok2 {
		return nil, fmt.Errorf("dial: bad url %q", url)
	}
	c, err := net.DialTimeout("tcp", host, 5*time.Second)
	if err != nil {
		return nil, err
	}
	head := "POST /" + path + " HTTP/1.1\r\nHost: " + host + "\r\nContent-Type: application/json\r\nContent-Length: "
	return &conn{c: c, br: bufio.NewReader(c), head: []byte(head)}, nil
}

// post sends one body and reads the reply's body into buf; it reports
// whether the daemon answered 200.
func (c *conn) post(body []byte, buf *bytes.Buffer) (bool, error) {
	c.out = append(c.out[:0], c.head...)
	c.out = strconv.AppendInt(c.out, int64(len(body)), 10)
	c.out = append(c.out, "\r\n\r\n"...)
	c.out = append(c.out, body...)
	c.c.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := c.c.Write(c.out); err != nil {
		return false, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return false, err
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK, err
}

// sample is one completed request of a phase.
type sample struct {
	req   *request
	start time.Duration // since the phase began
	lat   time.Duration
	ok    bool   // HTTP 200 and a readable body
	reply []byte // response body of an ok request
}

// phase is what one closed-loop run over a request stream produced.
type phase struct {
	samples   []sample
	wall      time.Duration
	exhausted bool // a client ran out of requests before the deadline
}

// drive runs the closed loop for d: client k sends reqs[k],
// reqs[k+clients], ... back to back on its own connection, each request
// waiting for the reply to the one before. Nothing is generated or checked
// inside the loop beyond the status code; replies are kept for later.
func drive(ctx context.Context, conns []*conn, reqs []request, d time.Duration) phase {
	// The harness shares two cores with the daemons: its own collector
	// must not run inside the window. What a window allocates (replies,
	// samples) is a few hundred MiB at most.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var (
		wg   sync.WaitGroup
		per  = make([][]sample, len(conns))
		dry  = make([]bool, len(conns))
		t0   = time.Now()
		stop = t0.Add(d)
	)
	for k, c := range conns {
		wg.Add(1)
		go func(k int, c *conn) {
			defer wg.Done()
			out := make([]sample, 0, len(reqs)/len(conns)+1)
			var buf bytes.Buffer
			for i := k; ; i += len(conns) {
				if i >= len(reqs) {
					dry[k] = true
					break
				}
				begin := time.Now()
				if !begin.Before(stop) || ctx.Err() != nil {
					break
				}
				r := &reqs[i]
				s := sample{req: r, start: begin.Sub(t0)}
				ok, err := c.post(r.body, &buf)
				s.lat = time.Since(begin)
				if s.ok = ok && err == nil; s.ok {
					s.reply = append([]byte(nil), buf.Bytes()...)
				}
				out = append(out, s)
				if err != nil {
					break // the connection is gone; what was sent stands
				}
			}
			per[k] = out
		}(k, c)
	}
	wg.Wait()
	ph := phase{wall: time.Since(t0)}
	for k := range per {
		ph.samples = append(ph.samples, per[k]...)
		ph.exhausted = ph.exhausted || dry[k]
	}
	return ph
}

// counts are a phase's attempted, answered and failed requests.
type counts struct{ attempted, ok, failed int }

func (p phase) counts() counts {
	c := counts{attempted: len(p.samples)}
	for _, s := range p.samples {
		if s.ok {
			c.ok++
		}
	}
	c.failed = c.attempted - c.ok
	return c
}

func (c counts) String() string {
	return fmt.Sprintf("attempted=%d ok=%d failed=%d", c.attempted, c.ok, c.failed)
}

// queries is the number of priced queries behind the phase's ok replies.
func (p phase) queries() int {
	n := 0
	for _, s := range p.samples {
		if s.ok {
			n += len(s.req.sqls)
		}
	}
	return n
}

// sliceRates cuts the phase into n equal time slices by completion time
// and returns the priced queries per second of each.
func (p phase) sliceRates(n int, window time.Duration) []float64 {
	per := window / time.Duration(n)
	got := make([]float64, n)
	for _, s := range p.samples {
		if !s.ok {
			continue
		}
		if k := int((s.start + s.lat) / per); k < n {
			got[k] += float64(len(s.req.sqls))
		}
	}
	for i := range got {
		got[i] /= per.Seconds()
	}
	return got
}

// latencies returns the sorted latencies of the ok requests.
func (p phase) latencies() []time.Duration {
	var ls []time.Duration
	for _, s := range p.samples {
		if s.ok {
			ls = append(ls, s.lat)
		}
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	return ls
}

// quantile reads the q-quantile of sorted values (nearest rank).
func quantile[T float64 | time.Duration | int64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(vs []float64) float64 { return metrics.Percentile(vs, 50) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// decodeReply parses a daemon reply into one value per query of the
// request: {"ms":x} for /estimate, {"ms":[...]} for /estimate_batch.
func decodeReply(batch bool, body []byte) ([]float64, error) {
	if batch {
		var r struct {
			Ms []float64 `json:"ms"`
		}
		err := json.Unmarshal(body, &r)
		return r.Ms, err
	}
	var r struct {
		Ms *float64 `json:"ms"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	if r.Ms == nil {
		return nil, fmt.Errorf("reply without ms: %s", body)
	}
	return []float64{*r.Ms}, nil
}
