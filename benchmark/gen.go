package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The input generator. workload.Generator draws every literal from a
// 64-value column sample, so its "fresh" TPC-H queries collide: outside
// one template the whole workload has about 8000 distinct texts, and a
// miss workload built from it is mostly prediction-tier hits. This
// generator fills the same templates, drawing numeric literals from the
// column's whole [min, max] range, and rejects every text it has produced
// before, so a query it calls fresh is a guaranteed prediction- and
// feature-tier miss: across clients, warm-up and timed window.
//
// A template's share of the stream is proportional to the number of
// distinct texts it can produce, capped at domainCap. Every template is
// then used up at the same pace, so the mix of templates is the same at
// the start of a run and at its end, and the same for a run of a thousand
// queries and one of a million: a faster daemon is sent more queries, not
// other queries. Even shares would not do that: all but six TPC-H
// templates have fewer than 12000 texts, would run dry in the warm-up, and
// leave the timed window a mix that depends on how long the run is.

// placeholderRe matches {table.column} and {table.column+delta}, the
// placeholder grammar of internal/workload's templates.
var placeholderRe = regexp.MustCompile(`\{(\w+)\.(\w+)(\+\d+)?\}`)

// slot is one placeholder of a compiled template.
type slot struct {
	key   string               // table.column
	col   *catalog.ColumnStats // the column's statistics
	delta int64                // {col+N}: the query's last draw for col, plus N
	anch  bool                 // true for {col+N}
}

// tmpl is a template split at its placeholders: text[0] slot[0] text[1] ...
type tmpl struct {
	text   []string
	slots  []slot
	domain float64 // distinct texts the template can produce, at most domainCap
}

// domainCap bounds a template's weight. Four TPC-H templates reach it, so
// they share most of the stream evenly, and together the templates hold
// 4.3 million texts: four times what the longest run asks for today.
const domainCap = 1 << 20

// cardinality is the number of distinct literals draw can return for col.
func cardinality(col *catalog.ColumnStats) float64 {
	if !col.Sample[0].IsStr && col.Max > col.Min {
		return float64(col.Max-col.Min) + 1
	}
	distinct := map[catalog.Value]struct{}{}
	for _, v := range col.Sample {
		distinct[v] = struct{}{}
	}
	return float64(len(distinct))
}

func compileTemplate(ds *datagen.Dataset, src string) (tmpl, error) {
	var t tmpl
	last := 0
	for _, m := range placeholderRe.FindAllStringSubmatchIndex(src, -1) {
		t.text = append(t.text, src[last:m[0]])
		last = m[1]
		table, column := src[m[2]:m[3]], src[m[4]:m[5]]
		col := ds.Stats.Col(table, column)
		if col == nil || len(col.Sample) == 0 {
			return tmpl{}, fmt.Errorf("gen: no statistics for %s.%s", table, column)
		}
		s := slot{key: table + "." + column, col: col}
		if m[6] >= 0 {
			s.anch = true
			s.delta, _ = strconv.ParseInt(src[m[6]+1:m[7]], 10, 64)
		}
		t.slots = append(t.slots, s)
	}
	t.text = append(t.text, src[last:])
	// An anchored slot repeats an earlier draw unless it comes first.
	t.domain = 1
	drawn := map[string]bool{}
	for _, s := range t.slots {
		if !s.anch || !drawn[s.key] {
			t.domain = min(t.domain*cardinality(s.col), domainCap)
		}
		drawn[s.key] = drawn[s.key] || !s.anch
	}
	return t, nil
}

// generator produces globally unique SQL text, deterministically per seed.
type generator struct {
	rng       *rand.Rand
	templates []tmpl
	seen      map[string]struct{}
	exhausted []bool
	counts    []int // queries issued per template, for the log
}

func newGenerator(ds *datagen.Dataset, seed int64) (*generator, error) {
	g := &generator{rng: rand.New(rand.NewSource(seed)), seen: make(map[string]struct{})}
	for _, src := range workload.TemplatesFor(ds.Name) {
		t, err := compileTemplate(ds, src)
		if err != nil {
			return nil, err
		}
		g.templates = append(g.templates, t)
	}
	if len(g.templates) == 0 {
		return nil, fmt.Errorf("gen: no templates for benchmark %q", ds.Name)
	}
	g.exhausted = make([]bool, len(g.templates))
	g.counts = make([]int, len(g.templates))
	return g, nil
}

// draw picks one literal for a column: any value of a numeric column's
// range, one of the sampled values of a string column.
func (g *generator) draw(col *catalog.ColumnStats) catalog.Value {
	v := col.Sample[g.rng.Intn(len(col.Sample))]
	if !v.IsStr && col.Max > col.Min {
		v.I = col.Min + g.rng.Int63n(col.Max-col.Min+1)
	}
	return v
}

// instantiate fills template ti once; the text may repeat an earlier one.
func (g *generator) instantiate(ti int) string {
	t := g.templates[ti]
	var sb strings.Builder
	last := make(map[string]catalog.Value, len(t.slots))
	for i, s := range t.slots {
		sb.WriteString(t.text[i])
		var v catalog.Value
		if base, ok := last[s.key]; s.anch && ok {
			v = base
		} else {
			v = g.draw(s.col)
		}
		if s.anch {
			d := s.delta
			if v.IsFloat {
				d *= 100
			}
			v.I += d
		} else {
			last[s.key] = v
		}
		sb.WriteString(renderLiteral(v))
	}
	sb.WriteString(t.text[len(t.slots)])
	return sb.String()
}

// renderLiteral formats a constant the way internal/workload does.
func renderLiteral(v catalog.Value) string {
	switch {
	case v.IsStr:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case v.IsFloat:
		frac := v.I % 100
		if frac < 0 {
			frac = -frac
		}
		return fmt.Sprintf("%d.%02d", v.I/100, frac)
	}
	return strconv.FormatInt(v.I, 10)
}

// maxRejects is how many repeats in a row mark a template's literal
// domain as used up.
const maxRejects = 64

// unique returns n SQL texts never returned before, in seeded random
// order. Templates share the n in proportion to their domains; one that
// runs dry all the same gives what it has and the others make up the
// difference.
func (g *generator) unique(n int) ([]string, error) {
	out := make([]string, 0, n)
	for len(out) < n {
		var active []int
		total := 0.0
		for ti := range g.templates {
			if !g.exhausted[ti] {
				active = append(active, ti)
				total += g.templates[ti].domain
			}
		}
		if len(active) == 0 {
			return nil, fmt.Errorf("gen: every template's literal domain is used up after %d queries", len(g.seen))
		}
		need := float64(n - len(out))
		for _, ti := range active {
			share := int(math.Ceil(need * g.templates[ti].domain / total))
			rejects := 0
			for got := 0; got < share && len(out) < n; {
				sql := g.instantiate(ti)
				if _, dup := g.seen[sql]; dup {
					if rejects++; rejects >= maxRejects {
						g.exhausted[ti] = true
						break
					}
					continue
				}
				rejects = 0
				g.seen[sql] = struct{}{}
				out = append(out, sql)
				g.counts[ti]++
				got++
			}
		}
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// perTemplate returns one never-seen query per template: the template-tier
// primer. Templates without a free literal vector are skipped.
func (g *generator) perTemplate() []string {
	var out []string
	for ti := range g.templates {
		if g.exhausted[ti] {
			continue
		}
		for rejects := 0; rejects < maxRejects; rejects++ {
			sql := g.instantiate(ti)
			if _, dup := g.seen[sql]; !dup {
				g.seen[sql] = struct{}{}
				g.counts[ti]++
				out = append(out, sql)
				break
			}
		}
	}
	return out
}

// mixLine renders the per-template query counts for the run log.
func (g *generator) mixLine() string {
	var sb strings.Builder
	for ti, c := range g.counts {
		fmt.Fprintf(&sb, " Q%d=%d", ti+1, c)
		if g.exhausted[ti] {
			sb.WriteByte('!')
		}
	}
	return sb.String()
}

// request is one pre-built HTTP request body plus what the oracle needs
// to re-price it.
type request struct {
	env  int
	sqls []string
	body []byte
}

func singleRequest(env int, sql string) request {
	body, _ := json.Marshal(serve.EstimateRequest{Env: env, SQL: sql})
	return request{env: env, sqls: []string{sql}, body: body}
}

func batchRequest(env int, sqls []string) request {
	body, _ := json.Marshal(serve.BatchRequest{Env: env, SQLs: sqls})
	return request{env: env, sqls: sqls, body: body}
}

// envOf spreads queries over the trained environments in blocks of 64, so
// that any aligned run of 64 consecutive queries shares one environment
// and can travel as one batch.
func envOf(envs []int, i int) int { return envs[(i/64)%len(envs)] }

// singles wraps queries as /estimate requests.
func singles(envs []int, sqls []string) []request {
	out := make([]request, len(sqls))
	for i, sql := range sqls {
		out[i] = singleRequest(envOf(envs, i), sql)
	}
	return out
}

// batches wraps queries as /estimate_batch requests of the given size;
// batch b runs under environment b mod len(envs).
func batches(envs []int, sqls []string, size int) []request {
	var out []request
	for b := 0; (b+1)*size <= len(sqls); b++ {
		out = append(out, batchRequest(envs[b%len(envs)], sqls[b*size:(b+1)*size]))
	}
	return out
}
