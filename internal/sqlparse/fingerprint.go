package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/catalog"
)

// This file is the normalization front end of the query-fingerprint cache
// (internal/qcache): Fingerprint maps every textual spelling of one query
// template to one canonical key, and the extracted literals let the
// cache's template tier re-bind a cached plan skeleton to a new literal
// vector (Query.BindLiterals) instead of re-parsing from scratch.

// Literal is one literal stripped out of a query during fingerprinting,
// in source order. Val is the parsed value exactly as the parser would
// have produced it; Raw is the source spelling (the literal-signature
// component — two spellings of the same value hash to distinct
// signatures, which costs a duplicate cache entry but can never alias
// two different queries).
type Literal struct {
	Val catalog.Value
	Raw string
	Str bool // string literal (Raw is the unescaped text)
}

// Signature folds a literal list into one cache-key component. Each
// literal is tagged with its kind and length-prefixed — framing by
// length rather than by a separator keeps the encoding injective even
// when a string literal contains the separator byte itself — so
// distinct literal vectors always produce distinct signatures and a
// (fingerprint, signature) pair identifies one exact query semantics.
func Signature(lits []Literal) string {
	if len(lits) == 0 {
		return ""
	}
	// The signature is retained as part of a cache key: size it exactly.
	size := 0
	for _, l := range lits {
		size += 1 + decimalLen(len(l.Raw)) + 1 + len(l.Raw)
	}
	var sb strings.Builder
	sb.Grow(size)
	var num [20]byte
	for _, l := range lits {
		kind := byte('n')
		if l.Str {
			kind = 's'
		}
		sb.WriteByte(kind)
		sb.Write(strconv.AppendInt(num[:0], int64(len(l.Raw)), 10))
		sb.WriteByte(':')
		sb.WriteString(l.Raw)
	}
	return sb.String()
}

// decimalLen is the number of decimal digits of n ≥ 0.
func decimalLen(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// maxKeyword is the longest keyword's length ("between").
const maxKeyword = 7

// keyword classifies an identifier against the grammar's keyword set,
// case-insensitively and without allocating; agg marks the function-like
// keywords. Fingerprint lowercases exactly the keywords (identifiers keep
// their spelling, so two tables differing only in case cannot collide
// onto one fingerprint). Keywords are ASCII letters only, so any other
// byte settles the answer: no case mapping turns an identifier this
// lexer accepts into one of them.
func keyword(ident string) (kw, agg bool) {
	if len(ident) > maxKeyword {
		return false, false
	}
	var low [maxKeyword]byte
	for i := 0; i < len(ident); i++ {
		c := ident[i] | 0x20
		if c < 'a' || c > 'z' {
			return false, false
		}
		low[i] = c
	}
	switch string(low[:len(ident)]) {
	case "count", "sum", "avg", "min", "max":
		return true, true
	case "select", "from", "where", "and", "join", "inner", "on",
		"group", "order", "by", "limit", "desc", "asc",
		"between", "like", "in":
		return true, false
	}
	return false, false
}

// fpScratch is Fingerprint's working memory: the template under
// construction and the literals found so far. Both results are copied
// out at their exact size before the scratch goes back to fpPool, so
// nothing a caller holds — fingerprints and literal vectors become cache
// keys — ever aliases it.
type fpScratch struct {
	buf  []byte
	lits []Literal
}

var fpPool = sync.Pool{New: func() any { return new(fpScratch) }}

// maxPooledFingerprint caps the template buffer an idle scratch may pin;
// one that a huge statement inflated is dropped instead.
const maxPooledFingerprint = 64 << 10

func (sc *fpScratch) release() {
	clear(sc.lits) // a pooled scratch must not pin the caller's SQL text
	if cap(sc.buf) <= maxPooledFingerprint {
		fpPool.Put(sc)
	}
}

// Fingerprint normalizes one SQL statement into its template form:
// keywords lowercased, literals stripped (each becomes a `?`), whitespace
// canonicalized to single spaces with SQL-ish punctuation spacing. It
// returns the normalized template plus the stripped literals in source
// order. Queries that differ only in literal values, keyword case, or
// whitespace share a fingerprint; any structural difference — one more IN
// element, a different column, an extra predicate — changes it.
//
// Fingerprint only lexes; a string that fingerprints successfully can
// still fail to parse. Callers fall back to the ordinary parse path on
// error, so the error text here never reaches users.
func Fingerprint(sql string) (string, []Literal, error) {
	sc := fpPool.Get().(*fpScratch)
	defer sc.release()
	if err := sc.normalize(sql); err != nil {
		return "", nil, err
	}
	return string(sc.buf), append([]Literal(nil), sc.lits...), nil
}

// normalize is the single pass behind Fingerprint: each token is scanned,
// spaced and appended to sc.buf as it is met, keywords folded to lower
// case in place, literals set aside in sc.lits.
func (sc *fpScratch) normalize(sql string) error {
	buf, lits := sc.buf[:0], sc.lits[:0]
	l := lexer{src: sql}
	prev, prevAgg := token{kind: tokEOF}, false
	var err error
scan:
	for {
		var t token
		if t, err = l.next(); err != nil || t.kind == tokEOF {
			break
		}
		if len(buf) > 0 && spaceBetween(prev, prevAgg, t) {
			buf = append(buf, ' ')
		}
		prevAgg = false
		switch t.kind {
		case tokIdent:
			kw, agg := keyword(t.text)
			at := len(buf)
			buf = append(buf, t.text...)
			if kw {
				for i := at; i < len(buf); i++ {
					buf[i] |= 0x20
				}
			}
			prevAgg = agg
		case tokNumber:
			var v catalog.Value
			if v, err = numberValue(t.text); err != nil {
				err = fmt.Errorf("sqlparse: fingerprint: %w", err)
				break scan
			}
			lits = append(lits, Literal{Val: v, Raw: t.text})
			buf = append(buf, '?')
		case tokString:
			lits = append(lits, Literal{Val: catalog.StrVal(t.text), Raw: t.text, Str: true})
			buf = append(buf, '?')
		default:
			buf = append(buf, t.text...)
		}
		prev = t
	}
	sc.buf, sc.lits = buf, lits // keep the grown capacity
	return err
}

// spaceBetween decides canonical spacing: none around '.', none before
// ',', ')' and ';', none after '(', none between a function keyword
// (prevAgg) and its '(' — a '(' following one is a call (`count(*)`),
// while a '(' after anything else is a list (`in (?, ?)`). One exception
// keeps templates unambiguous: a number keeps its space before a
// following '.' — fused, the placeholder's literal would re-lex into the
// dot as one float ("0 ." vs "0."), so the template would not be a fixed
// point of normalization. Qualified names (ident '.' ident), the only
// '.' the grammar produces, stay tight.
func spaceBetween(prev token, prevAgg bool, cur token) bool {
	if prev.kind == tokPunct && (prev.text == "." || prev.text == "(") {
		return false
	}
	if cur.kind == tokPunct {
		switch cur.text {
		case ".", ",", ")", ";":
			return cur.text == "." && prev.kind == tokNumber
		case "(":
			return !prevAgg
		}
	}
	return true
}

// numberValue converts a number token to a Value exactly the way the
// parser's literal production does, so a template-tier rebind sees the
// same values a fresh parse would.
func numberValue(text string) (catalog.Value, error) {
	if strings.Contains(text, ".") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return catalog.Value{}, err
		}
		return catalog.FloatVal(f), nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return catalog.Value{}, err
	}
	return catalog.IntVal(n), nil
}
