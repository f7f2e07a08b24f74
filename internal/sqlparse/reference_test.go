package sqlparse

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
)

// The reference implementation: Fingerprint, Signature and the lexer
// under them exactly as they stood before the single-pass rewrite (only
// the names carry a ref prefix). The differential tests and
// FuzzFingerprint hold the product code to these byte for byte —
// fingerprints and signatures are cache keys, and the fingerprint's
// FNV-1a-64 (refRoutingHash) is router placement.

// refLexer is the slice-building lexer as it stood before the pull-style
// rewrite.
type refLexer struct {
	src  string
	pos  int
	toks []token
}

func refLex(src string) ([]token, error) {
	l := &refLexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case isIdentStart(rune(c)):
			l.lexIdent()
		case c >= '0' && c <= '9' || (c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9'):
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '<' || c == '>' || c == '=' || c == '!':
			l.lexOp()
		case strings.ContainsRune("(),.*;", rune(c)):
			l.toks = append(l.toks, token{tokPunct, string(c), l.pos})
			l.pos++
		default:
			return nil, fmt.Errorf("sqlparse: unexpected character %q at %d", c, l.pos)
		}
	}
	l.toks = append(l.toks, token{tokEOF, "", l.pos})
	return l.toks, nil
}

func (l *refLexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	l.toks = append(l.toks, token{tokIdent, l.src[start:l.pos], start})
}

func (l *refLexer) lexNumber() error {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	dots := 0
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '.' {
			dots++
			if dots > 1 {
				return fmt.Errorf("sqlparse: malformed number at %d", start)
			}
			l.pos++
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		l.pos++
	}
	l.toks = append(l.toks, token{tokNumber, l.src[start:l.pos], start})
	return nil
}

func (l *refLexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' escapes a quote
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{tokString, sb.String(), start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sqlparse: unterminated string at %d", start)
}

func (l *refLexer) lexOp() {
	start := l.pos
	c := l.src[l.pos]
	l.pos++
	if l.pos < len(l.src) {
		two := string(c) + string(l.src[l.pos])
		switch two {
		case "<=", ">=", "<>", "!=":
			l.pos++
			if two == "!=" {
				two = "<>"
			}
			l.toks = append(l.toks, token{tokOp, two, start})
			return
		}
	}
	l.toks = append(l.toks, token{tokOp, string(c), start})
}

// refSignature folds a literal list into one cache-key component. Each
// literal is tagged with its kind and length-prefixed — framing by
// length rather than by a separator keeps the encoding injective even
// when a string literal contains the separator byte itself — so
// distinct literal vectors always produce distinct signatures and a
// (fingerprint, signature) pair identifies one exact query semantics.
func refSignature(lits []Literal) string {
	if len(lits) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, l := range lits {
		kind := byte('n')
		if l.Str {
			kind = 's'
		}
		fmt.Fprintf(&sb, "%c%d:", kind, len(l.Raw))
		sb.WriteString(l.Raw)
	}
	return sb.String()
}

// refKeywords is the grammar's keyword set; Fingerprint lowercases exactly
// these (identifiers keep their spelling, so two tables differing only in
// case cannot collide onto one fingerprint).
var refKeywords = map[string]bool{
	"select": true, "from": true, "where": true, "and": true,
	"join": true, "inner": true, "on": true,
	"group": true, "order": true, "by": true, "limit": true,
	"desc": true, "asc": true,
	"between": true, "like": true, "in": true,
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

// refFingerprint normalizes one SQL statement into its template form:
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
func refFingerprint(sql string) (string, []Literal, error) {
	toks, err := refLex(sql)
	if err != nil {
		return "", nil, err
	}
	var sb strings.Builder
	var lits []Literal
	prev := token{kind: tokEOF}
	for _, t := range toks {
		if t.kind == tokEOF {
			break
		}
		text := t.text
		switch t.kind {
		case tokIdent:
			if lower := strings.ToLower(text); refKeywords[lower] {
				text = lower
			}
		case tokNumber:
			v, err := numberValue(text)
			if err != nil {
				return "", nil, fmt.Errorf("sqlparse: fingerprint: %w", err)
			}
			lits = append(lits, Literal{Val: v, Raw: text})
			text = "?"
		case tokString:
			lits = append(lits, Literal{Val: catalog.StrVal(t.text), Raw: t.text, Str: true})
			text = "?"
		}
		if sb.Len() > 0 && refSpaceBetween(prev, t) {
			sb.WriteByte(' ')
		}
		sb.WriteString(text)
		prev = t
	}
	return sb.String(), lits, nil
}

// refAggFuncs are the function-like keywords; a '(' following one is a call
// and gets no space (`count(*)`), while a '(' after anything else is a
// list and does (`in (?, ?)`).
var refAggFuncs = map[string]bool{"count": true, "sum": true, "avg": true, "min": true, "max": true}

// refSpaceBetween decides canonical spacing: none around '.', none before
// ',', ')' and ';', none after '(', none between a function keyword and
// its '('. One exception keeps templates unambiguous: a number keeps
// its space before a following '.' — fused, the placeholder's literal
// would re-lex into the dot as one float ("0 ." vs "0."), so the
// template would not be a fixed point of normalization. Qualified
// names (ident '.' ident), the only '.' the grammar produces, stay
// tight.
func refSpaceBetween(prev, cur token) bool {
	if prev.kind == tokPunct && (prev.text == "." || prev.text == "(") {
		return false
	}
	if cur.kind == tokPunct {
		switch cur.text {
		case ".", ",", ")", ";":
			return cur.text == "." && prev.kind == tokNumber
		case "(":
			return !(prev.kind == tokIdent && refAggFuncs[strings.ToLower(prev.text)])
		}
	}
	return true
}

// refRoutingHash is RoutingHash as it stood before it hashed in place:
// hash/fnv's FNV-1a-64 of the reference fingerprint, or of the raw text
// when the reference rejects it.
func refRoutingHash(sql string) uint64 {
	key, _, err := refFingerprint(sql)
	if err != nil {
		key = sql
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// checkAgainstReference holds the product lexer, Fingerprint, Signature
// and RoutingHash to the reference on one input: identical token stream
// (and lexer error text — Parse hands it to users), identical
// fingerprint, literal vector, signature and routing hash, and the same
// error-ness (Fingerprint's error text never reaches users; the single
// pass may meet an out-of-range number before a later unlexable byte).
func checkAgainstReference(t testing.TB, sql string) {
	t.Helper()
	toks, lerr := lex(sql)
	refToks, refLerr := refLex(sql)
	if (lerr == nil) != (refLerr == nil) || (lerr != nil && lerr.Error() != refLerr.Error()) {
		t.Fatalf("lex(%q) error = %v, reference %v", sql, lerr, refLerr)
	}
	if !reflect.DeepEqual(toks, refToks) {
		t.Fatalf("lex(%q) = %v, reference %v", sql, toks, refToks)
	}

	fp, lits, err := Fingerprint(sql)
	refFp, refLits, refErr := refFingerprint(sql)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Fingerprint(%q) error = %v, reference %v", sql, err, refErr)
	}
	if fp != refFp {
		t.Fatalf("Fingerprint(%q) = %q, reference %q", sql, fp, refFp)
	}
	if !reflect.DeepEqual(lits, refLits) {
		t.Fatalf("Fingerprint(%q) literals = %#v, reference %#v", sql, lits, refLits)
	}
	if sig, refSig := Signature(lits), refSignature(refLits); sig != refSig {
		t.Fatalf("Signature of %q = %q, reference %q", sql, sig, refSig)
	}
	if h, refH := RoutingHash(sql), refRoutingHash(sql); h != refH {
		t.Fatalf("RoutingHash(%q) = %#x, reference %#x", sql, h, refH)
	}
}
