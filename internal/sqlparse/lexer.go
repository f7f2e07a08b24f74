// Package sqlparse implements the tokenizer, parser, and AST for the SQL
// subset used by all three benchmarks (TPC-H-style OLAP templates,
// job-light join queries, and Sysbench OLTP statements), as well as by the
// simplified templates of the paper's Algorithm 1:
//
//	SELECT list | COUNT(*) | AGG(col)
//	FROM t [alias] [, t2 | JOIN t2 ON a.x = b.y]...
//	WHERE col OP literal [AND ...]          OP ∈ =, <>, <, >, <=, >=, LIKE,
//	                                        IN (...), BETWEEN x AND y
//	GROUP BY cols  ORDER BY cols [DESC]  LIMIT n
//
// Join predicates may appear either in ON clauses or in the WHERE clause
// (implicit joins), matching how job-light queries are written.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp    // = <> < > <= >=
	tokPunct // ( ) , . * ;
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer converts SQL text into tokens, one per call to next. Keywords are
// returned as tokIdent; the parser matches them case-insensitively. Token
// text is a substring of the source wherever the two spell alike — only a
// string literal with an escaped quote is rebuilt — so scanning allocates
// nothing on the common path.
type lexer struct {
	src string
	pos int
}

// lex tokenizes the whole input for the parser, tokEOF last.
func lex(src string) ([]token, error) {
	l := lexer{src: src}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// next scans one token; at the end of input it returns tokEOF.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case isIdentStart(rune(c)):
			return l.lexIdent(), nil
		case c >= '0' && c <= '9' || (c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9'):
			return l.lexNumber()
		case c == '\'':
			return l.lexString()
		case c == '<' || c == '>' || c == '=' || c == '!':
			return l.lexOp(), nil
		case strings.IndexByte("(),.*;", c) >= 0:
			l.pos++
			return token{tokPunct, l.src[l.pos-1 : l.pos], l.pos - 1}, nil
		default:
			return token{}, fmt.Errorf("sqlparse: unexpected character %q at %d", c, l.pos)
		}
	}
	return token{tokEOF, "", l.pos}, nil
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentPart(r rune) bool  { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }

func (l *lexer) lexIdent() token {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	return token{tokIdent, l.src[start:l.pos], start}
}

func (l *lexer) lexNumber() (token, error) {
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
				return token{}, fmt.Errorf("sqlparse: malformed number at %d", start)
			}
			l.pos++
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		l.pos++
	}
	return token{tokNumber, l.src[start:l.pos], start}, nil
}

// lexString scans a quoted string; the token's text is the unescaped
// content.
func (l *lexer) lexString() (token, error) {
	start := l.pos
	l.pos++ // opening quote
	end := strings.IndexByte(l.src[l.pos:], '\'')
	if end < 0 {
		return token{}, fmt.Errorf("sqlparse: unterminated string at %d", start)
	}
	end += l.pos
	if end+1 >= len(l.src) || l.src[end+1] != '\'' {
		// No escaped quote: the content is the source text as written.
		text := l.src[l.pos:end]
		l.pos = end + 1
		return token{tokString, text, start}, nil
	}
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
			return token{tokString, sb.String(), start}, nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return token{}, fmt.Errorf("sqlparse: unterminated string at %d", start)
}

func (l *lexer) lexOp() token {
	start := l.pos
	l.pos++
	if l.pos < len(l.src) {
		switch two := l.src[start : l.pos+1]; two {
		case "<=", ">=", "<>":
			l.pos++
			return token{tokOp, two, start}
		case "!=":
			l.pos++
			return token{tokOp, "<>", start}
		}
	}
	return token{tokOp, l.src[start:l.pos], start}
}
