package sqlparse_test

import (
	"regexp"
	"strings"
	"testing"
	"unicode"

	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// placeholderRe matches the {table.column} and {table.column+N} slots of
// internal/workload's templates.
var placeholderRe = regexp.MustCompile(`\{[^}]*\}`)

// slotLiterals are spliced into template slots in rotation: integers,
// negatives, fractions, strings, a string with an escaped quote, and a
// number out of int64's range (a lexable token Fingerprint must reject).
var slotLiterals = []string{"42", "'BUILDING'", "-7", "3.25", "'it''s'", "0", "'%x%'", "99999999999999999999"}

// filledTemplates returns every tpch, imdb and sysbench template of
// internal/workload with its slots filled from lits in rotation.
func filledTemplates(t testing.TB, lits []string) []string {
	t.Helper()
	var out []string
	slot := 0
	for _, name := range []string{"tpch", "imdb", "sysbench"} {
		templates := workload.TemplatesFor(name)
		if len(templates) == 0 {
			t.Fatalf("no templates for %s", name)
		}
		for _, tpl := range templates {
			out = append(out, placeholderRe.ReplaceAllStringFunc(tpl, func(string) string {
				slot++
				return lits[slot%len(lits)]
			}))
		}
	}
	return out
}

// respell returns odd spellings of one statement: case swapped and
// folded, whitespace stretched into tabs and newlines, and spacing around
// punctuation and operators removed or added.
func respell(sql string) []string {
	swap := strings.Map(func(r rune) rune {
		if unicode.IsUpper(r) {
			return unicode.ToLower(r)
		}
		return unicode.ToUpper(r)
	}, sql)
	tight := strings.NewReplacer(" = ", "=", " < ", "<", " > ", ">", " <= ", "<=", " >= ", ">=", " <> ", "!=", ", ", ",", " (", "(").Replace(sql)
	loose := strings.NewReplacer("(", " ( ", ")", " ) ", ",", " , ", ".", " . ", "=", " = ").Replace(sql)
	return []string{
		swap,
		strings.ToLower(sql),
		strings.ToUpper(sql),
		strings.ReplaceAll(sql, " ", "\t\n  \r"),
		tight,
		loose,
		"  " + sql + " ;",
	}
}

// TestFingerprintMatchesReference is the differential test behind the
// single-pass Fingerprint: over the collision corpus, every benchmark
// template (each slot filled with literals of every kind), the fuzz seed
// corpus, and odd spellings of all of them, the product lexer,
// Fingerprint and Signature agree with the pre-rewrite reference byte for
// byte.
func TestFingerprintMatchesReference(t *testing.T) {
	var corpus []string
	for _, p := range sqlparse.CollisionCorpus {
		corpus = append(corpus, p[0], p[1])
	}
	corpus = append(corpus, sqlparse.FuzzSeeds...)
	corpus = append(corpus, filledTemplates(t, slotLiterals)...)
	// Shapes the lexer rejects or nearly rejects.
	corpus = append(corpus,
		"", " ", ";", "SELECT 'unterminated", "SELECT 1.2.3", "SELECT a ! b", "SELECT a - b", "SELECT #",
		"SELECT 0 . x", "SELECT 1.", "SELECT -.5", "SELECT ''", "SELECT ''''", "SELECT 'a''",
		"SELECT caf\xe9 FROM t", "SELECT \xc4\xb0N FROM t", "SELECT MAX (x), max(x), Sum(y) FROM t",
	)
	n := 0
	for _, sql := range corpus {
		sqlparse.CheckAgainstReference(t, sql)
		n++
		for _, alt := range respell(sql) {
			sqlparse.CheckAgainstReference(t, alt)
			n++
		}
	}
	t.Logf("%d spellings agree with the reference", n)
}
