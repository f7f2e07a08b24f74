package sqlparse

import (
	"strconv"
	"strings"
	"testing"
)

// Native fuzz targets for the cache's normalization front end. The
// properties here are the ones the query cache's correctness rests on:
// Fingerprint must be idempotent (a template re-fingerprints to
// itself), placeholder and literal counts must agree, and the
// Clone+BindLiterals path must reproduce a parsed query exactly from
// its own literal vector — the template tier serves plans rebuilt this
// way. CI runs each target for a short -fuzztime on every push; the
// seed corpus is the collision/normalization test corpus.

// fuzzSeeds is the seed corpus: every spelling the deterministic tests
// exercise, plus shapes that historically trip lexers (escaped quotes,
// NUL bytes, negative and fractional numbers, LIMIT -1).
var fuzzSeeds = []string{
	"SELECT * FROM orders WHERE o_totalprice > 1000",
	"select\t*   FROM orders\nWHERE o_totalprice>1000",
	"SELECT COUNT(*) FROM lineitem WHERE l_quantity BETWEEN 5 AND 24.5 LIMIT 10",
	"SELECT c.c_name FROM customer c WHERE c.c_mktsegment IN ('BUILDING', 'AUTO')",
	"SELECT * FROM t1 JOIN t2 ON t1.a = t2.b WHERE t1.x LIKE 'ab%'",
	"SELECT * FROM t WHERE a = 1",
	"select  *  from t WHERE a=99",
	"SELECT * FROM t WHERE s = 'x'",
	"SELECT * FROM t WHERE a IN (1, 2)",
	"SELECT * FROM t LIMIT 5",
	"SELECT * FROM t WHERE a = 'one'",
	"SELECT * FROM t WHERE a = 1 AND b = 2",
	"SELECT * FROM T WHERE a = 1",
	"SELECT COUNT(*) FROM t",
	"SELECT * FROM t WHERE a = 'don''t' AND b = 'A\x00sB'",
	"SELECT * FROM t WHERE a = -5 AND b < -2.75",
	"SELECT k FROM sbtest1 WHERE k < 9 ORDER BY k LIMIT 3",
	"SELECT * FROM t WHERE a = 1 LIMIT -1",
	"SELECT avg(x) FROM t GROUP BY y ORDER BY y DESC",
	"SELECT * FROM t WHERE s LIKE '%?%'",
}

// respliceLiterals rebuilds SQL text from a fingerprint template and
// its literal vector: each `?` placeholder is replaced by the
// corresponding literal's source spelling (strings re-quoted with ”
// escaping). Because `?` is not lexable, every `?` in a fingerprint is
// a placeholder, so the split is exact.
func respliceLiterals(t *testing.T, fp string, lits []Literal) string {
	t.Helper()
	parts := strings.Split(fp, "?")
	if len(parts) != len(lits)+1 {
		t.Fatalf("fingerprint %q has %d placeholders for %d literals", fp, len(parts)-1, len(lits))
	}
	var sb strings.Builder
	for i, part := range parts {
		sb.WriteString(part)
		if i < len(lits) {
			if lits[i].Str {
				sb.WriteByte('\'')
				sb.WriteString(strings.ReplaceAll(lits[i].Raw, "'", "''"))
				sb.WriteByte('\'')
			} else {
				sb.WriteString(lits[i].Raw)
			}
		}
	}
	return sb.String()
}

// FuzzFingerprint asserts, for every input the fuzzer invents:
//
//   - no panic, on any byte sequence;
//   - agreement with the pre-rewrite reference implementation: same
//     tokens, fingerprint, literal vector, signature and error-ness;
//   - placeholder count == extracted literal count;
//   - idempotence: splicing the literals back into the template and
//     re-fingerprinting reproduces the same template and the same
//     literal vector (so a fingerprint is a fixed point of
//     normalization — two spellings cannot normalize to templates that
//     themselves normalize differently);
//   - for inputs that also parse: binding the query's own literal
//     vector into a clone of its AST reproduces the AST exactly, and
//     never mutates the skeleton (the template-tier rebind contract).
func FuzzFingerprint(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		checkAgainstReference(t, sql)
		fp, lits, err := Fingerprint(sql)
		if err != nil {
			// Unlexable input: the cache falls back to the parse path,
			// whose own error is authoritative. Nothing more to check.
			return
		}
		respliced := respliceLiterals(t, fp, lits)
		fp2, lits2, err := Fingerprint(respliced)
		if err != nil {
			t.Fatalf("resplice of %q does not re-fingerprint: %v (template %q)", sql, err, fp)
		}
		if fp2 != fp {
			t.Fatalf("not idempotent: %q -> %q, resplice -> %q", sql, fp, fp2)
		}
		if len(lits2) != len(lits) {
			t.Fatalf("literal count changed across resplice: %d -> %d", len(lits), len(lits2))
		}
		for i := range lits {
			if lits2[i].Raw != lits[i].Raw || lits2[i].Str != lits[i].Str {
				t.Fatalf("literal %d changed across resplice: %+v -> %+v", i, lits[i], lits2[i])
			}
		}
		if Signature(lits) != Signature(lits2) {
			t.Fatalf("signature changed across resplice")
		}

		q, perr := Parse(sql)
		if perr != nil {
			return
		}
		before := q.String()
		clone := q.Clone()
		if berr := clone.BindLiterals(lits); berr == nil {
			if clone.String() != before {
				t.Fatalf("Clone+BindLiterals did not round-trip:\n  query %q\n  bound %q", before, clone.String())
			}
		}
		// Bind (success or failure) must never write through the clone
		// into the source AST.
		if q.String() != before {
			t.Fatalf("BindLiterals on a clone mutated the source: %q -> %q", before, q.String())
		}
	})
}

// decodeSignature inverts Signature's framing: kind byte, decimal
// length, ':', then exactly that many raw bytes. Signature is injective
// iff this decode round-trips, which is what the fuzz target asserts.
func decodeSignature(sig string) ([]Literal, bool) {
	var out []Literal
	i := 0
	for i < len(sig) {
		if sig[i] != 'n' && sig[i] != 's' {
			return nil, false
		}
		isStr := sig[i] == 's'
		i++
		j := i
		for j < len(sig) && sig[j] != ':' {
			if sig[j] < '0' || sig[j] > '9' {
				return nil, false
			}
			j++
		}
		if j == i || j == len(sig) {
			return nil, false
		}
		n, err := strconv.Atoi(sig[i:j])
		if err != nil || j+1+n > len(sig) {
			return nil, false
		}
		out = append(out, Literal{Raw: sig[j+1 : j+1+n], Str: isStr})
		i = j + 1 + n
	}
	return out, true
}

// FuzzSignature asserts the cache-key encoding is injective on
// arbitrary literal vectors: no panic, the signature decodes back to
// exactly the (kind, raw) sequence that produced it — however
// adversarial the raw bytes (separators, digits, NULs, colons) — and a
// prefix of the vector always yields a prefix of the signature.
func FuzzSignature(f *testing.F) {
	f.Add("1", false, "x", true)
	f.Add("", true, "", false)
	f.Add("n3:ab", false, ":", true)      // raw bytes that mimic the framing
	f.Add("A\x00sB", true, "don't", true) // NULs and quotes
	f.Add("-24.5", false, "12", true)     // digit strings across kinds
	f.Fuzz(func(t *testing.T, r1 string, s1 bool, r2 string, s2 bool) {
		lits := []Literal{{Raw: r1, Str: s1}, {Raw: r2, Str: s2}}
		sig := Signature(lits)
		dec, ok := decodeSignature(sig)
		if !ok {
			t.Fatalf("signature %q is not decodable", sig)
		}
		if len(dec) != len(lits) {
			t.Fatalf("decoded %d literals, want %d (sig %q)", len(dec), len(lits), sig)
		}
		for i := range lits {
			if dec[i].Raw != lits[i].Raw || dec[i].Str != lits[i].Str {
				t.Fatalf("literal %d: decoded %+v != %+v (sig %q)", i, dec[i], lits[i], sig)
			}
		}
		if prefix := Signature(lits[:1]); !strings.HasPrefix(sig, prefix) {
			t.Fatalf("signature of a prefix (%q) is not a prefix of the signature (%q)", prefix, sig)
		}
		if Signature(nil) != "" {
			t.Fatal("empty vector must have empty signature")
		}
	})
}
