package sqlparse

import (
	"testing"
)

func mustFingerprint(t *testing.T, sql string) (string, []Literal) {
	t.Helper()
	fp, lits, err := Fingerprint(sql)
	if err != nil {
		t.Fatalf("Fingerprint(%q): %v", sql, err)
	}
	return fp, lits
}

func TestFingerprintNormalization(t *testing.T) {
	cases := []struct {
		sql  string
		want string
		lits []string
	}{
		{
			sql:  "SELECT * FROM orders WHERE o_totalprice > 1000",
			want: "select * from orders where o_totalprice > ?",
			lits: []string{"1000"},
		},
		{
			// Keyword case and whitespace are canonicalized away.
			sql:  "select\t*   FROM orders\nWHERE o_totalprice>1000",
			want: "select * from orders where o_totalprice > ?",
			lits: []string{"1000"},
		},
		{
			sql:  "SELECT COUNT(*) FROM lineitem WHERE l_quantity BETWEEN 5 AND 24.5 LIMIT 10",
			want: "select count(*) from lineitem where l_quantity between ? and ? limit ?",
			lits: []string{"5", "24.5", "10"},
		},
		{
			sql:  "SELECT c.c_name FROM customer c WHERE c.c_mktsegment IN ('BUILDING', 'AUTO')",
			want: "select c.c_name from customer c where c.c_mktsegment in (?, ?)",
			lits: []string{"BUILDING", "AUTO"},
		},
		{
			sql:  "SELECT * FROM t1 JOIN t2 ON t1.a = t2.b WHERE t1.x LIKE 'ab%'",
			want: "select * from t1 join t2 on t1.a = t2.b where t1.x like ?",
			lits: []string{"ab%"},
		},
	}
	for _, c := range cases {
		fp, lits := mustFingerprint(t, c.sql)
		if fp != c.want {
			t.Errorf("Fingerprint(%q) = %q, want %q", c.sql, fp, c.want)
		}
		if len(lits) != len(c.lits) {
			t.Fatalf("Fingerprint(%q) literals = %d, want %d", c.sql, len(lits), len(c.lits))
		}
		for i, l := range lits {
			if l.Raw != c.lits[i] {
				t.Errorf("Fingerprint(%q) literal %d = %q, want %q", c.sql, i, l.Raw, c.lits[i])
			}
		}
	}
}

// The collision corpus: pairs that must share a fingerprint and pairs
// that must not. The differential test replays every spelling here
// against the reference implementation too.
var (
	collisionSame = [][2]string{
		{"SELECT * FROM t WHERE a = 1", "SELECT * FROM t WHERE a = 2"},
		{"SELECT * FROM t WHERE a = 1", "select  *  from t WHERE a=99"},
		{"SELECT * FROM t WHERE s = 'x'", "SELECT * FROM t WHERE s = 'yy'"},
		{"SELECT * FROM t WHERE a IN (1, 2)", "SELECT * FROM t WHERE a IN (7, 8)"},
		{"SELECT * FROM t LIMIT 5", "SELECT * FROM t LIMIT 500"},
		// A numeric literal and a string literal in the same slot share
		// the template; the literal signature still separates the entries.
		{"SELECT * FROM t WHERE a = 1", "SELECT * FROM t WHERE a = 'one'"},
	}
	collisionDiff = [][2]string{
		{"SELECT * FROM t WHERE a = 1", "SELECT * FROM t WHERE b = 1"},
		{"SELECT * FROM t WHERE a = 1", "SELECT * FROM t WHERE a > 1"},
		{"SELECT * FROM t WHERE a IN (1, 2)", "SELECT * FROM t WHERE a IN (1, 2, 3)"},
		{"SELECT * FROM t WHERE a = 1", "SELECT * FROM t WHERE a = 1 AND b = 2"},
		{"SELECT * FROM t WHERE a = 1", "SELECT * FROM t WHERE a = 1 LIMIT 3"},
		{"SELECT * FROM t WHERE a = 1", "SELECT * FROM T WHERE a = 1"}, // identifier case preserved
		{"SELECT COUNT(*) FROM t", "SELECT * FROM t"},
	}
)

// TestFingerprintCollisions pins the aliasing rules: literal values must
// collapse onto one fingerprint, while every structural difference —
// different column, different operator, different IN arity, extra
// conjunct, LIMIT presence — must separate.
func TestFingerprintCollisions(t *testing.T) {
	for _, p := range collisionSame {
		f1, _ := mustFingerprint(t, p[0])
		f2, _ := mustFingerprint(t, p[1])
		if f1 != f2 {
			t.Errorf("want collision:\n  %q -> %q\n  %q -> %q", p[0], f1, p[1], f2)
		}
	}
	for _, p := range collisionDiff {
		f1, _ := mustFingerprint(t, p[0])
		f2, _ := mustFingerprint(t, p[1])
		if f1 == f2 {
			t.Errorf("want distinct fingerprints, both = %q:\n  %q\n  %q", f1, p[0], p[1])
		}
	}
}

func TestSignatureDistinguishesValues(t *testing.T) {
	sigOf := func(sql string) string {
		_, lits := mustFingerprint(t, sql)
		return Signature(lits)
	}
	if sigOf("SELECT * FROM t WHERE a = 1") == sigOf("SELECT * FROM t WHERE a = 2") {
		t.Fatal("signatures must differ for different literal values")
	}
	// Kind tagging: the number 1 and the string '1' must not alias.
	if sigOf("SELECT * FROM t WHERE a = 1") == sigOf("SELECT * FROM t WHERE a = '1'") {
		t.Fatal("signatures must differ across literal kinds")
	}
	if sigOf("SELECT * FROM t WHERE a = 5") != sigOf("SELECT * FROM t WHERE a   =   5") {
		t.Fatal("signature must ignore whitespace")
	}
	// Injectivity under adversarial content: a NUL (or any separator-ish
	// byte) inside a string literal must not let two different literal
	// vectors collapse onto one signature — the length prefix frames
	// each literal.
	if sigOf("SELECT * FROM t WHERE a = 'A\x00sB' AND b = 'C'") ==
		sigOf("SELECT * FROM t WHERE a = 'A' AND b = 'B\x00sC'") {
		t.Fatal("signatures must stay injective for literals containing NUL bytes")
	}
	if sigOf("SELECT * FROM t WHERE a = 'x1' AND b = '2'") ==
		sigOf("SELECT * FROM t WHERE a = 'x' AND b = '12'") {
		t.Fatal("signatures must not be boundary-ambiguous")
	}
	if Signature(nil) != "" {
		t.Fatal("empty literal vector must have empty signature")
	}
}

// TestBindLiteralsRoundTrip is the template-tier correctness property:
// binding query B's literals into query A's parsed skeleton (same
// fingerprint) reproduces B's own parse exactly.
func TestBindLiteralsRoundTrip(t *testing.T) {
	pairs := [][2]string{
		{
			"SELECT * FROM orders WHERE o_totalprice > 1000",
			"SELECT * FROM orders WHERE o_totalprice > 250.75",
		},
		{
			"SELECT COUNT(*) FROM lineitem WHERE l_quantity BETWEEN 5 AND 24 LIMIT 10",
			"SELECT COUNT(*) FROM lineitem WHERE l_quantity BETWEEN 1 AND 99 LIMIT 3",
		},
		{
			"SELECT * FROM t WHERE a IN (1, 2, 3) AND s LIKE 'x%'",
			"SELECT * FROM t WHERE a IN (9, 8, 7) AND s LIKE 'longer%'",
		},
		{
			"SELECT c.c_name FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey WHERE o.o_totalprice < 10",
			"SELECT c.c_name FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey WHERE o.o_totalprice < 88",
		},
	}
	for _, p := range pairs {
		fa, _ := mustFingerprint(t, p[0])
		fb, litsB := mustFingerprint(t, p[1])
		if fa != fb {
			t.Fatalf("test pair must share a fingerprint:\n  %q\n  %q", p[0], p[1])
		}
		skel, err := Parse(p[0])
		if err != nil {
			t.Fatal(err)
		}
		want, err := Parse(p[1])
		if err != nil {
			t.Fatal(err)
		}
		got := skel.Clone()
		if err := got.BindLiterals(litsB); err != nil {
			t.Fatalf("BindLiterals: %v", err)
		}
		if got.String() != want.String() {
			t.Errorf("bound skeleton = %q, want %q", got.String(), want.String())
		}
		// The skeleton itself must be untouched (clone isolation).
		orig, _ := Parse(p[0])
		if skel.String() != orig.String() {
			t.Errorf("skeleton mutated by bind: %q", skel.String())
		}
	}
}

func TestBindLiteralsMismatch(t *testing.T) {
	q, err := Parse("SELECT * FROM t WHERE a = 1 AND b = 2")
	if err != nil {
		t.Fatal(err)
	}
	_, lits := mustFingerprint(t, "SELECT * FROM t WHERE a = 1")
	if err := q.Clone().BindLiterals(lits); err == nil {
		t.Fatal("want error for too few literals")
	}
	_, lits3 := mustFingerprint(t, "SELECT * FROM t WHERE a = 1 AND b = 2 AND c = 3")
	if err := q.Clone().BindLiterals(lits3); err == nil {
		t.Fatal("want error for too many literals")
	}
	// One extra literal binds LIMIT — but only an integer may.
	ql, err := Parse("SELECT * FROM t WHERE a = 1 LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	_, badLimit := mustFingerprint(t, "SELECT * FROM t WHERE a = 1 LIMIT 2.5")
	if err := ql.Clone().BindLiterals(badLimit); err == nil {
		t.Fatal("want error for float LIMIT literal")
	}
	_, goodLimit := mustFingerprint(t, "SELECT * FROM t WHERE a = 7 LIMIT 42")
	bound := ql.Clone()
	if err := bound.BindLiterals(goodLimit); err != nil {
		t.Fatal(err)
	}
	if bound.Limit != 42 || bound.Preds[0].Args[0].I != 7 {
		t.Fatalf("bound limit=%d args=%v", bound.Limit, bound.Preds[0].Args)
	}
}
