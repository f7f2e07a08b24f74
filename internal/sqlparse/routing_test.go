package sqlparse_test

import (
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/sqlparse"
)

// plainLiterals fill template slots for the allocation test: every kind
// the templates take, minus the two that allocate on their own path (an
// escaped quote is unescaped into a fresh string; an out-of-range number
// builds an error).
var plainLiterals = []string{"42", "'BUILDING'", "-7", "3.25", "'%x%'", "0"}

// TestRoutingHashZeroAlloc: the router hashes every routed query, so
// RoutingHash normalizes into the pooled fingerprint scratch and hashes
// it in place — 0 allocs/op over every benchmark template.
func TestRoutingHashZeroAlloc(t *testing.T) {
	if raceEnabled() {
		t.Skip("under the race detector sync.Pool drops a share of its puts")
	}
	for _, sql := range filledTemplates(t, plainLiterals) {
		want := sqlparse.RefRoutingHash(sql)
		allocs := testing.AllocsPerRun(100, func() {
			if sqlparse.RoutingHash(sql) != want {
				t.Fatalf("RoutingHash(%q) != reference %#x", sql, want)
			}
		})
		if allocs != 0 {
			t.Fatalf("RoutingHash(%q) allocates %.2f allocs/op, want 0", sql, allocs)
		}
	}
}

// TestRoutingHashConcurrent: goroutines sharing the fpPool scratch never
// see each other's buffers — every hash equals the reference, for
// lexable templates and unlexable text alike.
func TestRoutingHashConcurrent(t *testing.T) {
	corpus := append(filledTemplates(t, slotLiterals), "SELECT 'unterminated", "SELECT #", "SELECT 1.2.3")
	want := make([]uint64, len(corpus))
	for i, sql := range corpus {
		want[i] = sqlparse.RefRoutingHash(sql)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (g*131 + i) % len(corpus)
				if got := sqlparse.RoutingHash(corpus[k]); got != want[k] {
					t.Errorf("RoutingHash(%q) = %#x, reference %#x", corpus[k], got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}
