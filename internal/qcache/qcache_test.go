package qcache

import (
	"fmt"
	"testing"

	"repro/internal/encoding"
	"repro/internal/sqlparse"
)

func TestBasicPutGet(t *testing.T) {
	c := New(Options{Shards: 4, Capacity: 64})
	g := c.Generation()
	k := PredictionKey(0, "SELECT 1")
	if _, ok := c.GetPrediction(k, g); ok {
		t.Fatal("empty cache must miss")
	}
	c.PutPrediction(k, g, 1.25)
	if v, ok := c.GetPrediction(k, g); !ok || v != 1.25 {
		t.Fatalf("got (%v, %v), want (1.25, true)", v, ok)
	}
	// Same SQL under a different environment is a different key.
	if _, ok := c.GetPrediction(PredictionKey(1, "SELECT 1"), g); ok {
		t.Fatal("env must partition the key space")
	}
	q := sqlparse.MustParse("SELECT * FROM t WHERE a = 1")
	tk := TemplateKey(0, "select * from t where a = ?")
	c.PutTemplate(tk, g, q)
	if got, ok := c.GetTemplate(tk, g); !ok || got != q {
		t.Fatal("template round-trip failed")
	}
	st := c.Stats()
	if st.Prediction.Hits != 1 || st.Prediction.Misses != 2 || st.Prediction.Stores != 1 {
		t.Fatalf("prediction stats = %+v", st.Prediction)
	}
	if st.Template.Size != 1 {
		t.Fatalf("template size = %d", st.Template.Size)
	}
}

// TestFeatureTierAnswers: the feature tier holds the product's answers,
// and the featurized plans benchmark/'s leaf replay stores through
// PutFeatures until ROADMAP 1(e). Each getter reads the other kind as a
// miss rather than panicking.
func TestFeatureTierAnswers(t *testing.T) {
	c := New(Options{Shards: 4, Capacity: 64})
	g := c.Generation()
	ak := FeatureKey(0, "select * from t where a = ?", "n1:1")
	c.PutAnswer(ak, g, 2.5)
	if v, ok := c.GetAnswer(ak, g); !ok || v != 2.5 {
		t.Fatalf("GetAnswer = (%v, %v), want (2.5, true)", v, ok)
	}
	if fp, ok := c.GetFeatures(ak, g); ok || fp != nil {
		t.Fatalf("GetFeatures on an answer = (%v, %v), want a miss", fp, ok)
	}
	if _, ok := c.GetAnswer(ak, g+1); ok {
		t.Fatal("an answer from another generation must miss")
	}
	fk := FeatureKey(0, "select * from t where a = ?", "n1:2")
	fp := &encoding.FeaturizedPlan{}
	c.PutFeatures(fk, g, fp)
	if got, ok := c.GetFeatures(fk, g); !ok || got != fp {
		t.Fatal("featurized plan round-trip failed")
	}
	if v, ok := c.GetAnswer(fk, g); ok {
		t.Fatalf("GetAnswer on a featurized plan = %v, want a miss", v)
	}
}

func TestGenerationInvalidates(t *testing.T) {
	c := New(Options{Shards: 2, Capacity: 32})
	g1 := uint64(100)
	c.SetGeneration(g1)
	k := PredictionKey(0, "q")
	c.PutPrediction(k, g1, 7)
	if _, ok := c.GetPrediction(k, g1); !ok {
		t.Fatal("want hit at g1")
	}
	g2 := uint64(200)
	c.SetGeneration(g2)
	if _, ok := c.GetPrediction(k, g2); ok {
		t.Fatal("old-generation entry served at new generation")
	}
	// A straggling write stamped with the old generation must stay
	// invisible at the new one.
	c.PutPrediction(PredictionKey(0, "late"), g1, 9)
	if _, ok := c.GetPrediction(PredictionKey(0, "late"), g2); ok {
		t.Fatal("stale-stamped write served at new generation")
	}
	// New-generation writes work as usual.
	c.PutPrediction(k, g2, 8)
	if v, _ := c.GetPrediction(k, g2); v != 8 {
		t.Fatalf("got %v, want 8", v)
	}
}

func TestCapacityBound(t *testing.T) {
	c := New(Options{Shards: 2, Capacity: 16})
	g := c.Generation()
	for i := 0; i < 1000; i++ {
		c.PutPrediction(PredictionKey(0, fmt.Sprintf("q%d", i)), g, float64(i))
	}
	st := c.Stats()
	if st.Prediction.Size > 16 {
		t.Fatalf("size %d exceeds capacity 16", st.Prediction.Size)
	}
	if st.Prediction.Evictions == 0 {
		t.Fatal("want evictions under pressure")
	}
}

// TestSecondChance pins the CLOCK behaviour: a key that is re-referenced
// between insertions survives eviction pressure that sweeps unreferenced
// keys out.
func TestSecondChance(t *testing.T) {
	c := New(Options{Shards: 8, Capacity: 32}) // 4 slots per shard
	g := c.Generation()
	hot := PredictionKey(0, "hot")
	c.PutPrediction(hot, g, 1)
	sh, _ := c.prediction.locate(hot.hash())
	// Cold keys that land in the hot key's shard, so they contend for its
	// four slots — three rings' worth of them.
	var fill []Key
	for i := 0; len(fill) < 12; i++ {
		k := PredictionKey(0, fmt.Sprintf("fill%d", i))
		if s, _ := c.prediction.locate(k.hash()); s == sh {
			fill = append(fill, k)
		}
	}
	for i, k := range fill {
		// Re-referencing between inserts keeps the hot key's CLOCK bit
		// set, so every sweep gives it a second chance and evicts an
		// unreferenced cold key instead.
		if _, ok := c.GetPrediction(hot, g); !ok {
			t.Fatalf("insert %d: referenced hot key evicted", i)
		}
		c.PutPrediction(k, g, float64(i))
	}
	if _, ok := c.GetPrediction(hot, g); !ok {
		t.Fatal("hot key evicted despite constant re-reference")
	}
}

func TestStaleEntriesPreferredVictims(t *testing.T) {
	c := New(Options{Shards: 2, Capacity: 8})
	g1 := uint64(1)
	c.SetGeneration(g1)
	for i := 0; i < 8; i++ {
		c.PutPrediction(PredictionKey(0, fmt.Sprintf("old%d", i)), g1, 1)
	}
	g2 := uint64(2)
	c.SetGeneration(g2)
	// New-generation inserts reclaim stale slots without churning each
	// other out: all 4 (per-shard capacity) newest keys must be resident.
	var keys []Key
	for i := 0; i < 4; i++ {
		k := PredictionKey(0, fmt.Sprintf("new%d", i))
		keys = append(keys, k)
		c.PutPrediction(k, g2, 2)
	}
	for _, k := range keys {
		if _, ok := c.GetPrediction(k, g2); !ok {
			t.Fatalf("new-generation key %q evicted while stale entries remained", k)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	c := New(Options{})
	st := c.Stats()
	if st.Shards&(st.Shards-1) != 0 || st.Shards < 8 {
		t.Fatalf("default shards = %d, want power of two >= 8", st.Shards)
	}
	if st.Capacity != 4096 {
		t.Fatalf("default capacity = %d", st.Capacity)
	}
	if New(Options{Shards: 3}).Stats().Shards != 8 {
		t.Fatal("shards must round up to a power of two (min 8)")
	}
}

// TestCapacityReportsAllocated: Stats.Capacity is what the tiers hold —
// shards × per-shard entries, at least one per shard — not the budget
// asked for. Filling a tier far past it shows the figure is exact.
func TestCapacityReportsAllocated(t *testing.T) {
	for _, tc := range []struct{ shards, asked, want int }{
		{8, 4, 8},       // one entry per shard: more than asked
		{16, 1000, 992}, // 62 per shard: the remainder is never allocated
		{8, 4096, 4096}, // the default divides evenly on every shard count
	} {
		c := New(Options{Shards: tc.shards, Capacity: tc.asked})
		if got := c.Stats().Capacity; got != tc.want {
			t.Errorf("%d shards, capacity %d: Stats().Capacity = %d, want %d", tc.shards, tc.asked, got, tc.want)
		}
		g := c.Generation()
		for i := 0; i < 20*tc.want; i++ {
			c.PutPrediction(PredictionKey(0, fmt.Sprintf("q%d", i)), g, 0)
		}
		if got := c.Stats().Prediction.Size; got != tc.want {
			t.Errorf("%d shards, capacity %d: a saturated tier holds %d entries, want %d", tc.shards, tc.asked, got, tc.want)
		}
	}
}
