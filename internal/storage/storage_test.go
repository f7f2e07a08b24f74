package storage

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
)

func testTable() *catalog.Table {
	return catalog.NewTable("t",
		catalog.Column{Name: "id", Type: catalog.IntCol, Width: 8},
		catalog.Column{Name: "v", Type: catalog.IntCol, Width: 8},
	)
}

func TestHeapAppendGet(t *testing.T) {
	h := NewHeap(testTable())
	id := h.Append(catalog.Row{catalog.IntVal(1), catalog.IntVal(10)})
	if id != 0 {
		t.Fatalf("first id = %d", id)
	}
	h.Append(catalog.Row{catalog.IntVal(2), catalog.IntVal(20)})
	if h.NumRows() != 2 {
		t.Fatalf("NumRows = %d", h.NumRows())
	}
	if h.Get(1)[1].I != 20 {
		t.Fatalf("Get(1) wrong")
	}
}

func TestHeapArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewHeap(testTable()).Append(catalog.Row{catalog.IntVal(1)})
}

func TestHeapPaging(t *testing.T) {
	h := NewHeap(testTable()) // width 16 → (8192-192)/16 = 500 rows/page
	if h.NumPages() != 0 {
		t.Fatalf("empty heap pages = %d", h.NumPages())
	}
	// A page holds exactly 500 rows: the count steps just past each boundary.
	want := map[int]int64{500: 1, 501: 2, 1000: 2, 1001: 3}
	for n := 1; n <= 1001; n++ {
		h.Append(catalog.Row{catalog.IntVal(int64(n)), catalog.IntVal(0)})
		if w, ok := want[n]; ok && h.NumPages() != w {
			t.Fatalf("%d rows: NumPages = %d, want %d", n, h.NumPages(), w)
		}
	}
}

func TestBTreeInsertSearch(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 1000; i++ {
		bt.Insert(catalog.IntVal(int64(i%100)), i)
	}
	if bt.Len() != 1000 {
		t.Fatalf("Len = %d", bt.Len())
	}
	var got []int
	k := catalog.IntVal(7)
	bt.Range(&k, &k, true, true, func(id int) bool { got = append(got, id); return true })
	if len(got) != 10 {
		t.Fatalf("Range [7, 7] found %d, want 10", len(got))
	}
	for _, id := range got {
		if id%100 != 7 {
			t.Fatalf("wrong rowID %d for key 7", id)
		}
	}
}

// countRange counts the entries Range visits.
func countRange(bt *BTree, lo, hi *catalog.Value, loInc, hiInc bool) int {
	var c int
	bt.Range(lo, hi, loInc, hiInc, func(int) bool { c++; return true })
	return c
}

func TestBTreeRange(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 500; i++ {
		bt.Insert(catalog.IntVal(int64(i)), i)
	}
	lo, hi := catalog.IntVal(100), catalog.IntVal(199)
	if c := countRange(bt, &lo, &hi, true, true); c != 100 {
		t.Fatalf("count incl = %d, want 100", c)
	}
	if c := countRange(bt, &lo, &hi, false, false); c != 98 {
		t.Fatalf("count excl = %d, want 98", c)
	}
	if c := countRange(bt, nil, &hi, true, true); c != 200 {
		t.Fatalf("open-low = %d, want 200", c)
	}
	if c := countRange(bt, &lo, nil, true, true); c != 400 {
		t.Fatalf("open-high = %d, want 400", c)
	}
	if c := countRange(bt, nil, nil, true, true); c != 500 {
		t.Fatalf("full = %d, want 500", c)
	}
}

func TestBTreeRangeOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bt := NewBTree()
	keys := make([]int64, 2000)
	for i := range keys {
		keys[i] = rng.Int63n(10000)
		bt.Insert(catalog.IntVal(keys[i]), i)
	}
	var visited []int64
	bt.Range(nil, nil, true, true, func(id int) bool {
		visited = append(visited, keys[id])
		return true
	})
	if !sort.SliceIsSorted(visited, func(i, j int) bool { return visited[i] < visited[j] }) {
		t.Fatalf("range scan not in key order")
	}
	if len(visited) != 2000 {
		t.Fatalf("visited %d, want 2000", len(visited))
	}
}

func TestBTreeEarlyStop(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 100; i++ {
		bt.Insert(catalog.IntVal(int64(i)), i)
	}
	var n int
	bt.Range(nil, nil, true, true, func(int) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestBTreeHeightGrows(t *testing.T) {
	bt := NewBTree()
	if bt.Height() != 1 {
		t.Fatalf("empty height = %d", bt.Height())
	}
	for i := 0; i < 100000; i++ {
		bt.Insert(catalog.IntVal(int64(i)), i)
	}
	if h := bt.Height(); h < 2 || h > 4 {
		t.Fatalf("height = %d, want 2..4 for 100k keys order %d", h, btreeOrder)
	}
}

func TestBTreeStringKeys(t *testing.T) {
	bt := NewBTree()
	words := []string{"delta", "alpha", "charlie", "bravo", "echo"}
	for i, w := range words {
		bt.Insert(catalog.StrVal(w), i)
	}
	lo, hi := catalog.StrVal("b"), catalog.StrVal("d")
	var got []int
	bt.Range(&lo, &hi, true, true, func(id int) bool { got = append(got, id); return true })
	// bravo, charlie fall in [b, d]
	if len(got) != 2 {
		t.Fatalf("string range = %v", got)
	}
}

// Property: every inserted (key,id) pair is findable and the total range
// scan sees exactly the inserted multiset, in sorted order.
func TestBTreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3000)
		bt := NewBTree()
		keys := make([]int64, n)
		for i := 0; i < n; i++ {
			keys[i] = rng.Int63n(500)
			bt.Insert(catalog.IntVal(keys[i]), i)
		}
		if bt.Len() != n {
			return false
		}
		// Spot-check membership.
		probe := rng.Intn(n)
		found := false
		k := catalog.IntVal(keys[probe])
		bt.Range(&k, &k, true, true, func(id int) bool {
			if id == probe {
				found = true
				return false
			}
			return true
		})
		if !found {
			return false
		}
		// Full scan count and ordering.
		prev := int64(-1 << 62)
		count := 0
		ok := true
		bt.Range(nil, nil, true, true, func(id int) bool {
			k := keys[id]
			if k < prev {
				ok = false
				return false
			}
			prev = k
			count++
			return true
		})
		return ok && count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDatabaseBuildIndexes(t *testing.T) {
	s := catalog.NewSchema("test")
	s.AddTable(testTable())
	s.AddIndex(catalog.IndexDef{Name: "t_v_idx", Table: "t", Column: "v"})
	db := NewDatabase(s)
	h := db.Heap("t")
	for i := 0; i < 100; i++ {
		h.Append(catalog.Row{catalog.IntVal(int64(i)), catalog.IntVal(int64(i % 10))})
	}
	db.BuildIndexes()
	ix := db.Index("t_v_idx")
	if ix == nil {
		t.Fatalf("index missing")
	}
	var n int
	k := catalog.IntVal(3)
	ix.Range(&k, &k, true, true, func(id int) bool {
		if h.Get(id)[1].I != 3 {
			t.Fatalf("index row mismatch")
		}
		n++
		return true
	})
	if n != 10 {
		t.Fatalf("found %d, want 10", n)
	}
}

func TestDatabaseMissingTablePanics(t *testing.T) {
	s := catalog.NewSchema("test")
	s.AddIndex(catalog.IndexDef{Name: "bad", Table: "ghost", Column: "x"})
	db := NewDatabase(s)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	db.BuildIndexes()
}
