package linalg

import "testing"

func TestArenaReuseAndGrow(t *testing.T) {
	a := &Arena{}
	m1 := a.Alloc(4, 3)
	if m1.Rows != 4 || m1.Cols != 3 || len(m1.Data) != 12 {
		t.Fatalf("Alloc shape: %dx%d len %d", m1.Rows, m1.Cols, len(m1.Data))
	}
	for i := range m1.Data {
		m1.Data[i] = 7
	}
	z := a.AllocZero(2, 2)
	for _, v := range z.Data {
		if v != 0 {
			t.Fatalf("AllocZero returned dirty memory: %v", z.Data)
		}
	}
	a.Reset()
	m2 := a.Alloc(4, 3)
	if &m2.Data[0] != &m1.Data[0] {
		t.Fatalf("Reset should reuse the slab from the start")
	}
	// Growing mid-stream must not corrupt earlier matrices.
	a.Reset()
	small := a.Alloc(2, 2)
	small.Data[0] = 42
	big := a.Alloc(1000, 100) // forces a new slab
	big.Data[0] = 1
	if small.Data[0] != 42 {
		t.Fatalf("grow corrupted an earlier matrix")
	}
	// A slice must not be able to append into the next allocation.
	a.Reset()
	s1 := a.Floats(3)
	s1 = append(s1, 99)
	s2 := a.Floats(3)
	if s2[0] == 99 {
		t.Fatalf("append on an arena slice leaked into the next allocation")
	}
}

// TestArenaHeadersRecycle: Matrix headers come from the arena too. One
// handed out before the header block grows must stay valid, and a warmed-
// up arena serves a Reset/Alloc cycle without touching the heap.
func TestArenaHeadersRecycle(t *testing.T) {
	a := &Arena{}
	first := a.Alloc(1, 1)
	first.Data[0] = 7
	for i := 0; i < 100; i++ { // well past the first header block
		a.Alloc(1, 1).Data[0] = float64(i)
	}
	if first.Rows != 1 || first.Cols != 1 || first.Data[0] != 7 {
		t.Fatalf("a header from before the block grew was clobbered: %+v", first)
	}
	if !a.Poolable() {
		t.Fatalf("a 101-float arena must be poolable")
	}
	a.Alloc(1, maxPooledFloats+1)
	if a.Poolable() {
		t.Fatalf("an arena grown past %d floats must not be pooled", maxPooledFloats)
	}
	a = &Arena{}
	a.Alloc(8, 8)
	allocs := testing.AllocsPerRun(100, func() {
		a.Reset()
		for i := 0; i < 50; i++ {
			a.Alloc(1, 2)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm arena allocates %.1f objects per cycle, want 0", allocs)
	}
}
