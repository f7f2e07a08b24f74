package storage

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
)

func BenchmarkHeapAppend(b *testing.B) {
	h := NewHeap(testTable())
	row := catalog.Row{catalog.IntVal(1), catalog.IntVal(2)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Append(row)
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bt := NewBTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Insert(catalog.IntVal(rng.Int63n(1_000_000)), i)
	}
}

func BenchmarkBTreePointRange(b *testing.B) {
	bt := NewBTree()
	for i := 0; i < 100_000; i++ {
		bt.Insert(catalog.IntVal(int64(i%10_000)), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		k := catalog.IntVal(int64(i % 10_000))
		bt.Range(&k, &k, true, true, func(int) bool { n++; return true })
	}
}

func BenchmarkBTreeRangeScan(b *testing.B) {
	bt := NewBTree()
	for i := 0; i < 100_000; i++ {
		bt.Insert(catalog.IntVal(int64(i)), i)
	}
	lo, hi := catalog.IntVal(40_000), catalog.IntVal(41_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		bt.Range(&lo, &hi, true, true, func(int) bool { n++; return true })
	}
}
