package storage

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
)

func benchHeap(b *testing.B, n int) *Heap {
	b.Helper()
	h := NewHeap(numTable())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		if _, err := h.Insert(catalog.Row{catalog.Int(rng.Int63n(int64(n))), catalog.Float(rng.Float64())}); err != nil {
			b.Fatal(err)
		}
	}
	return h
}

func BenchmarkBTreeBulkBuild(b *testing.B) {
	h := benchHeap(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex("i", h, []string{"a"}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	h := benchHeap(b, 1000)
	bt, err := BuildIndex("i", h, []string{"a"}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Insert(Key{catalog.Int(rng.Int63n(1 << 20))}, int64(i))
	}
}

func BenchmarkBTreePointLookup(b *testing.B) {
	h := benchHeap(b, 100000)
	bt, err := BuildIndex("i", h, []string{"a"}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := Key{catalog.Int(rng.Int63n(100000))}
		bt.Scan(k, k, nil, func(Key, int64) bool { return true })
	}
}

func BenchmarkBTreeRangeScan1pct(b *testing.B) {
	h := benchHeap(b, 100000)
	bt, err := BuildIndex("i", h, []string{"a"}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i%99) * 1000
		n := 0
		bt.Scan(Key{catalog.Int(lo)}, Key{catalog.Int(lo + 1000)}, nil, func(Key, int64) bool {
			n++
			return true
		})
	}
}

func BenchmarkHeapFullScan(b *testing.B) {
	h := benchHeap(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var io IOCounter
		h.Scan(&io, func(int64, catalog.Row) bool { return true })
	}
}
