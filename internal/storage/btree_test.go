package storage

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
)

func kv(v int64) Key { return Key{catalog.Int(v)} }

func numTable() *catalog.Table {
	return catalog.MustTable("t", []catalog.Column{
		{Name: "a", Type: catalog.KindInt},
		{Name: "b", Type: catalog.KindFloat},
	}, "a")
}

func buildHeap(t *testing.T, n int, seed int64) *Heap {
	t.Helper()
	h := NewHeap(numTable())
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if _, err := h.Insert(catalog.Row{catalog.Int(rng.Int63n(1000)), catalog.Float(rng.Float64())}); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestBuildIndexAndScanOrder(t *testing.T) {
	h := buildHeap(t, 5000, 1)
	bt, err := BuildIndex("i", h, []string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
	if bt.Count() != 5000 {
		t.Fatalf("count = %d", bt.Count())
	}
	var prev Key
	n := 0
	bt.Scan(nil, nil, nil, func(k Key, id int64) bool {
		if prev != nil && prev.Compare(k) > 0 {
			t.Fatalf("scan out of order: %s after %s", k, prev)
		}
		prev = k
		n++
		return true
	})
	if n != 5000 {
		t.Fatalf("scan visited %d entries", n)
	}
}

func TestBTreeRangeScanMatchesReference(t *testing.T) {
	h := buildHeap(t, 3000, 2)
	bt, err := BuildIndex("i", h, []string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: filter the heap directly.
	lo, hi := int64(200), int64(400)
	want := map[int64]int{}
	for id := range h.RowCount() {
		if v := h.Row(id)[0].I; v >= lo && v <= hi {
			want[id]++
		}
	}
	got := map[int64]int{}
	bt.Scan(kv(lo), kv(hi), nil, func(k Key, id int64) bool {
		got[id]++
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("range scan found %d ids, want %d", len(got), len(want))
	}
	for id := range want {
		if got[id] == 0 {
			t.Fatalf("missing id %d", id)
		}
	}
}

func TestBTreeInsertIncremental(t *testing.T) {
	h := NewHeap(numTable())
	bt, err := BuildIndex("i", h, []string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		v := rng.Int63n(500)
		id, _ := h.Insert(catalog.Row{catalog.Int(v), catalog.Float(0)})
		bt.Insert(kv(v), id)
	}
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
	if bt.Count() != 2000 {
		t.Fatalf("count = %d", bt.Count())
	}
}

func TestBTreePropertyRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHeap(numTable())
		bt, err := BuildIndex("i", h, []string{"a"}, nil)
		if err != nil {
			return false
		}
		n := 50 + rng.Intn(500)
		vals := make([]int64, n)
		for i := 0; i < n; i++ {
			v := rng.Int63n(100)
			vals[i] = v
			id, _ := h.Insert(catalog.Row{catalog.Int(v), catalog.Float(0)})
			bt.Insert(kv(v), id)
		}
		if bt.Validate() != nil {
			return false
		}
		// Point lookups find the right multiplicity.
		probe := vals[rng.Intn(n)]
		wantCount := 0
		for _, v := range vals {
			if v == probe {
				wantCount++
			}
		}
		gotCount := 0
		bt.Scan(kv(probe), kv(probe), nil, func(Key, int64) bool {
			gotCount++
			return true
		})
		return gotCount == wantCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeCompositeKeyPrefixScan(t *testing.T) {
	tab := catalog.MustTable("t", []catalog.Column{
		{Name: "a", Type: catalog.KindInt},
		{Name: "b", Type: catalog.KindInt},
	}, "a")
	h := NewHeap(tab)
	for a := int64(0); a < 10; a++ {
		for b := int64(0); b < 10; b++ {
			if _, err := h.Insert(catalog.Row{catalog.Int(a), catalog.Int(b)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	bt, err := BuildIndex("i", h, []string{"a", "b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Prefix scan on a = 5 must return exactly the 10 entries.
	count := 0
	bt.Scan(kv(5), kv(5), nil, func(k Key, id int64) bool {
		if k[0].I != 5 {
			t.Fatalf("wrong prefix: %s", k)
		}
		count++
		return true
	})
	if count != 10 {
		t.Fatalf("prefix scan found %d, want 10", count)
	}
	// Full composite bound.
	count = 0
	bt.Scan(Key{catalog.Int(5), catalog.Int(3)}, Key{catalog.Int(5), catalog.Int(7)}, nil, func(k Key, id int64) bool {
		count++
		return true
	})
	if count != 5 {
		t.Fatalf("composite range found %d, want 5", count)
	}
}

func TestBTreeIOCharging(t *testing.T) {
	h := buildHeap(t, 10000, 4)
	bt, err := BuildIndex("i", h, []string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var io IOCounter
	bt.Scan(kv(100), kv(110), &io, func(Key, int64) bool { return true })
	if io.RandomPages < int64(bt.Height()) {
		t.Errorf("descent not charged: %v", io)
	}
	// A narrow scan must touch far fewer pages than the whole index.
	if io.SeqPages > bt.LeafPages()/2 {
		t.Errorf("narrow scan touched %d of %d leaf pages", io.SeqPages, bt.LeafPages())
	}
}

func TestBTreeEmptyAndSingle(t *testing.T) {
	h := NewHeap(numTable())
	bt, err := BuildIndex("i", h, []string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
	visited := 0
	bt.Scan(nil, nil, nil, func(Key, int64) bool { visited++; return true })
	if visited != 0 {
		t.Fatal("empty tree scan visited entries")
	}
	bt.Insert(kv(1), 0)
	if bt.Count() != 1 || bt.Validate() != nil {
		t.Fatal("single insert broken")
	}
}

func TestHeapScanIOAccounting(t *testing.T) {
	h := buildHeap(t, 1000, 5)
	var io IOCounter
	h.Scan(&io, func(int64, catalog.Row) bool { return true })
	if io.SeqPages != h.Pages() {
		t.Errorf("scan charged %d pages, heap has %d", io.SeqPages, h.Pages())
	}
	if io.TuplesRead != 1000 {
		t.Errorf("tuples read = %d", io.TuplesRead)
	}
}

func TestHeapEarlyStopCharges(t *testing.T) {
	h := buildHeap(t, 1000, 6)
	var io Counter = IOCounter{}
	_ = io
	var io2 IOCounter
	seen := 0
	h.Scan(&io2, func(int64, catalog.Row) bool {
		seen++
		return seen < 10
	})
	if io2.SeqPages > 2 {
		t.Errorf("early stop charged %d pages", io2.SeqPages)
	}
}

// Counter alias guards the exported name used in docs.
type Counter = IOCounter

func TestStoreCreateDropIndex(t *testing.T) {
	schema := catalog.NewSchema()
	schema.MustAddTable(numTable())
	st := NewStore(schema)
	if err := st.Load("t", []catalog.Row{{catalog.Int(1), catalog.Float(2)}}); err != nil {
		t.Fatal(err)
	}
	bt, io, err := st.CreateIndex("i", "t", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if io.Total() == 0 {
		t.Error("index build should charge I/O")
	}
	if st.Index(bt.Meta.Key()) == nil {
		t.Fatal("index not registered")
	}
	if _, _, err := st.CreateIndex("i2", "t", []string{"a"}); err == nil {
		t.Fatal("duplicate canonical key should fail")
	}
	if !st.DropIndex(bt.Meta.Key()) {
		t.Fatal("drop failed")
	}
	if st.DropIndex(bt.Meta.Key()) {
		t.Fatal("double drop should report false")
	}
}

func TestStoreAnalyze(t *testing.T) {
	schema := catalog.NewSchema()
	schema.MustAddTable(numTable())
	st := NewStore(schema)
	var rows []catalog.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, catalog.Row{catalog.Int(int64(i)), catalog.Float(float64(i))})
	}
	if err := st.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := st.Analyze(); err != nil {
		t.Fatal(err)
	}
	ts := st.Stats.Table("t")
	if ts == nil || ts.RowCount != 100 {
		t.Fatalf("stats = %+v", ts)
	}
}

func TestKeyCompare(t *testing.T) {
	a := Key{catalog.Int(1), catalog.Int(2)}
	b := Key{catalog.Int(1), catalog.Int(3)}
	if a.Compare(b) >= 0 {
		t.Error("a < b expected")
	}
	// Prefix comparison: shared prefix equal.
	p := Key{catalog.Int(1)}
	if p.Compare(a) != 0 || a.Compare(p) != 0 {
		t.Error("prefix keys should compare equal on shared prefix")
	}
	if p.FullCompare(a) >= 0 {
		t.Error("FullCompare should order shorter first")
	}
}

func TestBTreeLeafPagesModel(t *testing.T) {
	h := buildHeap(t, 10000, 7)
	bt, _ := BuildIndex("i", h, []string{"a"}, nil)
	// 10k entries, keyWid = 12 + 8 = 20 bytes, fill 0.7 -> 286/page.
	want := (int64(10000) + 286 - 1) / 286
	if got := bt.LeafPages(); got != want {
		t.Errorf("LeafPages = %d, want %d", got, want)
	}
	if bt.Height() < 2 {
		t.Errorf("height = %d, want >= 2 for 10k entries", bt.Height())
	}
}

func TestBuildIndexUnknownColumn(t *testing.T) {
	h := buildHeap(t, 10, 8)
	if _, err := BuildIndex("i", h, []string{"nope"}, nil); err == nil {
		t.Fatal("unknown column should error")
	}
}

func sortedInts(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestMaterializedConfigurationIsInKeyOrder: the live design is listed the
// same way by every reader, every time — not in map order.
func TestMaterializedConfigurationIsInKeyOrder(t *testing.T) {
	cols := []catalog.Column{{Name: "id", Type: catalog.KindInt}}
	for _, name := range []string{"e", "c", "a", "d", "b"} {
		cols = append(cols, catalog.Column{Name: name, Type: catalog.KindInt})
	}
	schema := catalog.NewSchema()
	schema.MustAddTable(catalog.MustTable("w", cols, "id"))
	st := NewStore(schema)
	for _, c := range cols[1:] {
		if _, _, err := st.CreateIndex("i_"+c.Name, "w", []string{c.Name}); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"w(a)", "w(b)", "w(c)", "w(d)", "w(e)"}
	for call := 0; call < 20; call++ {
		var cfg, ixs []string
		for _, ix := range st.MaterializedConfiguration().Indexes {
			cfg = append(cfg, ix.Key())
		}
		for _, bt := range st.Indexes() {
			ixs = append(ixs, bt.Meta.Key())
		}
		if !reflect.DeepEqual(cfg, want) || !reflect.DeepEqual(ixs, want) {
			t.Fatalf("call %d: configuration %v, indexes %v, want %v", call, cfg, ixs, want)
		}
	}
}
