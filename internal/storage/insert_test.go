package storage

import (
	"testing"

	"repro/internal/catalog"
)

func TestInsertRowMaintainsIndexes(t *testing.T) {
	schema := catalog.NewSchema()
	schema.MustAddTable(numTable())
	st := NewStore(schema)
	var rows []catalog.Row
	for i := int64(0); i < 100; i++ {
		rows = append(rows, catalog.Row{catalog.Int(i), catalog.Float(float64(i))})
	}
	if err := st.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	bt, _, err := st.CreateIndex("ia", "t", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	bt2, _, err := st.CreateIndex("ib", "t", []string{"b"})
	if err != nil {
		t.Fatal(err)
	}

	id, io, err := st.InsertRow("t", catalog.Row{catalog.Int(42), catalog.Float(3.5)})
	if err != nil {
		t.Fatal(err)
	}
	if id != 100 {
		t.Fatalf("row id = %d, want 100", id)
	}
	if io.RandomPages == 0 {
		t.Error("index maintenance should charge I/O")
	}
	// Both indexes contain the new row.
	for _, ix := range []*BTree{bt, bt2} {
		if ix.Count() != 101 {
			t.Fatalf("index %s count = %d, want 101", ix.Meta.Name, ix.Count())
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("index %s invalid after insert: %v", ix.Meta.Name, err)
		}
	}
	// Point lookup finds the new row; there are now two rows with a=42.
	found := 0
	bt.Scan(kv(42), kv(42), nil, func(_ Key, rid int64) bool {
		found++
		return true
	})
	if found != 2 {
		t.Fatalf("found %d entries for a=42, want 2", found)
	}
}

func TestInsertRowErrors(t *testing.T) {
	schema := catalog.NewSchema()
	schema.MustAddTable(numTable())
	st := NewStore(schema)
	if _, _, err := st.InsertRow("nosuch", catalog.Row{}); err == nil {
		t.Error("unknown table should error")
	}
	if _, _, err := st.InsertRow("t", catalog.Row{catalog.Int(1)}); err == nil {
		t.Error("arity mismatch should error")
	}
}

// TestLoadRefusesBadRows checks that a bulk load names the first row the
// heap would refuse and stores none of the load: a short row used to be
// kept and panic later, in ANALYZE.
func TestLoadRefusesBadRows(t *testing.T) {
	schema := catalog.NewSchema()
	schema.MustAddTable(numTable())
	st := NewStore(schema)
	good := catalog.Row{catalog.Int(1), catalog.Float(2)}
	for _, tc := range []struct {
		bad  catalog.Row
		want string
	}{
		{catalog.Row{catalog.Int(1)}, "row 2: storage: table t expects 2 columns, got 1"},
		{catalog.Row{catalog.Int(1), catalog.Float(2), catalog.Int(3)}, "row 2: storage: table t expects 2 columns, got 3"},
		{catalog.Row{catalog.String_("x"), catalog.Float(2)}, "row 2: storage: table t column a (BIGINT) cannot hold 'x'"},
	} {
		err := st.Load("t", []catalog.Row{good, good, tc.bad, good})
		if err == nil || err.Error() != tc.want {
			t.Fatalf("Load with %v: got %v, want %q", tc.bad, err, tc.want)
		}
		if n := st.Heap("t").RowCount(); n != 0 {
			t.Fatalf("a refused load stored %d rows", n)
		}
	}
	if err := st.Analyze(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertChecksColumnTypes checks the heap's type rule: NULL fits every
// column and ints and floats mix, but a TEXT value in a numeric column or a
// number in a TEXT column is refused, and a refused row leaves every column
// vector at the same length.
func TestInsertChecksColumnTypes(t *testing.T) {
	tab := catalog.MustTable("m", []catalog.Column{
		{Name: "a", Type: catalog.KindInt},
		{Name: "b", Type: catalog.KindFloat},
		{Name: "s", Type: catalog.KindString},
	})
	h := NewHeap(tab)
	for _, r := range []catalog.Row{
		{catalog.Int(1), catalog.Float(2.5), catalog.String_("x")},
		{catalog.Float(1.5), catalog.Int(2), catalog.Null()},
		{catalog.Null(), catalog.Null(), catalog.String_("")},
	} {
		if _, err := h.Insert(r); err != nil {
			t.Fatalf("insert %v: %v", r, err)
		}
	}
	for _, r := range []catalog.Row{
		{catalog.String_("1"), catalog.Float(2), catalog.String_("x")},
		{catalog.Int(1), catalog.String_("2"), catalog.String_("x")},
		{catalog.Int(1), catalog.Float(2), catalog.Int(3)},
		{catalog.Int(1), catalog.Float(2), catalog.Float(3)},
	} {
		if _, err := h.Insert(r); err == nil {
			t.Errorf("insert %v should be refused", r)
		}
	}
	for ci, col := range h.Columns() {
		if int64(col.Len()) != h.RowCount() {
			t.Fatalf("column %d holds %d values, heap %d rows", ci, col.Len(), h.RowCount())
		}
	}
	if got := h.Row(1).String(); got != "(1.5, 2, NULL)" {
		t.Fatalf("row 1 reads back as %s", got)
	}
}

// TestBuildIndexChargesAHeapScan checks that an index build, which reads
// the key columns' vectors, is charged what a full heap scan is plus its
// leaf pages, from an empty table up.
func TestBuildIndexChargesAHeapScan(t *testing.T) {
	for _, n := range []int{0, 1, 163, 5000} {
		h := buildHeap(t, n, 9)
		var scan, build IOCounter
		h.Scan(&scan, func(int64, catalog.Row) bool { return true })
		bt, err := BuildIndex("i", h, []string{"b", "a"}, &build)
		if err != nil {
			t.Fatal(err)
		}
		want := scan
		want.SeqPages += bt.LeafPages()
		if build != want {
			t.Fatalf("%d rows: build charged %v, want %v", n, build.String(), want.String())
		}
	}
}

// TestRowIsAFreshCopy checks that a row read by id is the caller's to keep
// and change: the heap's values do not move.
func TestRowIsAFreshCopy(t *testing.T) {
	h := buildHeap(t, 3, 10)
	r := h.Get(1, nil)
	want := r.String()
	r[0] = catalog.Int(-1)
	if got := h.Row(1).String(); got != want {
		t.Fatalf("changing a fetched row changed the heap: %s, want %s", got, want)
	}
}
