package storage

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/catalog"
)

// TestBuildIndexMatchesStableSort holds BuildIndex's unstable sort to the
// stable sort it replaced: keys that compare equal but are different datums
// (an int and its float twin) and repeated keys must reach the leaves in
// row-id order, exactly where a stable sort of the heap scan puts them.
func TestBuildIndexMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := NewHeap(numTable())
	for i := 0; i < 6000; i++ {
		a := catalog.Int(rng.Int63n(40))
		var b catalog.Datum
		switch x := rng.Int63n(12); rng.Intn(3) {
		case 0:
			b = catalog.Int(x)
		case 1:
			b = catalog.Float(float64(x))
		default:
			b = catalog.Null()
		}
		if _, err := h.Insert(catalog.Row{a, b}); err != nil {
			t.Fatal(err)
		}
	}
	for _, cols := range [][]string{{"a"}, {"b"}, {"b", "a"}, {"a", "b"}} {
		bt, err := BuildIndex("i", h, cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []entry
		h.Scan(nil, func(id int64, r catalog.Row) bool {
			k := make(Key, len(cols))
			for i, c := range cols {
				k[i] = r[h.Table.ColumnIndex(c)]
			}
			want = append(want, entry{key: k, id: id})
			return true
		})
		sort.SliceStable(want, func(i, j int) bool { return want[i].key.FullCompare(want[j].key) < 0 })
		i := 0
		bt.Scan(nil, nil, nil, func(k Key, id int64) bool {
			if id != want[i].id || k.String() != want[i].key.String() {
				t.Fatalf("%v: leaf entry %d is (%s, %d), stable sort has (%s, %d)",
					cols, i, k, id, want[i].key, want[i].id)
			}
			i++
			return true
		})
		if i != len(want) {
			t.Fatalf("%v: scan visited %d of %d entries", cols, i, len(want))
		}
	}
}

// TestBuildIndexOverNaNFindsEveryRow builds a B-tree over a float column
// that holds NaNs. Under Compare's float8 rule (a NaN equals a NaN and is
// greater than every number) the keys sort totally, so a range scan finds
// every row: each value's point range and a numeric range alike.
func TestBuildIndexOverNaNFindsEveryRow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := NewHeap(numTable())
	var vals []float64
	for i := 0; i < 3000; i++ {
		v := float64(rng.Intn(20))
		if rng.Intn(4) == 0 {
			v = math.NaN()
		}
		vals = append(vals, v)
		if _, err := h.Insert(catalog.Row{catalog.Int(int64(i)), catalog.Float(v)}); err != nil {
			t.Fatal(err)
		}
	}
	bt, err := BuildIndex("i", h, []string{"b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
	scan := func(lo, hi catalog.Datum) map[int64]bool {
		got := map[int64]bool{}
		bt.Scan(Key{lo}, Key{hi}, nil, func(_ Key, id int64) bool {
			got[id] = true
			return true
		})
		return got
	}
	for id, v := range vals {
		if !scan(catalog.Float(v), catalog.Float(v))[int64(id)] {
			t.Fatalf("point scan for %v misses row %d", v, id)
		}
	}
	got := scan(catalog.Float(5), catalog.Float(9))
	want := 0
	for id, v := range vals {
		if v >= 5 && v <= 9 {
			want++
			if !got[int64(id)] {
				t.Fatalf("range scan [5, 9] misses row %d (%v)", id, v)
			}
		}
	}
	if len(got) != want {
		t.Fatalf("range scan [5, 9] found %d rows, want %d", len(got), want)
	}
}

// TestIndexFindsWhatAScanFinds builds an index over a DOUBLE column that
// holds ints beyond 2^53 beside floats, and holds every point scan of it to
// a filtered heap scan. When Compare rounded an int to a float64 it was not
// transitive there (2^53+1 equalled the float 2^53, which equals 2^53, yet
// 2^53 < 2^53+1), so the leaf order depended on the sort's path and a
// point scan for 2^53 found none of the two rows a heap scan finds.
func TestIndexFindsWhatAScanFinds(t *testing.T) {
	const two53 = 1 << 53
	h := NewHeap(numTable())
	insert := func(b catalog.Datum) {
		if _, err := h.Insert(catalog.Row{catalog.Int(h.RowCount()), b}); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []catalog.Datum{catalog.Int(two53 + 1), catalog.Float(two53), catalog.Int(two53)} {
		insert(b)
	}
	rng := rand.New(rand.NewSource(8))
	for range 2000 {
		if x := int64(two53 + rng.Intn(9) - 4); rng.Intn(2) == 0 {
			insert(catalog.Int(x))
		} else {
			insert(catalog.Float(float64(x)))
		}
	}
	bt, err := BuildIndex("i", h, []string{"b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
	for id := range h.RowCount() {
		probe := h.Row(id)[1]
		var want, got []int64
		h.Scan(nil, func(id int64, r catalog.Row) bool {
			if r[1].Equal(probe) {
				want = append(want, id)
			}
			return true
		})
		bt.Scan(Key{probe}, Key{probe}, nil, func(_ Key, id int64) bool {
			got = append(got, id)
			return true
		})
		if id == 2 && (len(want) < 2 || want[0] != 1 || want[1] != 2) {
			t.Fatalf("heap scan for %v finds rows %v, want 1 and 2 first", probe, want)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("index scan for %v finds rows %v, heap scan %v", probe, got, want)
		}
	}
}
