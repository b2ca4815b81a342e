package stats_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
)

// twinColumns are the value generators the reference twin test draws its
// columns from. Each stays inside the reference's domain: no NaN, and no
// int beyond 2^53.
var twinColumns = []struct {
	name string
	gen  func(rng *rand.Rand) catalog.Datum
}{
	{"heavy-duplicate ints", func(rng *rand.Rand) catalog.Datum { return catalog.Int(rng.Int63n(7)) }},
	{"ints with nulls", func(rng *rand.Rand) catalog.Datum {
		if rng.Intn(3) == 0 {
			return catalog.Null()
		}
		return catalog.Int(rng.Int63n(200) - 100)
	}},
	{"floats with signed zeros and integral values", func(rng *rand.Rand) catalog.Datum {
		switch rng.Intn(6) {
		case 0:
			return catalog.Float(0)
		case 1:
			return catalog.Float(math.Copysign(0, -1))
		case 2:
			return catalog.Float(float64(rng.Intn(9) - 4))
		case 3:
			return catalog.Float(math.Inf(1 - 2*rng.Intn(2)))
		default:
			return catalog.Float(math.Round(rng.NormFloat64()*40) / 8)
		}
	}},
	{"strings", func(rng *rand.Rand) catalog.Datum {
		return catalog.String_(fmt.Sprintf("s%02d", rng.Intn(30)))
	}},
	{"mixed ints and floats within 2^53", func(rng *rand.Rand) catalog.Datum {
		x := rng.Int63n(12)
		if rng.Intn(4) == 0 {
			x = 1<<53 - x
		}
		switch rng.Intn(4) {
		case 0:
			return catalog.Int(x)
		case 1:
			return catalog.Float(float64(x))
		case 2:
			return catalog.Float(float64(x) + 0.5)
		default:
			return catalog.Null()
		}
	}},
	{"numbers and strings", func(rng *rand.Rand) catalog.Datum {
		if rng.Intn(2) == 0 {
			return catalog.String_(fmt.Sprint(rng.Intn(5)))
		}
		return catalog.Int(rng.Int63n(5))
	}},
	{"all null", func(*rand.Rand) catalog.Datum { return catalog.Null() }},
}

// TestAnalyzeMatchesStableReference holds Analyze (one unstable sort by
// value then position, the distinct count read off the sorted runs, the
// columns fanned out over goroutines) to the reference rule it replaced (a
// stable sort and a map of every value), field for field with floats by
// Float64bits: over random columns of every shape in twinColumns at 0, 1, 2
// and more rows, and over the generated SDSS tables at two seeds.
func TestAnalyzeMatchesStableReference(t *testing.T) {
	cols := make([]catalog.Column, len(twinColumns))
	for i := range twinColumns {
		cols[i] = catalog.Column{Name: fmt.Sprintf("c%d", i), Type: catalog.KindInt}
	}
	table := catalog.MustTable("twin", cols)
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 17, 500, 4000} {
		for trial := 0; trial < 4; trial++ {
			rows := make([]catalog.Row, n)
			for i := range rows {
				rows[i] = make(catalog.Row, len(twinColumns))
				for c, col := range twinColumns {
					rows[i][c] = col.gen(rng)
				}
			}
			got, err := stats.Analyze(table, stats.ColumnsOf(rows, len(twinColumns)), 8192)
			if err != nil {
				t.Fatal(err)
			}
			if d := stats.DiffTableStats(got, stats.AnalyzeReference(table, rows, 8192)); d != "" {
				t.Fatalf("%d rows, trial %d: %s", n, trial, d)
			}
		}
	}
	for _, seed := range []int64{1, 2} {
		store, err := workload.Generate(workload.TinySize(), seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, table := range store.Schema.Tables() {
			want := stats.AnalyzeReference(table, heapRows(store.Heap(table.Name)), 8192)
			if d := stats.DiffTableStats(store.Stats.Table(table.Name), want); d != "" {
				t.Fatalf("seed %d, %s: %s", seed, table.Name, d)
			}
		}
	}
}

// heapRows reads a heap's rows back one by one, for the reference twin,
// which takes rows.
func heapRows(h *storage.Heap) []catalog.Row {
	rows := make([]catalog.Row, h.RowCount())
	for id := range rows {
		rows[id] = h.Row(int64(id))
	}
	return rows
}

// TestAnalyzeIsWidthIndependent analyses the 48-column photoobj table on one
// goroutine and on four: each column's result lands in its own slot, so the
// two must be equal.
func TestAnalyzeIsWidthIndependent(t *testing.T) {
	store, err := workload.Generate(workload.TinySize(), 3)
	if err != nil {
		t.Fatal(err)
	}
	table := store.Schema.Table("photoobj")
	cols := store.Heap("photoobj").Columns()
	if len(table.Columns) != 48 {
		t.Fatalf("photoobj has %d columns, want 48", len(table.Columns))
	}
	analyzeAt := func(procs int) *stats.TableStats {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ts, err := stats.Analyze(table, cols, 8192)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	if d := stats.DiffTableStats(analyzeAt(1), analyzeAt(4)); d != "" {
		t.Fatalf("GOMAXPROCS 1 vs 4: %s", d)
	}
}

// BenchmarkAnalyzePhotoObj analyses the 48-column photoobj table of the
// small dataset (20,000 rows), the widest table OpenSDSS analyses, so it
// measures the column fan-out as well as the per-column sort.
func BenchmarkAnalyzePhotoObj(b *testing.B) {
	store, err := workload.Generate(workload.SmallSize(), 1)
	if err != nil {
		b.Fatal(err)
	}
	table := store.Schema.Table("photoobj")
	cols := store.Heap("photoobj").Columns()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Analyze(table, cols, 8192); err != nil {
			b.Fatal(err)
		}
	}
}
