package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
)

func intRows(vals ...int64) []catalog.Row {
	rows := make([]catalog.Row, len(vals))
	for i, v := range vals {
		rows[i] = catalog.Row{catalog.Int(v)}
	}
	return rows
}

func oneColTable() *catalog.Table {
	return catalog.MustTable("t", []catalog.Column{{Name: "a", Type: catalog.KindInt}}, "a")
}

func TestAnalyzeBasics(t *testing.T) {
	rows := intRows(1, 2, 3, 4, 5, 5, 5, 8, 9, 10)
	ts, err := Analyze(oneColTable(), ColumnsOf(rows, 1), 8192)
	if err != nil {
		t.Fatal(err)
	}
	if ts.RowCount != 10 {
		t.Fatalf("RowCount = %d", ts.RowCount)
	}
	cs := ts.Column("a")
	if cs == nil {
		t.Fatal("missing column stats")
	}
	if cs.NDV != 8 {
		t.Errorf("NDV = %d, want 8", cs.NDV)
	}
	if cs.Min.I != 1 || cs.Max.I != 10 {
		t.Errorf("min/max = %v/%v", cs.Min, cs.Max)
	}
	if cs.NullFrac != 0 {
		t.Errorf("NullFrac = %f", cs.NullFrac)
	}
	// Physically sorted data must have correlation 1.
	if cs.Correlation < 0.99 {
		t.Errorf("Correlation = %f, want ~1", cs.Correlation)
	}
}

func TestAnalyzeNulls(t *testing.T) {
	rows := []catalog.Row{
		{catalog.Int(1)}, {catalog.Null()}, {catalog.Int(2)}, {catalog.Null()},
	}
	ts, err := Analyze(oneColTable(), ColumnsOf(rows, 1), 8192)
	if err != nil {
		t.Fatal(err)
	}
	cs := ts.Column("a")
	if cs.NullFrac != 0.5 {
		t.Errorf("NullFrac = %f, want 0.5", cs.NullFrac)
	}
	if cs.NDV != 2 {
		t.Errorf("NDV = %d, want 2", cs.NDV)
	}
}

func TestAnalyzeReverseSortedCorrelation(t *testing.T) {
	var rows []catalog.Row
	for i := 100; i > 0; i-- {
		rows = append(rows, catalog.Row{catalog.Int(int64(i))})
	}
	ts, _ := Analyze(oneColTable(), ColumnsOf(rows, 1), 8192)
	if c := ts.Column("a").Correlation; c > -0.99 {
		t.Errorf("Correlation = %f, want ~-1", c)
	}
}

func TestAnalyzeEmptyTable(t *testing.T) {
	ts, err := Analyze(oneColTable(), ColumnsOf(nil, 1), 8192)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Pages != 1 {
		t.Errorf("empty table should still occupy one page, got %d", ts.Pages)
	}
}

func TestEqSelectivity(t *testing.T) {
	rows := intRows(1, 1, 2, 3, 4)
	ts, _ := Analyze(oneColTable(), ColumnsOf(rows, 1), 8192)
	cs := ts.Column("a")
	// 1 is an MCV with frequency 0.4; the remaining 0.6 mass spreads over
	// the 3 non-MCV distinct values.
	if got := cs.EqSelectivity(catalog.Int(1)); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("MCV eq sel = %f, want 0.4", got)
	}
	if got := cs.EqSelectivity(catalog.Int(2)); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("non-MCV eq sel = %f, want 0.2", got)
	}
	if got := cs.EqSelectivity(catalog.Int(99)); got != 0 {
		t.Errorf("out-of-range eq sel = %f, want 0", got)
	}
	if got := cs.EqSelectivity(catalog.Null()); got != 0 {
		t.Errorf("null eq sel = %f, want 0", got)
	}
}

func TestMCVCollection(t *testing.T) {
	// A heavily skewed column: value 7 dominates.
	var vals []int64
	for i := 0; i < 70; i++ {
		vals = append(vals, 7)
	}
	for i := 0; i < 20; i++ {
		vals = append(vals, 3)
	}
	for i := int64(0); i < 10; i++ {
		vals = append(vals, 100+i) // unique tail
	}
	ts, _ := Analyze(oneColTable(), ColumnsOf(intRows(vals...), 1), 8192)
	cs := ts.Column("a")
	if len(cs.MCVs) < 2 {
		t.Fatalf("MCVs = %v, want the two hot values", cs.MCVs)
	}
	if cs.MCVs[0].Value.I != 7 || cs.MCVs[0].Freq != 0.7 {
		t.Errorf("top MCV = %+v, want {7 0.7}", cs.MCVs[0])
	}
	if cs.MCVs[1].Value.I != 3 || cs.MCVs[1].Freq != 0.2 {
		t.Errorf("second MCV = %+v, want {3 0.2}", cs.MCVs[1])
	}
	// Skewed equality estimates now reflect the skew.
	if got := cs.EqSelectivity(catalog.Int(7)); got != 0.7 {
		t.Errorf("hot eq sel = %f, want 0.7", got)
	}
	if got := cs.EqSelectivity(catalog.Int(105)); got >= 0.1 {
		t.Errorf("cold eq sel = %f, want small", got)
	}
}

func TestMCVUniformColumnHasNoMCVs(t *testing.T) {
	// Two values with identical counts: no skew, so no MCV entries, and
	// equality selectivity falls back to the uniform 1/NDV estimate.
	rows := intRows(1, 1, 1, 2, 2, 2)
	ts, _ := Analyze(oneColTable(), ColumnsOf(rows, 1), 8192)
	cs := ts.Column("a")
	if len(cs.MCVs) != 0 {
		t.Fatalf("MCVs = %v, want none for a uniform column", cs.MCVs)
	}
	if got := cs.EqSelectivity(catalog.Int(1)); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("uniform eq sel = %f, want 0.5", got)
	}
}

func TestMCVMassPlusRestIsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var vals []int64
	for i := 0; i < 3000; i++ {
		vals = append(vals, rng.Int63n(20)) // skewed-ish small domain
	}
	ts, _ := Analyze(oneColTable(), ColumnsOf(intRows(vals...), 1), 8192)
	cs := ts.Column("a")
	var mass float64
	for _, m := range cs.MCVs {
		mass += m.Freq
	}
	if mass > 1.0001 {
		t.Fatalf("MCV mass %f exceeds 1", mass)
	}
	// Total probability over all distinct values should be ~1.
	total := 0.0
	for v := int64(0); v < 20; v++ {
		total += cs.EqSelectivity(catalog.Int(v))
	}
	if total < 0.9 || total > 1.1 {
		t.Fatalf("Σ eq selectivities = %f, want ~1", total)
	}
}

func TestRangeSelectivityUniform(t *testing.T) {
	var rows []catalog.Row
	for i := 0; i < 1000; i++ {
		rows = append(rows, catalog.Row{catalog.Int(int64(i))})
	}
	ts, _ := Analyze(oneColTable(), ColumnsOf(rows, 1), 8192)
	cs := ts.Column("a")
	got := cs.RangeSelectivity(catalog.Int(250), catalog.Int(500))
	if got < 0.2 || got > 0.3 {
		t.Errorf("range sel = %f, want ~0.25", got)
	}
	full := cs.RangeSelectivity(catalog.Null(), catalog.Null())
	if full < 0.99 {
		t.Errorf("unbounded range sel = %f, want ~1", full)
	}
}

func TestHistogramLessEqMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(500)
		vals := make([]catalog.Datum, n)
		for i := range vals {
			vals[i] = catalog.Float(rng.NormFloat64() * 100)
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].Less(vals[b]) })
		h := BuildEquiDepth(vals, 32)
		if h == nil {
			return false
		}
		prev := -1.0
		for x := -300.0; x <= 300; x += 7.5 {
			f := h.LessEqFraction(catalog.Float(x))
			if f < 0 || f > 1 || f < prev {
				return false
			}
			prev = f
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramAccuracy(t *testing.T) {
	// Against a known uniform distribution the histogram estimate should be
	// close to the true fraction.
	rng := rand.New(rand.NewSource(7))
	n := 10000
	vals := make([]catalog.Datum, n)
	for i := range vals {
		vals[i] = catalog.Float(rng.Float64() * 1000)
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a].Less(vals[b]) })
	h := BuildEquiDepth(vals, 64)
	for _, q := range []float64{100, 333, 500, 900} {
		est := h.LessEqFraction(catalog.Float(q))
		truth := q / 1000
		if diff := est - truth; diff < -0.05 || diff > 0.05 {
			t.Errorf("LessEq(%.0f) = %f, truth %f", q, est, truth)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var vals []catalog.Datum
	for i := 0; i < 1000; i++ {
		vals = append(vals, catalog.Int(int64(i)))
	}
	h := BuildEquiDepth(vals, 32)
	med := h.Quantile(0.5)
	if med.AsFloat() < 400 || med.AsFloat() > 600 {
		t.Errorf("median = %v, want ~500", med)
	}
	if h.Quantile(0).Compare(vals[0]) != 0 {
		t.Errorf("q0 = %v", h.Quantile(0))
	}
	if h.Quantile(1).Compare(vals[len(vals)-1]) != 0 {
		t.Errorf("q1 = %v", h.Quantile(1))
	}
}

func TestBuildEquiDepthDegenerate(t *testing.T) {
	if BuildEquiDepth(nil, 10) != nil {
		t.Error("nil for empty input")
	}
	if BuildEquiDepth([]catalog.Datum{catalog.Int(1)}, 10) != nil {
		t.Error("nil for single value")
	}
	h := BuildEquiDepth([]catalog.Datum{catalog.Int(1), catalog.Int(2)}, 100)
	if h == nil || h.Buckets() != 1 {
		t.Errorf("two values should give 1 bucket, got %v", h)
	}
}

func TestRangeSelectivityInvertedBounds(t *testing.T) {
	rows := intRows(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	ts, _ := Analyze(oneColTable(), ColumnsOf(rows, 1), 8192)
	cs := ts.Column("a")
	if got := cs.RangeSelectivity(catalog.Int(8), catalog.Int(2)); got != 0 {
		t.Errorf("inverted range sel = %f, want 0", got)
	}
}

func TestCatalogLookupCaseInsensitive(t *testing.T) {
	c := NewCatalog()
	c.Put("PhotoObj", &TableStats{RowCount: 5})
	if c.Table("photoobj") == nil || c.Table("PHOTOOBJ") == nil {
		t.Fatal("case-insensitive lookup failed")
	}
}

func TestStringHistogram(t *testing.T) {
	vals := []catalog.Datum{
		catalog.String_("apple"), catalog.String_("banana"), catalog.String_("cherry"),
		catalog.String_("date"), catalog.String_("fig"), catalog.String_("grape"),
	}
	h := BuildEquiDepth(vals, 3)
	if h == nil {
		t.Fatal("nil histogram")
	}
	lo := h.LessEqFraction(catalog.String_("aaa"))
	hi := h.LessEqFraction(catalog.String_("zzz"))
	if lo != 0 || hi != 1 {
		t.Errorf("string bounds: lo=%f hi=%f", lo, hi)
	}
	mid := h.LessEqFraction(catalog.String_("cherry"))
	if mid <= 0 || mid >= 1 {
		t.Errorf("mid fraction = %f", mid)
	}
}

// TestAnalyzeOrdersNaN analyses a float column that holds NaNs. Under
// Compare's float8 rule (a NaN equals a NaN and is greater than every
// number) Min <= Max, the histogram bounds never descend, the NaNs count as
// one distinct value, and a range holding a quarter of the rows is seen.
func TestAnalyzeOrdersNaN(t *testing.T) {
	nan := math.NaN()
	var rows []catalog.Row
	for _, v := range []float64{5, nan, 1, 3, nan, 3, nan, 1} {
		rows = append(rows, catalog.Row{catalog.Float(v)})
	}
	ts, err := Analyze(oneColTable(), ColumnsOf(rows, 1), 8192)
	if err != nil {
		t.Fatal(err)
	}
	cs := ts.Column("a")
	if cs.Min.Compare(cs.Max) > 0 {
		t.Errorf("Min %v > Max %v", cs.Min, cs.Max)
	}
	if cs.NDV != 4 {
		t.Errorf("NDV = %d, want 4 (1, 3, 5 and NaN)", cs.NDV)
	}
	if cs.Hist == nil {
		t.Fatal("no histogram")
	}
	for i := 1; i < len(cs.Hist.Bounds); i++ {
		if cs.Hist.Bounds[i-1].Compare(cs.Hist.Bounds[i]) > 0 {
			t.Fatalf("histogram bounds descend: %v", cs.Hist.Bounds)
		}
	}
	if sel := cs.RangeSelectivity(catalog.Float(2), catalog.Float(4)); sel <= 0 {
		t.Errorf("RangeSelectivity(2, 4) = %v, want > 0: the 3s are a quarter of the rows", sel)
	}
}
