package stats

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/catalog"
)

// The ANALYZE rule analyzeColumn replaced, kept as the twin it is held to:
// a stable sort of a copy of the values, and a map of every canonical value
// for the distinct count. Its domain excludes NaN (Compare was not a total
// order over it, and the map counts each NaN apart) and ints beyond 2^53
// (where the map and the sorted runs may disagree on which datums are one
// value).

// AnalyzeReference is Analyze under the reference rule, column by column
// on the calling goroutine.
func AnalyzeReference(t *catalog.Table, rows []catalog.Row, pageSize int) *TableStats {
	ts := &TableStats{
		RowCount: int64(len(rows)),
		Columns:  make(map[string]*ColumnStats, len(t.Columns)),
	}
	rowsPerPage := max(pageSize/t.RowWidthBytes(), 1)
	ts.Pages = max((ts.RowCount+int64(rowsPerPage)-1)/int64(rowsPerPage), 1)
	for ci, col := range t.Columns {
		cs := analyzeColumnReference(rows, ci)
		cs.AvgWidth = col.WidthBytes()
		ts.Columns[lower(col.Name)] = cs
	}
	return ts
}

func analyzeColumnReference(rows []catalog.Row, ci int) *ColumnStats {
	cs := &ColumnStats{}
	n := len(rows)
	if n == 0 {
		return cs
	}
	type posVal struct {
		pos int
		v   catalog.Datum
	}
	vals := make([]posVal, 0, n)
	nulls := 0
	distinct := make(map[catalog.Datum]struct{}, 1024)
	for i, r := range rows {
		v := r[ci]
		if v.IsNull() {
			nulls++
			continue
		}
		vals = append(vals, posVal{pos: i, v: v})
		distinct[canonDatum(v)] = struct{}{}
	}
	cs.NullFrac = float64(nulls) / float64(n)
	cs.NDV = int64(len(distinct))
	if len(vals) == 0 {
		return cs
	}
	sorted := make([]posVal, len(vals))
	copy(sorted, vals)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].v.Less(sorted[b].v) })
	cs.Min, cs.Max = sorted[0].v, sorted[len(sorted)-1].v

	ordered := make([]catalog.Datum, len(sorted))
	for i, pv := range sorted {
		ordered[i] = pv.v
	}
	cs.MCVs = collectMCVsReference(ordered, n)
	cs.Hist = BuildEquiDepth(ordered, DefaultBuckets)

	positions := make([]int, len(sorted))
	for i, pv := range sorted {
		positions[i] = pv.pos
	}
	cs.Correlation = positionRankCorrelation(positions)
	return cs
}

// canonDatum collapses numerically equal int/float datums for the
// reference's distinct count.
func canonDatum(v catalog.Datum) catalog.Datum {
	if v.Kind == catalog.KindFloat && v.F == math.Trunc(v.F) &&
		v.F >= math.MinInt64 && v.F <= math.MaxInt64 {
		return catalog.Int(int64(v.F))
	}
	return v
}

func collectMCVsReference(sorted []catalog.Datum, totalRows int) []MCV {
	if len(sorted) == 0 || totalRows == 0 {
		return nil
	}
	type run struct {
		v     catalog.Datum
		count int
	}
	var runs []run
	cur := run{v: sorted[0], count: 1}
	distinct := 1
	for _, v := range sorted[1:] {
		if v.Equal(cur.v) {
			cur.count++
			continue
		}
		runs = append(runs, cur)
		cur = run{v: v, count: 1}
		distinct++
	}
	runs = append(runs, cur)

	meanCount := float64(len(sorted)) / float64(distinct)
	threshold := meanCount * 1.25
	if threshold < 2 {
		threshold = 2
	}
	var qualified []run
	for _, r := range runs {
		if float64(r.count) >= threshold {
			qualified = append(qualified, r)
		}
	}
	sort.SliceStable(qualified, func(a, b int) bool {
		if qualified[a].count != qualified[b].count {
			return qualified[a].count > qualified[b].count
		}
		return qualified[a].v.Less(qualified[b].v)
	})
	if len(qualified) > MaxMCVs {
		qualified = qualified[:MaxMCVs]
	}
	out := make([]MCV, len(qualified))
	for i, r := range qualified {
		out[i] = MCV{Value: r.v, Freq: float64(r.count) / float64(totalRows)}
	}
	return out
}

// ColumnsOf lays rows of the given width out as the column vectors Analyze
// reads, so a test can hand the same rows to Analyze and AnalyzeReference.
func ColumnsOf(rows []catalog.Row, width int) []catalog.Vector {
	cols := make([]catalog.Vector, width)
	for _, r := range rows {
		for ci := range cols {
			cols[ci].Append(r[ci])
		}
	}
	return cols
}

// DiffTableStats describes the first difference between two TableStats,
// or returns "" when they are equal field for field: datums by kind and
// payload, floats by Float64bits.
func DiffTableStats(a, b *TableStats) string {
	if a.RowCount != b.RowCount || a.Pages != b.Pages {
		return fmt.Sprintf("rows/pages %d/%d vs %d/%d", a.RowCount, a.Pages, b.RowCount, b.Pages)
	}
	if len(a.Columns) != len(b.Columns) {
		return fmt.Sprintf("%d columns vs %d", len(a.Columns), len(b.Columns))
	}
	for name, ca := range a.Columns {
		cb := b.Columns[name]
		if cb == nil {
			return "no column " + name
		}
		if d := diffColumnStats(ca, cb); d != "" {
			return name + ": " + d
		}
	}
	return ""
}

func diffColumnStats(a, b *ColumnStats) string {
	switch {
	case a.NDV != b.NDV:
		return fmt.Sprintf("NDV %d vs %d", a.NDV, b.NDV)
	case !sameBits(a.NullFrac, b.NullFrac):
		return fmt.Sprintf("NullFrac %v vs %v", a.NullFrac, b.NullFrac)
	case !identical(a.Min, b.Min) || !identical(a.Max, b.Max):
		return fmt.Sprintf("Min/Max %#v/%#v vs %#v/%#v", a.Min, a.Max, b.Min, b.Max)
	case !sameBits(a.Correlation, b.Correlation):
		return fmt.Sprintf("Correlation %v vs %v", a.Correlation, b.Correlation)
	case a.AvgWidth != b.AvgWidth:
		return fmt.Sprintf("AvgWidth %d vs %d", a.AvgWidth, b.AvgWidth)
	case len(a.MCVs) != len(b.MCVs):
		return fmt.Sprintf("%d MCVs vs %d", len(a.MCVs), len(b.MCVs))
	case (a.Hist == nil) != (b.Hist == nil):
		return fmt.Sprintf("histogram %v vs %v", a.Hist, b.Hist)
	}
	for i := range a.MCVs {
		if !identical(a.MCVs[i].Value, b.MCVs[i].Value) || !sameBits(a.MCVs[i].Freq, b.MCVs[i].Freq) {
			return fmt.Sprintf("MCV %d %#v vs %#v", i, a.MCVs[i], b.MCVs[i])
		}
	}
	if a.Hist == nil {
		return ""
	}
	if len(a.Hist.Bounds) != len(b.Hist.Bounds) {
		return fmt.Sprintf("%d bounds vs %d", len(a.Hist.Bounds), len(b.Hist.Bounds))
	}
	for i := range a.Hist.Bounds {
		if !identical(a.Hist.Bounds[i], b.Hist.Bounds[i]) {
			return fmt.Sprintf("bound %d %#v vs %#v", i, a.Hist.Bounds[i], b.Hist.Bounds[i])
		}
	}
	return ""
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// identical reports whether two datums are the same value of the same kind,
// not merely Compare-equal: Int(2) and Float(2) differ here.
func identical(a, b catalog.Datum) bool {
	return a.Kind == b.Kind && a.I == b.I && sameBits(a.F, b.F) && a.S == b.S
}
