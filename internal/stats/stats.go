// Package stats implements the statistics substrate the optimizer and the
// what-if layer depend on: per-column equi-depth histograms, distinct-value
// counts, null fractions, min/max, and physical-order correlation, plus the
// ANALYZE pass that derives them from a table's column vectors.
//
// The designer is only as good as the selectivity estimates underneath it
// (the paper ports to "any relational DBMS which offers ... a way to extract
// and create statistics"); this package is that portability surface.
//
// ANALYZE sorts each column's non-null row positions once, by order key
// (catalog.Vector.Sort: one uint64 a value whose order is
// catalog.Datum.Compare's, radix-sorted), and reads every statistic off the
// sorted keys: the distinct count, one per run of equal keys, the MCVs and
// the correlation. It builds a datum only for what it keeps: Min and Max,
// the histogram bounds and the MCVs. The positions are gathered in
// ascending order and the sort is stable, so the permutation is the one a
// stable sort by value gives. Compare is exact between ints and floats and
// follows PostgreSQL's float8 rule for NaN (a NaN equals a NaN and is
// greater than every other number), so it is a total order, a run of equal
// keys is one value, and a column's NaNs count as one distinct value. A
// table's columns are analysed on min(GOMAXPROCS, columns) goroutines, each
// writing its own column's slot, so the result does not depend on the
// width.
package stats

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
)

// DefaultBuckets is the histogram resolution used by Analyze, matching the
// spirit of PostgreSQL's default_statistics_target (100 buckets there; 64
// here keeps synthetic workloads fast without hurting estimate quality).
const DefaultBuckets = 64

// MCV is one most-common-value entry: a value and its fraction of all rows.
type MCV struct {
	Value catalog.Datum
	Freq  float64
}

// MaxMCVs bounds the most-common-value list per column (PostgreSQL keeps
// default_statistics_target entries; skewed synthetic columns here have
// small hot domains, so 16 suffices).
const MaxMCVs = 16

// ColumnStats summarizes one column's value distribution.
type ColumnStats struct {
	// NDV is the estimated number of distinct non-null values.
	NDV int64
	// NullFrac is the fraction of NULL values in [0,1].
	NullFrac float64
	// Min and Max bound the non-null domain; NULL datums when the column
	// holds no non-null values.
	Min, Max catalog.Datum
	// MCVs lists the most common values with their row fractions, most
	// frequent first. Equality selectivity on skewed columns (object type,
	// spectroscopic class) is dominated by these entries.
	MCVs []MCV
	// Hist is an equi-depth histogram over non-null values; may be nil for
	// columns with tiny domains.
	Hist *Histogram
	// Correlation in [-1,1] measures how well physical row order tracks
	// the column's value order; it blends sequential vs. random page cost
	// in index scans exactly as PostgreSQL's btcostestimate does.
	Correlation float64
	// AvgWidth is the average stored width in bytes.
	AvgWidth int
}

// EqSelectivity estimates the fraction of rows with column = v: the MCV
// frequency when v is a known common value, otherwise the non-MCV mass
// spread over the remaining distinct values (PostgreSQL's var_eq_const).
func (c *ColumnStats) EqSelectivity(v catalog.Datum) float64 {
	if v.IsNull() {
		return 0 // WHERE col = NULL matches nothing
	}
	if c.NDV <= 0 {
		return 0
	}
	// Out-of-range constants match nothing.
	if !c.Min.IsNull() && v.Less(c.Min) {
		return 0
	}
	if !c.Max.IsNull() && c.Max.Less(v) {
		return 0
	}
	var mcvMass float64
	for _, m := range c.MCVs {
		if m.Value.Equal(v) {
			return m.Freq
		}
		mcvMass += m.Freq
	}
	restNDV := c.NDV - int64(len(c.MCVs))
	if restNDV <= 0 {
		// Every distinct value is an MCV and v matched none: the constant
		// is absent from the table.
		return 0
	}
	rest := (1 - c.NullFrac) - mcvMass
	if rest < 0 {
		rest = 0
	}
	return rest / float64(restNDV)
}

// RangeSelectivity estimates the fraction of rows with lo <= col <= hi,
// where a NULL bound means unbounded on that side.
func (c *ColumnStats) RangeSelectivity(lo, hi catalog.Datum) float64 {
	if c.Hist != nil {
		s := c.Hist.RangeFraction(lo, hi) * (1 - c.NullFrac)
		return clamp01(s)
	}
	// Fallback: linear interpolation over [Min, Max] for numeric columns.
	if c.Min.IsNull() || c.Max.IsNull() {
		return defaultRangeSel
	}
	minF, maxF := c.Min.AsFloat(), c.Max.AsFloat()
	if maxF <= minF {
		return defaultRangeSel
	}
	loF, hiF := minF, maxF
	if !lo.IsNull() {
		loF = math.Max(minF, lo.AsFloat())
	}
	if !hi.IsNull() {
		hiF = math.Min(maxF, hi.AsFloat())
	}
	if hiF <= loF {
		return 0
	}
	return clamp01((hiF - loF) / (maxF - minF) * (1 - c.NullFrac))
}

const defaultRangeSel = 1.0 / 3.0

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	default:
		return v
	}
}

// TableStats summarizes a table.
type TableStats struct {
	RowCount int64
	// Pages is the heap footprint in pages (set from storage, or derived
	// from RowCount and row width for synthetic tables).
	Pages   int64
	Columns map[string]*ColumnStats // keyed by lower-case column name
}

// Column returns stats for the named column, or nil.
func (t *TableStats) Column(name string) *ColumnStats {
	return t.Columns[lower(name)]
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// Catalog holds statistics for every analyzed table of a schema.
type Catalog struct {
	Tables map[string]*TableStats // keyed by lower-case table name
}

// NewCatalog returns an empty statistics catalog.
func NewCatalog() *Catalog {
	return &Catalog{Tables: make(map[string]*TableStats)}
}

// Table returns stats for the named table, or nil.
func (c *Catalog) Table(name string) *TableStats { return c.Tables[lower(name)] }

// Put registers table stats under the table name.
func (c *Catalog) Put(name string, ts *TableStats) { c.Tables[lower(name)] = ts }

// Analyze computes full statistics for a table from its column vectors,
// one a column in the table's order and all of one length. pageSize is the
// heap page capacity in bytes used to derive the page count. Columns are
// analysed on min(GOMAXPROCS, columns) goroutines; each writes its own
// column's slot, so the result does not depend on the width.
func Analyze(t *catalog.Table, cols []catalog.Vector, pageSize int) (*TableStats, error) {
	if pageSize <= 0 {
		return nil, errors.New("stats: pageSize must be positive")
	}
	if len(cols) != len(t.Columns) {
		return nil, fmt.Errorf("stats: table %s has %d columns, got %d vectors", t.Name, len(t.Columns), len(cols))
	}
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	for ci := range cols {
		if cols[ci].Len() != n {
			return nil, fmt.Errorf("stats: table %s column %s holds %d values, not %d", t.Name, t.Columns[ci].Name, cols[ci].Len(), n)
		}
	}
	ts := &TableStats{
		RowCount: int64(n),
		Columns:  make(map[string]*ColumnStats, len(t.Columns)),
	}
	rowsPerPage := pageSize / t.RowWidthBytes()
	if rowsPerPage < 1 {
		rowsPerPage = 1
	}
	ts.Pages = (ts.RowCount + int64(rowsPerPage) - 1) / int64(rowsPerPage)
	if ts.Pages == 0 {
		ts.Pages = 1
	}

	out := make([]*ColumnStats, len(t.Columns))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(out)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := int(next.Add(1) - 1); ci < len(out); ci = int(next.Add(1) - 1) {
				out[ci] = analyzeColumn(&cols[ci])
			}
		}()
	}
	wg.Wait()
	for ci, col := range t.Columns {
		out[ci].AvgWidth = col.WidthBytes()
		ts.Columns[lower(col.Name)] = out[ci]
	}
	return ts, nil
}

// analyzeColumn computes stats over one column from one sort of its
// non-null positions, by value and then by position.
func analyzeColumn(col *catalog.Vector) *ColumnStats {
	cs := &ColumnStats{}
	n := col.Len()
	if n == 0 {
		return cs
	}
	pos := make([]int, 0, n)
	for i := range n {
		if !col.IsNull(i) {
			pos = append(pos, i)
		}
	}
	cs.NullFrac = float64(n-len(pos)) / float64(n)
	if len(pos) == 0 {
		return cs
	}
	keys := col.Sort(pos)
	at := func(i int) catalog.Datum { return col.At(pos[i]) }
	cs.Min, cs.Max = at(0), at(len(pos)-1)
	for start := 0; start < len(keys); start = runEnd(keys, start) {
		cs.NDV++
	}
	cs.MCVs = collectMCVs(keys, cs.NDV, n, at)
	cs.Hist = equiDepth(len(pos), DefaultBuckets, at)
	// Correlation: Pearson correlation between physical position and value
	// rank, the same quantity PostgreSQL stores in pg_statistic.
	cs.Correlation = positionRankCorrelation(pos)
	return cs
}

// runEnd returns the end of the run of keys equal to sorted[start].
func runEnd(sorted []uint64, start int) int {
	end := start + 1
	for end < len(sorted) && sorted[end] == sorted[start] {
		end++
	}
	return end
}

// collectMCVs extracts the most common values from a column's sorted order
// keys, which hold ndv runs of equal values; at(i) is the value at sorted
// index i. A value qualifies when it appears clearly more often than
// average (at least twice, and at least 1.25x the mean frequency) —
// PostgreSQL's analyze heuristic in miniature.
func collectMCVs(sorted []uint64, ndv int64, totalRows int, at func(int) catalog.Datum) []MCV {
	meanCount := float64(len(sorted)) / float64(ndv)
	threshold := max(meanCount*1.25, 2)
	type run struct{ start, count int }
	var qualified []run
	for start, end := 0, 0; start < len(sorted); start = end {
		end = runEnd(sorted, start)
		if float64(end-start) >= threshold {
			qualified = append(qualified, run{start: start, count: end - start})
		}
	}
	// Runs are distinct values in ascending order, so ordering ties by where
	// a run starts orders them by value.
	slices.SortFunc(qualified, func(a, b run) int {
		if c := cmp.Compare(b.count, a.count); c != 0 {
			return c
		}
		return cmp.Compare(a.start, b.start)
	})
	if len(qualified) > MaxMCVs {
		qualified = qualified[:MaxMCVs]
	}
	out := make([]MCV, len(qualified))
	for i, r := range qualified {
		out[i] = MCV{Value: at(r.start), Freq: float64(r.count) / float64(totalRows)}
	}
	return out
}

// positionRankCorrelation computes the Pearson correlation between the
// physical position of each value (indexed by value rank) and its rank in
// sorted order.
func positionRankCorrelation(positions []int) float64 {
	m := len(positions)
	if m < 2 {
		return 1
	}
	var sumX, sumY, sumXY, sumXX, sumYY float64
	for rank, pos := range positions {
		x := float64(pos)
		y := float64(rank)
		sumX += x
		sumY += y
		sumXY += x * y
		sumXX += x * x
		sumYY += y * y
	}
	fm := float64(m)
	cov := sumXY - sumX*sumY/fm
	varX := sumXX - sumX*sumX/fm
	varY := sumYY - sumY*sumY/fm
	if varX <= 0 || varY <= 0 {
		return 1
	}
	r := cov / math.Sqrt(varX*varY)
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return r
}
