package optimizer

import (
	"math"
	"slices"

	"repro/internal/catalog"
	"repro/internal/stats"
)

// CostParams are the optimizer's cost constants, matching PostgreSQL's
// defaults so plan shapes transfer.
type CostParams struct {
	SeqPageCost       float64
	RandomPageCost    float64
	CPUTupleCost      float64
	CPUIndexTupleCost float64
	CPUOperatorCost   float64
	// EffectiveCacheSize in pages bounds the Mackert–Lohman estimate of
	// repeated heap page fetches.
	EffectiveCacheSize float64
}

// DefaultCostParams returns PostgreSQL's default cost constants.
func DefaultCostParams() CostParams {
	return CostParams{
		SeqPageCost:        1.0,
		RandomPageCost:     4.0,
		CPUTupleCost:       0.01,
		CPUIndexTupleCost:  0.005,
		CPUOperatorCost:    0.0025,
		EffectiveCacheSize: 524288, // 4 GiB of 8 KiB pages
	}
}

// seqScanCost prices a full scan of `pages` pages producing `rows` tuples
// and evaluating `quals` predicate operators per tuple.
func (p CostParams) seqScanCost(pages, rows float64, quals int) float64 {
	return pages*p.SeqPageCost + rows*(p.CPUTupleCost+float64(quals)*p.CPUOperatorCost)
}

// mackertLohman estimates distinct heap pages fetched when `tuples` random
// probes hit a relation of `pages` pages (the classical approximation used
// by PostgreSQL's index costing).
func mackertLohman(tuples, pages, cacheSize float64) float64 {
	if tuples <= 0 || pages <= 0 {
		return 0
	}
	T := math.Max(pages, 1)
	N := tuples
	b := cacheSize
	if b < 1 {
		b = 1
	}
	var fetched float64
	if T <= b {
		fetched = (2 * T * N) / (2*T + N)
		if fetched > T {
			fetched = T
		}
	} else {
		lim := (2 * T * b) / (2*T - b)
		if N <= lim {
			fetched = (2 * T * N) / (2*T + N)
		} else {
			fetched = b + (N-lim)*(T-b)/T
		}
	}
	return fetched
}

// indexScanCost prices a B-tree index scan following btcostestimate's
// shape: tree descent, leaf page reads proportional to selectivity, CPU per
// index tuple, then heap fetches blended between the random worst case and
// the clustered best case by the square of the column correlation.
//
// When indexOnly is true heap fetches are skipped (the synthetic store has
// an always-true visibility map).
//
// loops > 1 indicates a parameterized inner scan re-executed that many
// times; page reads amortize via Mackert–Lohman across repetitions.
func (p CostParams) indexScanCost(
	idx indexGeom, heapPages, heapRows float64,
	indexSel, heapSel float64, correlation float64,
	indexOnly bool, quals int, loops float64,
) (startup, total float64) {
	if loops < 1 {
		loops = 1
	}
	tuplesPerScan := math.Max(indexSel*idx.entries, 0)
	leafPagesPerScan := math.Ceil(indexSel * idx.leafPages)
	if leafPagesPerScan < 1 && tuplesPerScan > 0 {
		leafPagesPerScan = 1
	}

	// Descent: one random page per level, charged per scan but cheap.
	descent := float64(idx.height) * p.RandomPageCost * 0.5
	startup = descent

	// Leaf I/O amortizes over repeated scans (upper levels cached).
	leafIO := leafPagesPerScan * p.RandomPageCost
	if loops > 1 {
		pagesFetched := mackertLohman(leafPagesPerScan*loops, math.Max(idx.leafPages, 1), p.EffectiveCacheSize)
		leafIO = pagesFetched / loops * p.RandomPageCost
	}

	idxCPU := tuplesPerScan * p.CPUIndexTupleCost

	heapIO := 0.0
	heapCPU := 0.0
	if !indexOnly {
		heapTuples := math.Max(heapSel*heapRows, 0)
		pagesFetched := mackertLohman(heapTuples*loops, heapPages, p.EffectiveCacheSize)
		maxIO := pagesFetched / loops * p.RandomPageCost
		// Best case: tuples are physically clustered with the index order.
		minPages := math.Min(math.Ceil(heapSel*heapPages), heapPages)
		minIO := minPages*p.SeqPageCost + math.Max(pagesFetched/loops-minPages, 0)*p.SeqPageCost
		c2 := correlation * correlation
		heapIO = maxIO + c2*(minIO-maxIO)
		heapCPU = heapTuples * (p.CPUTupleCost + float64(quals)*p.CPUOperatorCost)
	} else {
		heapCPU = tuplesPerScan * (p.CPUTupleCost*0.5 + float64(quals)*p.CPUOperatorCost)
	}

	total = startup + leafIO + idxCPU + heapIO + heapCPU
	return startup, total
}

// indexGeom captures the physical geometry of an index for costing.
type indexGeom struct {
	entries   float64 // total (key, rowid) pairs
	leafPages float64
	height    int
}

// geometry derives index geometry from catalog metadata, filling estimates
// from table stats when the index is unsized. Under ZeroSizeWhatIf,
// hypothetical indexes report (almost) zero pages, reproducing the flawed
// baseline of experiment E12.
func (e *Env) geometry(ix *catalog.Index, ts *stats.TableStats) indexGeom {
	g := indexGeom{entries: float64(ts.RowCount)}
	if e.Opts.ZeroSizeWhatIf && ix.Hypothetical {
		g.leafPages = 0
		g.height = 1
		return g
	}
	if ix.EstimatedPages > 0 {
		g.leafPages = float64(ix.EstimatedPages)
	} else {
		cols := ix.Columns
		if ix.Kind == catalog.KindProjection {
			cols = slices.Concat(cols, ix.Include) // the INCLUDE payload rides in every leaf
		}
		g.leafPages = EstimateIndexLeafPages(e.Schema.Table(ix.Table), cols, ts.RowCount)
	}
	if ix.EstimatedHeight > 0 {
		g.height = ix.EstimatedHeight
	} else {
		g.height = EstimateIndexHeight(g.leafPages)
	}
	return g
}

// EstimateIndexLeafPages sizes a B-tree's leaf level from key widths and
// row count; this is the sizing model the what-if layer publishes, so a
// hypothetical index is never priced at size zero.
func EstimateIndexLeafPages(t *catalog.Table, columns []string, rows int64) float64 {
	keyWid := 12 // item pointer + alignment, matching storage.BuildIndex
	for _, c := range columns {
		if col := t.Column(c); col != nil {
			keyWid += col.WidthBytes()
		} else {
			keyWid += 8
		}
	}
	perPage := math.Floor(8192 * 0.70 / float64(keyWid))
	if perPage < 1 {
		perPage = 1
	}
	pages := math.Ceil(float64(rows) / perPage)
	if pages < 1 {
		pages = 1
	}
	return pages
}

// EstimateAggViewSize sizes a single-table aggregate materialized view from
// statistics: one row per distinct group-key combination (NDV product,
// clamped to the table row count), 8 bytes of pre-computed state per
// aggregate. This is the what-if sizing model for catalog.KindAggView.
func EstimateAggViewSize(t *catalog.Table, ts *stats.TableStats, keys, aggs []string) (rows, pages int64) {
	totalRows := int64(1000)
	if ts != nil {
		totalRows = ts.RowCount
	}
	rowsF := 1.0
	for _, k := range keys {
		d := float64(totalRows) / 10
		if ts != nil {
			if cs := ts.Column(k); cs != nil && cs.NDV > 0 {
				d = float64(cs.NDV)
			}
		}
		rowsF *= d
	}
	if rowsF > float64(totalRows) {
		rowsF = float64(totalRows)
	}
	if rowsF < 1 {
		rowsF = 1
	}
	width := 12.0
	for _, c := range keys {
		if t != nil {
			if col := t.Column(c); col != nil {
				width += float64(col.WidthBytes())
				continue
			}
		}
		width += 8
	}
	width += 8 * float64(len(aggs))
	perPage := math.Floor(8192 * 0.70 / width)
	if perPage < 1 {
		perPage = 1
	}
	pagesF := math.Max(math.Ceil(rowsF/perPage), 1)
	return int64(rowsF), int64(pagesF)
}

// EstimateIndexHeight derives tree height from the leaf page count with a
// fanout matching storage's B-tree.
func EstimateIndexHeight(leafPages float64) int {
	h := 1
	n := leafPages
	for n > 1 {
		n = math.Ceil(n / 64)
		h++
	}
	return h
}

// sortCost prices an in-memory quicksort of `rows` tuples with `width`-byte
// rows (width currently unused; kept for a future spill model).
func (p CostParams) sortCost(rows float64) (startup, total float64) {
	if rows < 2 {
		return p.CPUOperatorCost, p.CPUOperatorCost
	}
	cmp := 2.0 * p.CPUOperatorCost * rows * math.Log2(rows)
	return cmp, cmp + rows*p.CPUTupleCost*0.5
}

// hashJoinCost prices build on the inner input and probe from the outer.
func (p CostParams) hashJoinCost(outerRows, innerRows float64, quals int) float64 {
	build := innerRows * (p.CPUTupleCost + p.CPUOperatorCost)
	probe := outerRows * (p.CPUOperatorCost*float64(1+quals) + p.CPUTupleCost*0.5)
	return build + probe
}

// mergeJoinCost prices the merge phase of two sorted inputs.
func (p CostParams) mergeJoinCost(outerRows, innerRows float64, quals int) float64 {
	return (outerRows + innerRows) * p.CPUOperatorCost * float64(1+quals)
}

// aggCost prices a hash aggregation of rows into groups.
func (p CostParams) aggCost(rows, groups float64, nAggs int) float64 {
	return rows*p.CPUOperatorCost*float64(1+nAggs) + groups*p.CPUTupleCost
}
