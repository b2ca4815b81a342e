package inum

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/optimizer"
)

// tableSlice is the part of a configuration one table's costing can see:
// the structures to consider and the table's partition layouts. structs may
// hold structures of other tables (CostFor hands over cfg.Indexes as it
// is); they are skipped by name. The layouts are read when the slice is
// priced, not when it is cut.
type tableSlice struct {
	structs    []*catalog.Index
	vertical   *catalog.VerticalLayout
	horizontal *catalog.HorizontalLayout
}

// sliceOf cuts table's slice out of cfg, considering the given structures.
func sliceOf(cfg *catalog.Configuration, table string, structs []*catalog.Index) tableSlice {
	return tableSlice{structs: structs, vertical: cfg.VerticalOn(table), horizontal: cfg.HorizontalOn(table)}
}

// Digest is a configuration split once into per-table slices, so that
// pricing it against a whole workload walks, per query, only the structures
// on that query's tables. Its structure lists are a snapshot: build it,
// price with it, drop it.
type Digest struct {
	tables []digestTable // a schema has a handful of tables: scanned, not hashed
}

type digestTable struct {
	name string // lower-case
	tableSlice
}

// DigestOf digests a configuration.
func DigestOf(cfg *catalog.Configuration) *Digest {
	d := &Digest{}
	// One backing array, each table's structures contiguous in it.
	grouped := make([]*catalog.Index, 0, len(cfg.Indexes))
	for i, ix := range cfg.Indexes {
		t := catalog.NormCol(ix.Table)
		if d.find(t) != nil {
			continue
		}
		start := len(grouped)
		for _, other := range cfg.Indexes[i:] {
			if catalog.NormCol(other.Table) == t {
				grouped = append(grouped, other)
			}
		}
		d.tables = append(d.tables, digestTable{name: t, tableSlice: sliceOf(cfg, t, grouped[start:len(grouped):len(grouped)])})
	}
	// Partitioned tables without structures.
	bare := func(t string) {
		if d.find(t) == nil {
			d.tables = append(d.tables, digestTable{name: t, tableSlice: sliceOf(cfg, t, nil)})
		}
	}
	for t := range cfg.Vertical {
		bare(t)
	}
	for t := range cfg.Horizontal {
		bare(t)
	}
	return d
}

func (d *Digest) find(table string) *tableSlice {
	for i := range d.tables {
		if d.tables[i].name == table {
			return &d.tables[i].tableSlice
		}
	}
	return nil
}

// maxInterned bounds the structures one memo numbers. Identity is the
// structure's address, and a long-lived entry meets fresh addresses for the
// same designs every time an advisor regenerates its candidates; past the
// bound the memo is dropped and rebuilt from the next costing on, which
// costs misses, never a different answer.
const maxInterned = 4096

// costMemo is the access-cost memo of one cached query. Every structure the
// query is priced against is numbered on first sight — or marked as
// invisible, when it cannot enter any plan of the query — and a table's
// access costs are keyed on the set of visible numbers present plus what the
// table's layouts change for the query: its scan footprint
// (optimizer.LayoutFootprint), the one input of the access costs a layout
// reaches. Two layouts with one footprint share an entry — a merge of two
// fragments the query does not read prices nothing — and a layout edited in
// place between two costings (AutoPart's merge loop) is keyed by what it
// holds when priced. Everything stored is a pure function of its key, so
// readers never wait: ids and entries are published atomically and read
// without a lock; mu only orders the writers.
type costMemo struct {
	mu sync.Mutex

	// ids maps *catalog.Index to its int32 number, or -1 when invisible.
	ids      sync.Map
	nextID   int32        // under mu
	interned atomic.Int32 // len(ids)

	tab atomic.Pointer[memoTable]
}

// costMemo returns the query's memo, making it on first use and replacing
// it once it has numbered maxInterned structures.
func (q *CachedQuery) costMemo() *costMemo {
	m := q.memo.Load()
	if m == nil || m.interned.Load() >= maxInterned {
		// Racing costings may each install one; the loser's is garbage.
		m = &costMemo{}
		q.memo.Store(m)
	}
	return m
}

// idOf returns the structure's number for table t of the query, or -1 when
// no costing of the query can see it.
func (m *costMemo) idOf(q *CachedQuery, t int, ix *catalog.Index) int32 {
	if v, ok := m.ids.Load(ix); ok {
		return v.(int32)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.ids.Load(ix); ok {
		return v.(int32)
	}
	id := int32(-1)
	if optimizer.CanUse(q.Stmt.Analysis().Footprint, q.Tables[t], ix) {
		id = m.nextID
		m.nextID++
	}
	m.ids.Store(ix, id)
	m.interned.Add(1)
	return id
}

// memoEntry is one memoized pricing: the access cost of table (an index
// into CachedQuery.Tables) per required-order slot, under the visible
// structures and the scan footprint in key. table == len(Tables) holds the
// aggregate-view rewrite cost of a single-table query in costs[0].
type memoEntry struct {
	table int32
	// layout reports that key ends with the scan footprint's
	// footprintWords words, which it holds only when the table's layouts
	// change the footprint: an unpartitioned table's key is the bitset alone.
	layout bool
	key    []uint64 // bitset of structure numbers, no trailing zero word; then the footprint
	hash   uint64
	costs  []float64
}

// footprintWords is the length of a footprint in a memo key.
const footprintWords = 3

// appendFootprint appends the footprint's bits to a memo key.
func appendFootprint(key []uint64, fp optimizer.ScanFootprint) []uint64 {
	return append(key, math.Float64bits(fp.Pages), math.Float64bits(fp.CPURows), math.Float64bits(fp.StitchCPU))
}

// memoTable is an open-addressing table of entries, at most half full.
// Entries are immutable and slots only go from nil to set, so a reader
// needs no lock; a full table is copied into a larger one and republished.
type memoTable struct {
	slots []atomic.Pointer[memoEntry]
	used  int // writers only
}

func memoHash(table int32, layout bool, key []uint64) uint64 {
	const mult = 0x9E3779B97F4A7C15
	h := uint64(table)<<1 + 1
	if layout {
		h++
	}
	h *= mult
	for _, w := range key {
		h = (h ^ w) * mult
		h ^= h >> 29
	}
	return h
}

func (t *memoTable) find(hash uint64, table int32, layout bool, key []uint64) *memoEntry {
	if t == nil {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		e := t.slots[i].Load()
		if e == nil {
			return nil
		}
		if e.hash == hash && e.table == table && e.layout == layout && slices.Equal(e.key, key) {
			return e
		}
	}
}

func (t *memoTable) insert(e *memoEntry) {
	mask := uint64(len(t.slots) - 1)
	i := e.hash & mask
	for t.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	t.slots[i].Store(e)
	t.used++
}

// put publishes an entry, unless a racing costing already published its
// twin, and returns the published one.
func (m *costMemo) put(e *memoEntry) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tab.Load()
	if prev := t.find(e.hash, e.table, e.layout, e.key); prev != nil {
		return prev
	}
	if t == nil || 2*(t.used+1) > len(t.slots) {
		size := 8
		if t != nil {
			size = 2 * len(t.slots)
		}
		grown := &memoTable{slots: make([]atomic.Pointer[memoEntry], size)}
		if t != nil {
			for i := range t.slots {
				if old := t.slots[i].Load(); old != nil {
					grown.insert(old)
				}
			}
		}
		t = grown
		m.tab.Store(t)
	}
	t.insert(e)
	return e
}

// accessCosts returns, for table t of the query under slice s, the access
// cost per required-order slot and the cost of the cheapest aggregate-view
// rewrite (-1 when no view in s can rewrite the query; only a single-table
// query has visible views). Both come from the memo when the same visible
// structures and scan footprint were priced before.
func (c *Cache) accessCosts(q *CachedQuery, m *costMemo, t int, s *tableSlice) (access []float64, mv float64) {
	table := q.Tables[t]
	var keyBuf [4 + footprintWords]uint64
	var viewBuf [4]uint64
	key, views := keyBuf[:0], viewBuf[:0]
	for _, ix := range s.structs {
		if catalog.NormCol(ix.Table) != table {
			continue
		}
		id := m.idOf(q, t, ix)
		if id < 0 {
			continue
		}
		if ix.Kind == catalog.KindAggView {
			views = setBit(views, id)
		} else {
			key = setBit(key, id)
		}
	}
	layout := false
	if s.vertical != nil || s.horizontal != nil {
		var fp optimizer.ScanFootprint
		if fp, layout = c.base.LayoutFootprint(q.Stmt, table, s.vertical, s.horizontal); layout {
			key = appendFootprint(key, fp)
		}
	}

	h := memoHash(int32(t), layout, key)
	e := m.tab.Load().find(h, int32(t), layout, key)
	if e == nil {
		design := optimizer.TableDesign{Indexes: c.visible(q, m, t, s, false), Vertical: s.vertical, Horizontal: s.horizontal}
		// The table was resolved against the schema when the entry was
		// built, the only error AccessCosts can report.
		costs, _ := c.base.AccessCosts(q.Stmt, table, design, q.orders[t])
		e = m.put(&memoEntry{table: int32(t), layout: layout, key: append([]uint64(nil), key...), hash: h, costs: costs})
	}
	if len(views) == 0 {
		return e.costs, -1
	}
	rewrite := int32(len(q.Tables))
	h = memoHash(rewrite, false, views)
	ve := m.tab.Load().find(h, rewrite, false, views)
	if ve == nil {
		cost := c.base.BestMVRewriteCost(q.Stmt, c.visible(q, m, t, s, true))
		ve = m.put(&memoEntry{table: rewrite, key: append([]uint64(nil), views...), hash: h, costs: []float64{cost}})
	}
	return e.costs, ve.costs[0]
}

// setBit sets bit id of the bitset, growing it as needed.
func setBit(set []uint64, id int32) []uint64 {
	w := int(id >> 6)
	for len(set) <= w {
		set = append(set, 0)
	}
	set[w] |= 1 << (id & 63)
	return set
}

// visible lists the structures of slice s the query can see on table t:
// its aggregate views, or its row structures.
func (c *Cache) visible(q *CachedQuery, m *costMemo, t int, s *tableSlice, aggViews bool) []*catalog.Index {
	var out []*catalog.Index
	for _, ix := range s.structs {
		if catalog.NormCol(ix.Table) == q.Tables[t] && (ix.Kind == catalog.KindAggView) == aggViews && m.idOf(q, t, ix) >= 0 {
			out = append(out, ix)
		}
	}
	return out
}
