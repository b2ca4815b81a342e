package inum

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/catalog"
	"repro/internal/optimizer"
)

// maxNumbered bounds the structures one numbering holds. Identity is the
// structure's address, and a long-lived question meets fresh addresses for
// the same designs every time an advisor regenerates its candidates; past
// the bound the cache starts a new numbering, and each entry rebuilds its
// table on its next costing, which costs pricing, never a different answer.
const maxNumbered = 1024

// numbering gives each structure a question prices an ordinal, the index
// of every entry's table. Ordinals are handed out under mu and published in
// an open-addressing table keyed by the structure's address, at most half
// full, so a structure met before is found with no lock and no allocation;
// a full table is copied into one twice its size and republished.
type numbering struct {
	mu      sync.Mutex
	ids     atomic.Pointer[idTable]
	structs []*catalog.Index // by ordinal, under mu
	size    atomic.Int32
}

// idTable is one generation of a numbering's lookup, its length a power of
// two. A slot's ordinal is written before its structure is published, and
// neither changes after; a reader of a replaced generation that misses
// looks again under the lock.
type idTable []idSlot

type idSlot struct {
	ix atomic.Pointer[catalog.Index]
	id int32
}

// addrHash hashes a structure's address (Fibonacci hashing: the high half
// of the product is the well-mixed one). A numbered structure is on the
// heap — the numbering keeps it — and Go's collector does not move heap
// objects, so its address is a stable key. hash/maphash.Comparable hashes
// the same address, but made a warm costing, which looks each structure up
// twice (cost), 45 % slower (BenchmarkCostForWarm).
func addrHash(ix *catalog.Index) uint64 {
	return uint64(uintptr(unsafe.Pointer(ix))) * 0x9E3779B97F4A7C15 >> 32
}

// find returns the structure's ordinal in the table, if it holds one.
func (tab *idTable) find(ix *catalog.Index) (int32, bool) {
	if tab == nil {
		return 0, false
	}
	mask := uint64(len(*tab) - 1)
	for i := addrHash(ix) & mask; ; i = (i + 1) & mask {
		switch p := (*tab)[i].ix.Load(); p {
		case ix:
			return (*tab)[i].id, true
		case nil:
			return 0, false
		}
	}
}

// put publishes the structure's ordinal; callers hold the numbering's lock.
func (tab *idTable) put(ix *catalog.Index, id int32) {
	mask := uint64(len(*tab) - 1)
	i := addrHash(ix) & mask
	for (*tab)[i].ix.Load() != nil {
		i = (i + 1) & mask
	}
	(*tab)[i].id = id
	(*tab)[i].ix.Store(ix)
}

// id returns the structure's ordinal, numbering it on first sight.
func (n *numbering) id(ix *catalog.Index) int32 {
	if id, ok := n.ids.Load().find(ix); ok {
		return id
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	tab := n.ids.Load()
	if id, ok := tab.find(ix); ok {
		return id
	}
	id := int32(len(n.structs))
	n.structs = append(n.structs, ix)
	if tab == nil || 2*len(n.structs) > len(*tab) {
		size := 8
		if tab != nil {
			size = 2 * len(*tab)
		}
		grown := make(idTable, size)
		for k, s := range n.structs[:id] {
			grown.put(s, int32(k))
		}
		tab = &grown
		n.ids.Store(tab)
	}
	tab.put(ix, id)
	n.size.Store(id + 1)
	return id
}

// numbering returns the cache's current numbering, starting a new one when
// there is none or the current one is full.
func (c *Cache) numbering() *numbering {
	n := c.num.Load()
	if n == nil || n.size.Load() >= maxNumbered {
		if fresh := new(numbering); c.num.CompareAndSwap(n, fresh) {
			return fresh
		}
		return c.num.Load()
	}
	return n
}

// Ordinals are structures numbered in one cache, position by position: a
// reader prices sets of positions (CostOf).
type Ordinals struct {
	num *numbering
	ids []int32
}

// Number numbers the structures in the cache, once for however many sets
// of them are then priced.
func (c *Cache) Number(structs []*catalog.Index) Ordinals {
	n := c.numbering()
	o := Ordinals{num: n, ids: make([]int32, len(structs))}
	for i, ix := range structs {
		o.ids[i] = n.id(ix)
	}
	return o
}

// table is an entry's pricing table over one numbering: the access cost per
// order slot of every table of the query with no structure (base, flat:
// table t's slots are base[slotAt[t]:slotAt[t+1]]), and per numbered
// structure its column. A table is never written once published; extending
// it publishes a longer one whose prefix is the same.
type table struct {
	num  *numbering
	base []float64
	cols []column
	vecs []float64
}

// column places one structure in an entry's table. A structure on table
// position t of the query has its access terms (optimizer.AccessTerms), one
// per order slot of the table, at vecs[at:]; an aggregate view that can
// rewrite the query has t = len(Tables) and its rewrite cost at vecs[at];
// a structure no costing of the query can see has t = -1.
type column struct{ t, at int32 }

// table returns the entry's table over numbering n holding at least the
// first need ordinals.
func (c *Cache) table(q *CachedQuery, n *numbering, need int32) *table {
	if t := q.tab.Load(); t != nil && t.num == n && int32(len(t.cols)) >= need {
		return t
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	next := &table{num: n}
	t := q.tab.Load()
	if t != nil && t.num == n {
		// Extending appends past the published lengths only: readers of
		// the published table never look there.
		next.base, next.cols, next.vecs = t.base, t.cols, t.vecs
	} else {
		t = nil
	}
	n.mu.Lock()
	first := len(next.cols)
	fresh := n.structs[first:len(n.structs):len(n.structs)]
	n.mu.Unlock()
	if len(fresh) == 0 && t != nil {
		return t
	}
	for range fresh {
		next.cols = append(next.cols, column{t: -1})
	}
	var group []*catalog.Index
	var at []int
	for ti, name := range q.Tables {
		group, at = group[:0], at[:0]
		for k, ix := range fresh {
			if catalog.NormCol(ix.Table) != name || !optimizer.CanUse(q.Stmt, name, ix) {
				continue
			}
			if ix.Kind == catalog.KindAggView {
				if cost := c.base.BestMVRewriteCost(q.Stmt, fresh[k:k+1]); cost >= 0 {
					next.cols[first+k] = column{t: int32(len(q.Tables)), at: int32(len(next.vecs))}
					next.vecs = append(next.vecs, cost)
				}
				continue
			}
			group, at = append(group, ix), append(at, k)
		}
		if len(group) == 0 && t != nil {
			continue
		}
		// The table was resolved against the schema when the entry was
		// built, the only error AccessTerms can report.
		start := len(next.vecs)
		var base []float64
		base, next.vecs, _ = c.base.AccessTerms(q.Stmt, name, optimizer.TableDesign{Indexes: group}, q.orders[ti], nil, next.vecs)
		if t == nil {
			next.base = append(next.base, base...)
		}
		for g, k := range at {
			next.cols[first+k] = column{t: int32(ti), at: int32(start + g*len(q.orders[ti]))}
		}
	}
	q.tab.Store(next)
	return next
}

// cost prices the query under the count structures ord names in numbering
// n and under cfg's layouts (cfg may be nil): per table and order slot the
// min of the base and of each visible structure's term, then min over
// templates of internal + Σ per-table access costs in table order — the sum
// pricing the templates one by one makes — then the cheapest aggregate-view
// rewrite. It takes no lock and allocates nothing once the table holds the
// structures and the layout memo cfg's footprints.
func (c *Cache) cost(q *CachedQuery, n *numbering, count int, ord func(int) int32, cfg *catalog.Configuration) float64 {
	c.counters.CachedCostings.Add(1)
	// The ordinals are resolved first, so that a costing numbering
	// structures extends the table once, for all of them.
	var need int32
	for k := 0; k < count; k++ {
		need = max(need, ord(k)+1)
	}
	t := c.table(q, n, need)
	var accBuf [4 * maxTemplates]float64
	acc := accBuf[:0]
	acc = append(acc, t.base...)
	if cfg != nil && (len(cfg.Vertical) > 0 || len(cfg.Horizontal) > 0) {
		c.layoutBases(q, cfg, acc)
	}
	mv := math.Inf(1)
	for k := 0; k < count; k++ {
		switch col := t.cols[ord(k)]; {
		case col.t < 0:
		case int(col.t) == len(q.Tables):
			mv = min(mv, t.vecs[col.at])
		default:
			lo, hi := q.slotAt[col.t], q.slotAt[col.t+1]
			for s, v := range t.vecs[col.at : col.at+hi-lo] {
				if v < acc[lo+int32(s)] {
					acc[lo+int32(s)] = v
				}
			}
		}
	}

	var buf [maxTemplates]float64
	totals := buf[:len(q.internals)]
	copy(totals, q.internals)
	nt := len(q.Tables)
	for ti := range q.Tables {
		for i := range totals {
			totals[i] += acc[q.slots[i*nt+ti]]
		}
	}
	best := totals[0]
	for _, total := range totals[1:] {
		if total < best {
			best = total
		}
	}
	// Aggregate views compete as whole-query rewrites of single-table
	// queries (matching what the full optimizer does).
	return min(best, mv)
}

// layoutKey is a table of the query and its scan footprint under the
// layouts of a configuration (optimizer.LayoutFootprint), by bits.
type layoutKey struct {
	t  int32
	fp [3]uint64
}

// layoutEntry is the base access cost per order slot of one table under
// one footprint.
type layoutEntry struct {
	key  layoutKey
	base []float64
}

// layoutMemo is the entry's memo of layout bases: an open-addressing table,
// at most half full. Entries are immutable and slots only go from nil to
// set, so a reader needs no lock; a full memo is copied into a larger one
// and republished under the entry's lock.
type layoutMemo struct {
	slots []atomic.Pointer[layoutEntry]
	used  int
}

func (k layoutKey) hash() uint64 {
	const mult = 0x9E3779B97F4A7C15
	h := uint64(k.t+1) * mult
	for _, w := range k.fp {
		h = (h ^ w) * mult
		h ^= h >> 29
	}
	return h
}

func (m *layoutMemo) find(k layoutKey) *layoutEntry {
	if m == nil {
		return nil
	}
	mask := uint64(len(m.slots) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		if e := m.slots[i].Load(); e == nil || e.key == k {
			return e
		}
	}
}

func (m *layoutMemo) insert(e *layoutEntry) {
	mask := uint64(len(m.slots) - 1)
	i := e.key.hash() & mask
	for m.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	m.slots[i].Store(e)
	m.used++
}

// layoutBases overwrites acc's base costs of every table of the query whose
// scan footprint cfg's layouts change — all a layout changes about an access
// cost, and nothing of the layout's text, so a merge of two fragments the
// query does not read prices nothing, and a layout edited in place is keyed
// by what it holds when priced.
func (c *Cache) layoutBases(q *CachedQuery, cfg *catalog.Configuration, acc []float64) {
	for ti, name := range q.Tables {
		v, h := cfg.VerticalOn(name), cfg.HorizontalOn(name)
		if v == nil && h == nil {
			continue
		}
		fp, moved := c.base.LayoutFootprint(q.Stmt, name, v, h)
		if !moved {
			continue
		}
		k := layoutKey{t: int32(ti), fp: [3]uint64{math.Float64bits(fp.Pages), math.Float64bits(fp.CPURows), math.Float64bits(fp.StitchCPU)}}
		e := q.layouts.Load().find(k)
		if e == nil {
			e = c.putLayout(q, k, v, h)
		}
		copy(acc[q.slotAt[ti]:], e.base)
	}
}

// putLayout prices table k.t's base under the layouts and publishes it,
// unless a racing costing already did.
func (c *Cache) putLayout(q *CachedQuery, k layoutKey, v *catalog.VerticalLayout, h *catalog.HorizontalLayout) *layoutEntry {
	base, _, _ := c.base.AccessTerms(q.Stmt, q.Tables[k.t], optimizer.TableDesign{Vertical: v, Horizontal: h}, q.orders[k.t], nil, nil)
	q.mu.Lock()
	defer q.mu.Unlock()
	m := q.layouts.Load()
	if prev := m.find(k); prev != nil {
		return prev
	}
	if m == nil || 2*(m.used+1) > len(m.slots) {
		size := 8
		if m != nil {
			size = 2 * len(m.slots)
		}
		grown := &layoutMemo{slots: make([]atomic.Pointer[layoutEntry], size)}
		if m != nil {
			for i := range m.slots {
				if old := m.slots[i].Load(); old != nil {
					grown.insert(old)
				}
			}
		}
		m = grown
		q.layouts.Store(m)
	}
	e := &layoutEntry{key: k, base: base}
	m.insert(e)
	return e
}
