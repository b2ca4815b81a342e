package storage

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/catalog"
)

// Key is a composite index key: one datum per key column, compared
// lexicographically.
type Key []catalog.Datum

// Compare orders two keys lexicographically; a shorter key that is a prefix
// of the longer compares equal on the shared prefix (enabling prefix scans).
func (k Key) Compare(o Key) int {
	n := len(k)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := k[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	return 0
}

// FullCompare orders keys with length as the tiebreak (total order needed
// inside the tree; ties broken by row id at insert).
func (k Key) FullCompare(o Key) int {
	if c := k.Compare(o); c != 0 {
		return c
	}
	switch {
	case len(k) < len(o):
		return -1
	case len(k) > len(o):
		return 1
	default:
		return 0
	}
}

// String renders the key.
func (k Key) String() string {
	parts := make([]string, len(k))
	for i, d := range k {
		parts[i] = d.String()
	}
	return "[" + strings.Join(parts, ",") + "]"
}

const btreeFanout = 64 // max entries per node before split

// entry is one (key, rowid) pair in a leaf.
type entry struct {
	key Key
	id  int64
}

// node is a B-tree node. Leaves hold entries and a next-leaf link; interior
// nodes hold separator keys and children.
type node struct {
	leaf     bool
	entries  []entry // leaf only
	keys     []Key   // interior: len(children)-1 separators
	children []*node // interior only
	next     *node   // leaf chain
}

// BTree is an in-memory B-tree index over a heap. It stores (key, rowid)
// pairs sorted by key then rowid, supports range scans via a leaf chain,
// and models its page footprint for cost accounting.
type BTree struct {
	Meta    *catalog.Index
	root    *node
	count   int64
	keyWid  int // average key width in bytes, for page modeling
	numCols int
}

// BuildIndex bulk-builds a B-tree over the heap for the given key columns.
// The returned index is marked materialized (Hypothetical=false) and carries
// measured page/height figures. buildIO, when non-nil, is charged the build
// cost: one full heap scan plus writing every leaf page.
//
// The leaves hold the entries in key order, equal keys by row id. Row ids
// are sorted one key column at a time, last to first, each pass stable:
// NULLs first in their own partition (an int column's order key has no
// value to spare for them), then the rest by catalog.Vector.Sort, a radix
// sort on a 64-bit order key a value. A datum is built only for the keys
// the tree stores.
func BuildIndex(name string, h *Heap, columns []string, buildIO *IOCounter) (*BTree, error) {
	ords := make([]int, len(columns))
	keyWid := 12 // per-entry overhead: item pointer + alignment
	for i, c := range columns {
		ord := h.Table.ColumnIndex(c)
		if ord < 0 {
			return nil, fmt.Errorf("storage: table %s has no column %q", h.Table.Name, c)
		}
		ords[i] = ord
		keyWid += h.Table.Columns[ord].WidthBytes()
	}

	// Read the key columns' vectors; charge the heap scan a row store makes.
	cols := h.Columns()
	n := int(h.RowCount())
	if buildIO != nil {
		buildIO.SeqPages += h.Pages()
		buildIO.TuplesRead += int64(n)
	}
	ids := make([]int, n)
	for id := range ids {
		ids[id] = id
	}
	for i := len(ords) - 1; i >= 0; i-- {
		col := &cols[ords[i]]
		col.Sort(ids[nullsFirst(col, ids):])
	}
	w := len(ords)
	keys := make([]catalog.Datum, n*w)
	entries := make([]entry, n)
	for j, id := range ids {
		k := Key(keys[j*w : (j+1)*w : (j+1)*w])
		for i, o := range ords {
			k[i] = cols[o].At(id)
		}
		entries[j] = entry{key: k, id: int64(id)}
	}

	bt := &BTree{
		Meta: &catalog.Index{
			Name:    name,
			Table:   h.Table.Name,
			Columns: append([]string(nil), columns...),
		},
		keyWid:  keyWid,
		numCols: len(columns),
	}
	bt.root = bt.bulkBuild(entries)
	bt.count = int64(len(entries))
	bt.Meta.EstimatedPages = bt.LeafPages()
	bt.Meta.EstimatedHeight = bt.Height()
	if buildIO != nil {
		// Writing the index counts as sequential I/O of its leaf pages.
		buildIO.SeqPages += bt.LeafPages()
	}
	return bt, nil
}

// nullsFirst moves the ids of col's NULLs to the front of ids, keeping the
// order of both parts, and returns how many there are.
func nullsFirst(col *catalog.Vector, ids []int) int {
	first := slices.IndexFunc(ids, col.IsNull)
	if first < 0 {
		return 0
	}
	rest := append(make([]int, 0, len(ids)), ids[:first]...)
	nulls := 0
	for _, id := range ids[first:] {
		if col.IsNull(id) {
			ids[nulls] = id
			nulls++
		} else {
			rest = append(rest, id)
		}
	}
	copy(ids[nulls:], rest)
	return nulls
}

// bulkBuild constructs the tree bottom-up from sorted entries.
func (bt *BTree) bulkBuild(entries []entry) *node {
	if len(entries) == 0 {
		return &node{leaf: true}
	}
	// Build leaf level.
	var leaves []*node
	for start := 0; start < len(entries); start += btreeFanout {
		end := start + btreeFanout
		if end > len(entries) {
			end = len(entries)
		}
		// Capped, so an Insert into the leaf reallocates instead of writing
		// over the next leaf's entries.
		leaves = append(leaves, &node{leaf: true, entries: entries[start:end:end]})
	}
	for i := 0; i+1 < len(leaves); i++ {
		leaves[i].next = leaves[i+1]
	}
	// Build interior levels.
	level := leaves
	for len(level) > 1 {
		var parents []*node
		for start := 0; start < len(level); start += btreeFanout {
			end := start + btreeFanout
			if end > len(level) {
				end = len(level)
			}
			p := &node{children: append([]*node(nil), level[start:end]...)}
			for i := start + 1; i < end; i++ {
				p.keys = append(p.keys, firstKey(level[i]))
			}
			parents = append(parents, p)
		}
		level = parents
	}
	return level[0]
}

func firstKey(n *node) Key {
	for !n.leaf {
		n = n.children[0]
	}
	return n.entries[0].key
}

// Insert adds one (key, rowid) pair, splitting nodes as required.
func (bt *BTree) Insert(k Key, id int64) {
	if bt.root == nil {
		bt.root = &node{leaf: true}
	}
	split, sepKey, right := bt.insertInto(bt.root, k, id)
	if split {
		bt.root = &node{
			keys:     []Key{sepKey},
			children: []*node{bt.root, right},
		}
	}
	bt.count++
	bt.Meta.EstimatedPages = bt.LeafPages()
	bt.Meta.EstimatedHeight = bt.Height()
}

func (bt *BTree) insertInto(n *node, k Key, id int64) (split bool, sepKey Key, right *node) {
	if n.leaf {
		pos := sort.Search(len(n.entries), func(i int) bool {
			c := n.entries[i].key.FullCompare(k)
			return c > 0 || (c == 0 && n.entries[i].id >= id)
		})
		n.entries = append(n.entries, entry{})
		copy(n.entries[pos+1:], n.entries[pos:])
		n.entries[pos] = entry{key: k, id: id}
		if len(n.entries) > btreeFanout {
			mid := len(n.entries) / 2
			r := &node{leaf: true, entries: append([]entry(nil), n.entries[mid:]...), next: n.next}
			n.entries = n.entries[:mid]
			n.next = r
			return true, r.entries[0].key, r
		}
		return false, nil, nil
	}
	ci := sort.Search(len(n.keys), func(i int) bool { return n.keys[i].FullCompare(k) > 0 })
	childSplit, childSep, childRight := bt.insertInto(n.children[ci], k, id)
	if childSplit {
		n.keys = append(n.keys, nil)
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = childSep
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = childRight
		if len(n.children) > btreeFanout {
			mid := len(n.children) / 2
			sep := n.keys[mid-1]
			r := &node{
				keys:     append([]Key(nil), n.keys[mid:]...),
				children: append([]*node(nil), n.children[mid:]...),
			}
			n.keys = n.keys[:mid-1]
			n.children = n.children[:mid]
			return true, sep, r
		}
	}
	return false, nil, nil
}

// Count returns the number of stored entries.
func (bt *BTree) Count() int64 { return bt.count }

// Height returns the number of levels (1 for a lone leaf).
func (bt *BTree) Height() int {
	h, n := 1, bt.root
	if n == nil {
		return 1
	}
	for !n.leaf {
		h++
		n = n.children[0]
	}
	return h
}

// LeafPages models the on-disk leaf footprint: entries are packed into
// PageSize pages at the measured key width with a standard 70% fill factor.
func (bt *BTree) LeafPages() int64 {
	perPage := int64(float64(PageSize) * 0.70 / float64(bt.keyWid))
	if perPage < 1 {
		perPage = 1
	}
	pages := (bt.count + perPage - 1) / perPage
	if pages == 0 {
		pages = 1
	}
	return pages
}

// entriesPerLeafPage mirrors LeafPages' packing for scan accounting.
func (bt *BTree) entriesPerLeafPage() int64 {
	perPage := int64(float64(PageSize) * 0.70 / float64(bt.keyWid))
	if perPage < 1 {
		perPage = 1
	}
	return perPage
}

// Scan visits all entries with lo <= key <= hi in key order. A nil bound is
// unbounded. Prefix keys match on the shared prefix, so a single-column
// bound scans all composite entries sharing that prefix. The IOCounter is
// charged the tree descent (random reads) plus one sequential read per leaf
// page visited.
func (bt *BTree) Scan(lo, hi Key, io *IOCounter, fn func(k Key, id int64) bool) {
	if bt.root == nil {
		return
	}
	if io != nil {
		io.RandomPages += int64(bt.Height()) // descent
	}
	n := bt.root
	for !n.leaf {
		ci := 0
		if lo != nil {
			// Descend left of the first separator >= lo: entries equal to a
			// separator key may live in the subtree to its left (duplicates
			// can straddle node boundaries), so an exclusive search here
			// would skip them.
			ci = sort.Search(len(n.keys), func(i int) bool { return n.keys[i].Compare(lo) >= 0 })
		}
		n = n.children[ci]
	}
	perPage := bt.entriesPerLeafPage()
	var visited int64
	pagesCharged := int64(0)
	for n != nil {
		for _, e := range n.entries {
			if lo != nil && e.key.Compare(lo) < 0 {
				continue
			}
			if hi != nil && e.key.Compare(hi) > 0 {
				return
			}
			if io != nil {
				visited++
				if (visited-1)%perPage == 0 {
					pagesCharged++
					io.SeqPages++
				}
				io.TuplesRead++
			}
			if !fn(e.key, e.id) {
				return
			}
		}
		n = n.next
	}
}

// ScanReverse visits entries with lo <= key <= hi in descending key order
// (a backward index scan). It descends right-to-left without using the
// leaf chain, charging the same I/O model as the forward scan.
func (bt *BTree) ScanReverse(lo, hi Key, io *IOCounter, fn func(k Key, id int64) bool) {
	if bt.root == nil {
		return
	}
	if io != nil {
		io.RandomPages += int64(bt.Height()) // descent
	}
	perPage := bt.entriesPerLeafPage()
	var visited int64
	stopped := false
	var walk func(n *node)
	walk = func(n *node) {
		if stopped {
			return
		}
		if n.leaf {
			for i := len(n.entries) - 1; i >= 0; i-- {
				e := n.entries[i]
				if hi != nil && e.key.Compare(hi) > 0 {
					continue
				}
				if lo != nil && e.key.Compare(lo) < 0 {
					stopped = true
					return
				}
				if io != nil {
					visited++
					if (visited-1)%perPage == 0 {
						io.SeqPages++
					}
					io.TuplesRead++
				}
				if !fn(e.key, e.id) {
					stopped = true
					return
				}
			}
			return
		}
		// Prune children strictly outside [lo, hi]: child i covers keys in
		// [keys[i-1], keys[i]).
		for i := len(n.children) - 1; i >= 0; i-- {
			if hi != nil && i > 0 && n.keys[i-1].Compare(hi) > 0 {
				continue // whole child above hi
			}
			if lo != nil && i < len(n.keys) && n.keys[i].Compare(lo) < 0 {
				stopped = true // everything further left is below lo
				return
			}
			walk(n.children[i])
			if stopped {
				return
			}
		}
	}
	walk(bt.root)
}

// KeyFromRow extracts this index's key from a full table row.
func (bt *BTree) KeyFromRow(t *catalog.Table, r catalog.Row) Key {
	k := make(Key, len(bt.Meta.Columns))
	for i, c := range bt.Meta.Columns {
		k[i] = r[t.ColumnIndex(c)]
	}
	return k
}

// Validate checks the structural invariants: sorted leaf entries, correct
// separator keys, uniform depth, and the leaf chain covering every entry
// exactly once. Used by property tests.
func (bt *BTree) Validate() error {
	if bt.root == nil {
		return nil
	}
	depths := map[int]bool{}
	var walk func(n *node, depth int, lo, hi Key) (int64, error)
	walk = func(n *node, depth int, lo, hi Key) (int64, error) {
		if n.leaf {
			depths[depth] = true
			for i, e := range n.entries {
				if i > 0 && n.entries[i-1].key.FullCompare(e.key) > 0 {
					return 0, fmt.Errorf("leaf entries out of order at %d", i)
				}
				if lo != nil && e.key.FullCompare(lo) < 0 {
					return 0, fmt.Errorf("leaf entry %s below separator %s", e.key, lo)
				}
				if hi != nil && e.key.FullCompare(hi) > 0 {
					return 0, fmt.Errorf("leaf entry %s above separator %s", e.key, hi)
				}
			}
			return int64(len(n.entries)), nil
		}
		if len(n.children) != len(n.keys)+1 {
			return 0, fmt.Errorf("interior node: %d children, %d keys", len(n.children), len(n.keys))
		}
		var total int64
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			sub, err := walk(c, depth+1, clo, chi)
			if err != nil {
				return 0, err
			}
			total += sub
		}
		return total, nil
	}
	total, err := walk(bt.root, 0, nil, nil)
	if err != nil {
		return err
	}
	if total != bt.count {
		return fmt.Errorf("tree holds %d entries, count says %d", total, bt.count)
	}
	if len(depths) > 1 {
		return fmt.Errorf("leaves at multiple depths: %v", depths)
	}
	// Leaf chain must cover all entries in order.
	n := bt.root
	for !n.leaf {
		n = n.children[0]
	}
	var chained int64
	var prev *entry
	for ; n != nil; n = n.next {
		for i := range n.entries {
			e := &n.entries[i]
			if prev != nil && prev.key.FullCompare(e.key) > 0 {
				return fmt.Errorf("leaf chain out of order: %s after %s", e.key, prev.key)
			}
			prev = e
			chained++
		}
	}
	if chained != bt.count {
		return fmt.Errorf("leaf chain covers %d entries, count says %d", chained, bt.count)
	}
	return nil
}
