package catalog

import (
	"math"
	"slices"
)

// maxExactInt bounds the ints a float64 holds exactly: every int in
// [-maxExactInt, maxExactInt] converts to a float64 without rounding.
const maxExactInt = 1 << 53

// Vector is one column's values, stored by type rather than as datums: a
// kind byte a value, and a 64-bit word holding the int64, the float64's
// bits, or for a string the index of its text in strs. NULL is KindNull
// with a zero word, so no separate bitmap is needed. At(i) rebuilds exactly
// the datum that was appended: same kind, same integer, same float bits
// (NaN payloads and -0 included), same string.
//
// Sort orders positions by an order key, one uint64 a value whose unsigned
// order is Datum.Compare's, chosen by the kinds the positions hold:
//   - only ints: uint64(i) ^ 1<<63, which flips the sign bit;
//   - floats, and ints within ±2^53 beside them (each is exactly a float64):
//     the float's IEEE bits with the sign bit set when it is positive and
//     every bit flipped when it is negative, after -0 becomes +0 and every
//     NaN takes the top key, so Compare-equal values share a key;
//   - TEXT, or a float beside an int beyond ±2^53, have no exact 64-bit key:
//     they are sorted by Compare, and each value's key is its rank among the
//     distinct values.
type Vector struct {
	kinds []Kind
	bits  []uint64
	strs  []string
}

// Append adds one value to the end of the vector.
func (v *Vector) Append(d Datum) {
	var b uint64
	switch d.Kind {
	case KindInt:
		b = uint64(d.I)
	case KindFloat:
		b = math.Float64bits(d.F)
	case KindString:
		b = uint64(len(v.strs))
		v.strs = append(v.strs, d.S)
	}
	v.kinds = append(v.kinds, d.Kind)
	v.bits = append(v.bits, b)
}

// Grow makes room for n more values, so a column of known size is
// allocated once.
func (v *Vector) Grow(n int) {
	v.kinds = slices.Grow(v.kinds, n)
	v.bits = slices.Grow(v.bits, n)
}

// Len returns the number of values.
func (v *Vector) Len() int { return len(v.kinds) }

// IsNull reports whether the i-th value is NULL.
func (v *Vector) IsNull(i int) bool { return v.kinds[i] == KindNull }

// At returns the i-th value.
func (v *Vector) At(i int) Datum {
	switch v.kinds[i] {
	case KindInt:
		return Datum{Kind: KindInt, I: int64(v.bits[i])}
	case KindFloat:
		return Datum{Kind: KindFloat, F: math.Float64frombits(v.bits[i])}
	case KindString:
		return Datum{Kind: KindString, S: v.strs[v.bits[i]]}
	default:
		return Datum{}
	}
}

// Sort orders pos, positions of non-null values, by value under
// Datum.Compare, and returns the order key of each sorted position: the keys
// ascend, and two are equal exactly when their values are Compare-equal. The
// sort is stable, so positions gathered in ascending order come out with
// equal values in position order: the permutation a stable sort by value
// gives. Keyed values (see Vector) are sorted by a stable LSD radix sort on
// the key; the others by a stable comparison sort, the only other path.
func (v *Vector) Sort(pos []int) []uint64 {
	keys := make([]uint64, len(pos))
	if !v.orderKeys(pos, keys) {
		v.sortByCompare(pos, keys)
		return keys
	}
	radixSort(keys, pos)
	return keys
}

// orderKeys fills keys with the order key of each value in pos and reports
// whether those values have one: false for TEXT, and for a float beside an
// int beyond ±2^53, which has no exact float64.
func (v *Vector) orderKeys(pos []int, keys []uint64) bool {
	floats, wide := false, false
	for _, p := range pos {
		switch v.kinds[p] {
		case KindInt:
			i := int64(v.bits[p])
			wide = wide || i < -maxExactInt || i > maxExactInt
		case KindFloat:
			floats = true
		default:
			return false
		}
	}
	if floats && wide {
		return false
	}
	for i, p := range pos {
		switch {
		case !floats:
			keys[i] = v.bits[p] ^ 1<<63
		case v.kinds[p] == KindInt:
			keys[i] = floatKey(float64(int64(v.bits[p])))
		default:
			keys[i] = floatKey(math.Float64frombits(v.bits[p]))
		}
	}
	return true
}

// floatKey maps a float to a uint64 whose unsigned order is Compare's: -0
// and +0 share a key, and every NaN takes the top key, above +Inf.
func floatKey(f float64) uint64 {
	if f != f {
		return math.MaxUint64
	}
	if f == 0 {
		f = 0 // -0 becomes +0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sortByCompare sorts pos stably by Compare and gives each position its
// value's rank among the distinct values as its key.
func (v *Vector) sortByCompare(pos []int, keys []uint64) {
	slices.SortStableFunc(pos, func(a, b int) int { return v.At(a).Compare(v.At(b)) })
	for i := 1; i < len(pos); i++ {
		keys[i] = keys[i-1]
		if v.At(pos[i-1]).Compare(v.At(pos[i])) != 0 {
			keys[i]++
		}
	}
}

// radixSort sorts keys ascending, carrying pos along, with a stable LSD
// radix sort of one pass a byte. A byte on which every key agrees needs no
// pass, so a column of small ints or of floats of one sign and magnitude
// takes few.
func radixSort(keys []uint64, pos []int) {
	if len(keys) < 2 {
		return
	}
	var counts [8][256]int
	for _, k := range keys {
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	src, srcPos := keys, pos
	var dst []uint64
	var dstPos []int
	for b := range counts {
		c := &counts[b]
		if c[byte(keys[0]>>(8*b))] == len(keys) {
			continue
		}
		if dst == nil {
			dst, dstPos = make([]uint64, len(keys)), make([]int, len(keys))
		}
		next := 0
		for d, n := range c {
			c[d], next = next, next+n
		}
		for i, k := range src {
			d := byte(k >> (8 * b))
			dst[c[d]], dstPos[c[d]] = k, srcPos[i]
			c[d]++
		}
		src, dst, srcPos, dstPos = dst, src, dstPos, srcPos
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
		copy(pos, srcPos)
	}
}
