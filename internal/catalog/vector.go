package catalog

import (
	"math"
	"slices"
)

// Vector is one column's values, stored by type rather than as datums: a
// kind byte a value, and a 64-bit word holding the int64, the float64's
// bits, or for a string the index of its text in strs. NULL is KindNull
// with a zero word, so no separate bitmap is needed. At(i) rebuilds exactly
// the datum that was appended: same kind, same integer, same float bits
// (NaN payloads and -0 included), same string.
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
