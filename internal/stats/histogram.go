package stats

import (
	"fmt"

	"repro/internal/catalog"
)

// Histogram is an equi-depth (equal-frequency) histogram: Bounds has B+1
// entries delimiting B buckets that each contain ~1/B of the non-null
// values. This is the same structure PostgreSQL keeps in
// pg_stats.histogram_bounds.
type Histogram struct {
	Bounds []catalog.Datum
}

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int {
	if len(h.Bounds) < 2 {
		return 0
	}
	return len(h.Bounds) - 1
}

// BuildEquiDepth builds a histogram from values already sorted ascending.
// It returns nil when there are fewer than two values.
func BuildEquiDepth(sorted []catalog.Datum, buckets int) *Histogram {
	return equiDepth(len(sorted), buckets, func(i int) catalog.Datum { return sorted[i] })
}

// equiDepth builds a histogram over n sorted values, reading only the
// bounds it keeps: at(i) is the i-th smallest value.
func equiDepth(n, buckets int, at func(int) catalog.Datum) *Histogram {
	if n < 2 || buckets < 1 {
		return nil
	}
	if buckets > n-1 {
		buckets = n - 1
	}
	bounds := make([]catalog.Datum, buckets+1)
	for i := 0; i <= buckets; i++ {
		bounds[i] = at(i * (n - 1) / buckets)
	}
	return &Histogram{Bounds: bounds}
}

// LessEqFraction estimates the fraction of values <= v.
func (h *Histogram) LessEqFraction(v catalog.Datum) float64 {
	b := h.Buckets()
	if b == 0 {
		return defaultRangeSel
	}
	if v.Less(h.Bounds[0]) {
		return 0
	}
	if !v.Less(h.Bounds[b]) {
		return 1
	}
	// Find the bucket containing v, interpolate within it.
	lo, hi := 0, b // invariant: Bounds[lo] <= v < Bounds[hi]
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if v.Less(h.Bounds[mid]) {
			hi = mid
		} else {
			lo = mid
		}
	}
	frac := float64(lo) / float64(b)
	within := interpolate(h.Bounds[lo], h.Bounds[lo+1], v)
	return clamp01(frac + within/float64(b))
}

// RangeFraction estimates the fraction of values in [lo, hi]; a NULL bound
// is unbounded on that side.
func (h *Histogram) RangeFraction(lo, hi catalog.Datum) float64 {
	loF := 0.0
	if !lo.IsNull() {
		loF = h.LessEqFraction(lo)
		// subtract the point mass at lo to approximate >= semantics:
		// equi-depth histograms cannot distinguish > from >=, and the
		// optimizer layers equality selectivity separately, so we accept
		// the standard approximation here.
	}
	hiF := 1.0
	if !hi.IsNull() {
		hiF = h.LessEqFraction(hi)
	}
	if hiF < loF {
		return 0
	}
	return clamp01(hiF - loF)
}

// interpolate estimates the position of v within bucket [a, b] in [0,1].
func interpolate(a, b, v catalog.Datum) float64 {
	// Numeric interpolation where possible.
	if (a.Kind == catalog.KindInt || a.Kind == catalog.KindFloat) &&
		(b.Kind == catalog.KindInt || b.Kind == catalog.KindFloat) {
		af, bf, vf := a.AsFloat(), b.AsFloat(), v.AsFloat()
		if bf > af {
			return clamp01((vf - af) / (bf - af))
		}
		return 0.5
	}
	// Strings: prefix-based crude interpolation.
	if a.Kind == catalog.KindString && b.Kind == catalog.KindString && v.Kind == catalog.KindString {
		af, bf, vf := stringToFloat(a.S), stringToFloat(b.S), stringToFloat(v.S)
		if bf > af {
			return clamp01((vf - af) / (bf - af))
		}
	}
	return 0.5
}

// stringToFloat maps a string's first 8 bytes to a float for interpolation.
func stringToFloat(s string) float64 {
	var acc float64
	scale := 1.0
	for i := 0; i < 8; i++ {
		scale /= 256
		var c byte
		if i < len(s) {
			c = s[i]
		}
		acc += float64(c) * scale
	}
	return acc
}

// String renders a compact summary for EXPLAIN-style output.
func (h *Histogram) String() string {
	b := h.Buckets()
	if b == 0 {
		return "hist{}"
	}
	return fmt.Sprintf("hist{%d buckets, %s..%s}", b, h.Bounds[0], h.Bounds[b])
}

// Quantile returns the approximate q-quantile value (q in [0,1]).
func (h *Histogram) Quantile(q float64) catalog.Datum {
	b := h.Buckets()
	if b == 0 {
		return catalog.Null()
	}
	q = clamp01(q)
	pos := q * float64(b)
	i := int(pos)
	if i >= b {
		return h.Bounds[b]
	}
	lo, hi := h.Bounds[i], h.Bounds[i+1]
	if lo.Kind == catalog.KindFloat || hi.Kind == catalog.KindFloat {
		f := pos - float64(i)
		return catalog.Float(lo.AsFloat() + (hi.AsFloat()-lo.AsFloat())*f)
	}
	if lo.Kind == catalog.KindInt && hi.Kind == catalog.KindInt {
		f := pos - float64(i)
		return catalog.Int(lo.I + int64(float64(hi.I-lo.I)*f))
	}
	return lo
}
