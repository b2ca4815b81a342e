// Package catalog defines the schema metadata shared by every component of
// the designer: tables, columns, typed values, indexes, partition layouts,
// and physical-design configurations.
//
// The catalog is deliberately free of behaviour that belongs to other
// layers: statistics live in internal/stats, storage in internal/storage,
// and costing in internal/optimizer. Components communicate exclusively in
// terms of catalog types, which is what makes the what-if overlay
// (internal/whatif) possible: a hypothetical design is just another
// Configuration value.
package catalog

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types a Datum can hold.
type Kind uint8

// The supported datum kinds. KindNull is the zero value so that a zero
// Datum is a well-formed SQL NULL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "TEXT"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Datum is a single SQL value. It is a compact tagged union; only the field
// matching Kind is meaningful. The zero value is NULL.
type Datum struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// Null returns the SQL NULL datum.
func Null() Datum { return Datum{} }

// Int returns an integer datum.
func Int(v int64) Datum { return Datum{Kind: KindInt, I: v} }

// Float returns a floating-point datum.
func Float(v float64) Datum { return Datum{Kind: KindFloat, F: v} }

// String_ returns a string datum. The underscore avoids colliding with the
// fmt.Stringer method on Datum.
func String_(v string) Datum { return Datum{Kind: KindString, S: v} }

// IsNull reports whether d is SQL NULL.
func (d Datum) IsNull() bool { return d.Kind == KindNull }

// AsFloat coerces a numeric datum to float64. Strings and NULL return 0.
func (d Datum) AsFloat() float64 {
	switch d.Kind {
	case KindInt:
		return float64(d.I)
	case KindFloat:
		return d.F
	default:
		return 0
	}
}

// Compare orders two datums. NULL sorts before everything; integers and
// floats compare numerically across kinds; strings compare
// lexicographically. Comparing a string against a number orders by kind,
// which is sufficient for the synthetic workloads in this repository.
//
// An int and a float compare exactly, as the numbers they are, never by
// rounding the int to a float64: 2^53+1 is above the float 2^53, and 2^53
// equals it. So Compare is a total order over numbers of both kinds, and
// Compare-equal numbers are one value. (PostgreSQL keeps int8 and float8 in
// separate btree operator families for the same reason: rounded, the order
// is not transitive.) A float NaN follows PostgreSQL's float8 rule: it equals
// another NaN and is greater than every other number.
func (d Datum) Compare(o Datum) int {
	if d.Kind == KindNull || o.Kind == KindNull {
		switch {
		case d.Kind == KindNull && o.Kind == KindNull:
			return 0
		case d.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	dn := d.Kind == KindInt || d.Kind == KindFloat
	on := o.Kind == KindInt || o.Kind == KindFloat
	switch {
	case dn && on:
		switch {
		case d.Kind == KindInt && o.Kind == KindInt:
			return cmp.Compare(d.I, o.I)
		case d.Kind == KindInt:
			return compareIntFloat(d.I, o.F)
		case o.Kind == KindInt:
			return -compareIntFloat(o.I, d.F)
		}
		a, b := d.F, o.F
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		// Neither is less: equal numbers, or at least one NaN.
		an, bn := a != a, b != b
		switch {
		case an == bn:
			return 0
		case an:
			return 1
		default:
			return -1
		}
	case dn:
		return -1
	case on:
		return 1
	default:
		return strings.Compare(d.S, o.S)
	}
}

// compareIntFloat compares an int with a float exactly: by the float's
// integer part, which any float inside the int64 range holds exactly, and
// then by its fraction.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f != f:
		return -1 // NaN is above every number
	case f < -0x1p63:
		return 1
	case f >= 0x1p63:
		return -1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	switch {
	case f > t:
		return -1
	case f < t:
		return 1
	default:
		return 0
	}
}

// Less reports d < o under Compare ordering.
func (d Datum) Less(o Datum) bool { return d.Compare(o) < 0 }

// Equal reports d == o under Compare ordering. NULL equals NULL here; SQL
// three-valued logic is applied by the expression evaluator, not by Datum.
func (d Datum) Equal(o Datum) bool { return d.Compare(o) == 0 }

// String renders the datum as a SQL literal.
func (d Datum) String() string {
	switch d.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(d.I, 10)
	case KindFloat:
		return strconv.FormatFloat(d.F, 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(d.S, "'", "''") + "'"
	default:
		return "?"
	}
}

// Width returns the in-page byte footprint used for size accounting.
func (d Datum) Width() int {
	switch d.Kind {
	case KindInt, KindFloat:
		return 8
	case KindString:
		return len(d.S) + 1
	default:
		return 1
	}
}

// Row is a tuple of datums, positionally aligned with a table's columns (or
// with a projection's output columns during execution).
type Row []Datum

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row as a parenthesised value list.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, d := range r {
		parts[i] = d.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
