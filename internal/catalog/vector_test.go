package catalog

import (
	"encoding/binary"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzVectorRoundTrip turns bytes into a sequence of datums (decodeDatums),
// appends them to one Vector, growing it where the bytes say, and requires
// At(i) to return each datum exactly: the same Kind, I, Float64bits and S.
// Corpus (testdata/fuzz/FuzzVectorRoundTrip, encodeDatums' output for each
// named column of corpusColumns): NaN payloads, signed zeros and infinities,
// the int64 and float ±2^63 boundaries, empty strings and strings holding
// NUL, and NULL among them.
func FuzzVectorRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, grows := decodeDatums(data)
		var v Vector
		for i, d := range vals {
			if n := grows[i]; n > 0 {
				v.Grow(n)
			}
			v.Append(d)
		}
		if v.Len() != len(vals) {
			t.Fatalf("Len %d after %d appends", v.Len(), len(vals))
		}
		for i, want := range vals {
			if got := v.At(i); !sameDatum(got, want) {
				t.Fatalf("At(%d) = %#v (bits %#x), appended %#v (bits %#x)",
					i, got, math.Float64bits(got.F), want, math.Float64bits(want.F))
			}
		}
	})
}

// sameDatum reports whether two datums hold the same kind and payload, the
// float by its bits.
func sameDatum(a, b Datum) bool {
	return a.Kind == b.Kind && a.I == b.I &&
		math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

// decodeDatums reads datums from fuzz bytes until they run out. A tag byte
// gives the kind (b%4: NULL, int, float, string) and, in b/4, a number of
// values to Grow the vector by before the append (0: none). An int is a
// little-endian int64, a float the little-endian bits of a float64, a
// string a length byte and that many bytes. Missing bytes read as zero.
func decodeDatums(data []byte) (vals []Datum, grows []int) {
	next := func(k int) []byte {
		b := make([]byte, k)
		data = data[copy(b, data):]
		return b
	}
	for len(data) > 0 {
		tag := next(1)[0]
		var d Datum
		switch tag % 4 {
		case 1:
			d = Int(int64(binary.LittleEndian.Uint64(next(8))))
		case 2:
			d = Float(math.Float64frombits(binary.LittleEndian.Uint64(next(8))))
		case 3:
			d = String_(string(next(int(next(1)[0]))))
		}
		vals = append(vals, d)
		grows = append(grows, int(tag/4))
	}
	return vals, grows
}

// encodeDatums is decodeDatums' inverse for datums built by the
// constructors, with no Grow, and strings under 256 bytes.
func encodeDatums(vals []Datum) []byte {
	var out []byte
	for _, d := range vals {
		switch d.Kind {
		case KindNull:
			out = append(out, 0)
		case KindInt:
			out = binary.LittleEndian.AppendUint64(append(out, 1), uint64(d.I))
		case KindFloat:
			out = binary.LittleEndian.AppendUint64(append(out, 2), math.Float64bits(d.F))
		case KindString:
			out = append(append(out, 3, byte(len(d.S))), d.S...)
		}
	}
	return out
}

// corpusColumns are the named columns of FuzzVectorRoundTrip's committed
// corpus.
func corpusColumns() map[string][]Datum {
	nan := func(bits uint64) Datum { return Float(math.Float64frombits(bits)) }
	return map[string][]Datum{
		"float_specials": {
			nan(0x7ff8000000000000), // the quiet NaN math.NaN returns
			nan(0x7ff8000000000001), // a quiet NaN with a payload
			nan(0x7ff0000000000001), // a signalling NaN
			nan(0xfff8000000000000), // a negative NaN
			Float(0), Float(math.Copysign(0, -1)),
			Float(math.Inf(1)), Float(math.Inf(-1)),
			Float(math.SmallestNonzeroFloat64), Float(math.MaxFloat64),
		},
		"int_bounds": {
			Int(math.MaxInt64), Int(math.MinInt64), Int(math.MaxInt64 - 1), Int(math.MinInt64 + 1),
			Int(0), Int(-1), Int(1 << 53), Int(1<<53 + 1),
			Float(math.Ldexp(1, 63)), Float(-math.Ldexp(1, 63)), Float(math.Nextafter(math.Ldexp(1, 63), 0)),
		},
		"strings_and_nulls": {
			String_(""), Null(), String_("\x00"), String_("a\x00b"), String_(""),
			Null(), String_("it's"), String_(strings.Repeat("z", 255)), Null(),
		},
		"mixed": {
			Null(), Int(7), Float(7), String_("7"), Null(), Float(math.NaN()), Int(-7), String_(""),
		},
	}
}

// TestFuzzCorpusHoldsItsColumns keeps the committed corpora what their
// names say: each file holds encodeDatums' output for its named column
// (FuzzVectorRoundTrip's corpusColumns; FuzzVectorSort's, those and
// sortCorpusColumns), so a change to the byte format fails here instead of
// quietly emptying a corpus of its cases.
func TestFuzzCorpusHoldsItsColumns(t *testing.T) {
	sortColumns := corpusColumns()
	maps.Copy(sortColumns, sortCorpusColumns())
	for target, columns := range map[string]map[string][]Datum{
		"FuzzVectorRoundTrip": corpusColumns(),
		"FuzzVectorSort":      sortColumns,
	} {
		for name, vals := range columns {
			raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
			if err != nil {
				t.Fatal(err)
			}
			literal, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
			if !ok {
				t.Fatalf("%s/%s: not a one-value []byte corpus file", target, name)
			}
			got, err := strconv.Unquote(strings.TrimSuffix(literal, ")"))
			if err != nil {
				t.Fatalf("%s/%s: %v", target, name, err)
			}
			if want := encodeDatums(vals); got != string(want) {
				t.Errorf("%s/%s: corpus file holds %q, encodeDatums gives %q", target, name, got, want)
			}
		}
	}
}

// TestVectorGrowKeepsValues checks that growing a vector keeps what it
// holds and makes room without a reallocation on the next appends.
func TestVectorGrowKeepsValues(t *testing.T) {
	var v Vector
	v.Append(Int(1))
	v.Append(String_("a"))
	v.Grow(3)
	if cap(v.kinds)-len(v.kinds) < 3 || cap(v.bits)-len(v.bits) < 3 {
		t.Fatalf("Grow(3) left room for %d kinds, %d words", cap(v.kinds)-len(v.kinds), cap(v.bits)-len(v.bits))
	}
	kinds := &v.kinds[:cap(v.kinds)][0]
	for _, d := range []Datum{Float(2.5), Null(), Int(3)} {
		v.Append(d)
	}
	if &v.kinds[0] != kinds {
		t.Fatal("appends within the grown room reallocated")
	}
	want := Row{Int(1), String_("a"), Float(2.5), Null(), Int(3)}
	for i, d := range want {
		if !sameDatum(v.At(i), d) {
			t.Fatalf("At(%d) = %v, want %v", i, v.At(i), d)
		}
	}
}
