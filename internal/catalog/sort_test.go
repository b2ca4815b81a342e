package catalog

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzVectorSort holds Vector.Sort to a stable comparison sort by Compare.
// The bytes become a vector (decodeDatums); its non-null positions are
// sorted in ascending order and in descending order, and each result must
// be the permutation slices.SortStableFunc gives the same input, with keys
// that ascend and are equal exactly where adjacent values are Compare-equal.
// Corpus (testdata/fuzz/FuzzVectorSort): FuzzVectorRoundTrip's columns plus
// sortCorpusColumns, so every key path is seeded: ints only, floats with
// ints inside ±2^53, and the comparison sort for TEXT and for a float beside
// a wider int.
func FuzzVectorSort(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, _ := decodeDatums(data)
		var v Vector
		var pos []int
		for i, d := range vals {
			v.Append(d)
			if !d.IsNull() {
				pos = append(pos, i)
			}
		}
		checkSort(t, &v, pos)
		slices.Reverse(pos)
		checkSort(t, &v, pos)
	})
}

// checkSort sorts a copy of pos with v.Sort and holds it to a stable sort
// by Compare.
func checkSort(t *testing.T, v *Vector, pos []int) {
	t.Helper()
	got := slices.Clone(pos)
	keys := v.Sort(got)
	want := slices.Clone(pos)
	slices.SortStableFunc(want, func(a, b int) int { return v.At(a).Compare(v.At(b)) })
	if !slices.Equal(got, want) {
		t.Fatalf("Sort(%v) = %v, a stable sort by Compare gives %v", pos, got, want)
	}
	if len(keys) != len(got) {
		t.Fatalf("%d keys for %d positions", len(keys), len(got))
	}
	for i := 1; i < len(got); i++ {
		a, b := v.At(got[i-1]), v.At(got[i])
		if c := a.Compare(b); keys[i-1] > keys[i] || (keys[i-1] == keys[i]) != (c == 0) {
			t.Fatalf("keys %#x, %#x for %#v, %#v (Compare %d)", keys[i-1], keys[i], a, b, c)
		}
	}
}

// sortCorpusColumns are the columns FuzzVectorSort's corpus adds to
// FuzzVectorRoundTrip's.
func sortCorpusColumns() map[string][]Datum {
	nan := func(bits uint64) Datum { return Float(math.Float64frombits(bits)) }
	return map[string][]Datum{
		"ints": {
			Int(math.MaxInt64), Int(0), Int(math.MinInt64), Int(-1), Null(), Int(1<<53 + 1),
			Int(0), Int(1 << 32), Int(-1), Int(256), Int(255), Int(math.MinInt64 + 1),
		},
		"exact_numbers": {
			Int(1 << 53), Float(0x1p53), Int(-1 << 53), Float(math.Copysign(0, -1)), Int(0),
			Float(0), nan(0x7ff8000000000001), Float(2.5), Int(2), Null(), Float(math.Inf(-1)),
			nan(0xfff8000000000000), Float(math.Inf(1)), Float(-2.5), Int(-2),
		},
		"wide_int_beside_float": {
			Int(1<<53 + 1), Float(0x1p53), Int(1 << 53), Float(0x1p63), Int(math.MaxInt64),
			Float(-0x1p63), Int(math.MinInt64), Float(math.NaN()), Int(1<<53 + 1),
		},
	}
}

// TestSortKeysEveryPath sorts one column of each key path with many
// duplicates, so the radix sort takes several passes and the comparison
// sort sees long runs, and holds each to a stable sort by Compare.
func TestSortKeysEveryPath(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, c := range []struct {
		name string
		gen  func() Datum
	}{
		{"ints", func() Datum { return Int(rng.Int63n(3000) - 1500) }},
		{"floats", func() Datum { return Float(math.Round(rng.NormFloat64()*1e4) / 8) }},
		{"exact numbers", func() Datum {
			if rng.Intn(2) == 0 {
				return Int(rng.Int63n(40) - 20)
			}
			return Float(float64(rng.Intn(80)-40) / 2)
		}},
		{"wide ints beside floats", func() Datum {
			if rng.Intn(2) == 0 {
				return Int(1<<53 + rng.Int63n(8) - 4)
			}
			return Float(float64(1<<53 + rng.Int63n(8) - 4))
		}},
		{"strings", func() Datum { return String_(string(rune('a' + rng.Intn(26)))) }},
	} {
		var v Vector
		pos := make([]int, 5000)
		for i := range pos {
			v.Append(c.gen())
			pos[i] = i
		}
		rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
		t.Run(c.name, func(t *testing.T) { checkSort(t, &v, pos) })
	}
}
