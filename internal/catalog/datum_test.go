package catalog

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDatumCompareBasics(t *testing.T) {
	cases := []struct {
		a, b Datum
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Float(2.0), Int(2), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
		{String_("a"), String_("b"), -1},
		{String_("b"), String_("a"), 1},
		{String_("a"), String_("a"), 0},
		{Int(1), String_("a"), -1}, // numbers order before strings
		{String_("a"), Int(1), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDatumCompareLargeInts(t *testing.T) {
	// Values that would collide under float64 rounding must still compare
	// exactly as integers.
	a := Int(1 << 60)
	b := Int(1<<60 + 1)
	if a.Compare(b) != -1 || b.Compare(a) != 1 {
		t.Fatalf("large int comparison lost precision")
	}
}

// TestDatumCompareIntFloatIsExact compares ints with floats as the numbers
// they are. Rounding the int to a float64 made 2^53+1 equal the float 2^53,
// which equals 2^53, while 2^53 < 2^53+1: not transitive, so a sort's
// result depended on its path.
func TestDatumCompareIntFloatIsExact(t *testing.T) {
	const two53 = 1 << 53
	for _, c := range []struct {
		a, b Datum
		want int
	}{
		{Int(two53 + 1), Float(two53), 1},
		{Int(two53), Float(two53), 0},
		{Int(two53 - 1), Float(two53), -1},
		{Int(-two53 - 1), Float(-two53), -1},
		{Int(math.MaxInt64), Float(0x1p63), -1},
		{Int(math.MinInt64), Float(-0x1p63), 0},
		{Int(math.MinInt64), Float(math.Nextafter(-0x1p63, math.Inf(-1))), 1},
		{Int(math.MaxInt64), Float(math.Nextafter(0x1p63, 0)), 1},
		{Int(0), Float(math.Copysign(0, -1)), 0},
		{Int(2), Float(2.5), -1},
		{Int(3), Float(2.5), 1},
		{Int(-2), Float(-2.5), 1},
		{Int(-3), Float(-2.5), -1},
		{Int(math.MaxInt64), Float(math.Inf(1)), -1},
		{Int(math.MinInt64), Float(math.Inf(-1)), 1},
	} {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
	var set []Datum
	for k := int64(-3); k <= 3; k++ {
		set = append(set, Int(two53+k), Float(float64(two53+k)), Int(-two53+k), Float(float64(-two53+k)))
	}
	set = append(set, Int(math.MaxInt64), Int(math.MinInt64), Float(0x1p63), Float(-0x1p63), Float(math.NaN()))
	for _, a := range set {
		for _, b := range set {
			for _, c := range set {
				if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
					t.Errorf("Compare is not transitive over %v <= %v <= %v", a, b, c)
				}
			}
		}
	}
}

func randDatum(rng *rand.Rand) Datum {
	switch rng.Intn(4) {
	case 0:
		return Null()
	case 1:
		return Int(rng.Int63n(100) - 50)
	case 2:
		return Float(rng.Float64()*100 - 50)
	default:
		return String_(string(rune('a' + rng.Intn(26))))
	}
}

func TestDatumCompareAntisymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randDatum(rng), randDatum(rng)
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDatumCompareTransitive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randDatum(rng), randDatum(rng), randDatum(rng)
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 {
			return a.Compare(c) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDatumCompareNaNIsTotal holds Compare to PostgreSQL's float8 rule: a NaN
// equals a NaN and is greater than every other number, so Compare stays a
// total order over a set that holds NaNs.
func TestDatumCompareNaNIsTotal(t *testing.T) {
	nan := Float(math.NaN())
	for _, c := range []struct {
		a, b Datum
		want int
	}{
		{nan, nan, 0},
		{nan, Float(math.Inf(1)), 1},
		{Float(math.Inf(1)), nan, -1},
		{nan, Int(math.MaxInt64), 1},
		{Int(math.MinInt64), nan, -1},
		{nan, Float(-0.0), 1},
		{nan, String_("a"), -1}, // numbers, NaN among them, order before strings
		{Null(), nan, -1},
	} {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	set := []Datum{Null(), nan, Float(math.NaN()), Float(math.Inf(-1)), Float(math.Inf(1)),
		Float(-0.0), Int(0), Float(2.5), Int(3), Int(math.MaxInt64), String_("x")}
	for _, a := range set {
		for _, b := range set {
			if a.Compare(b) != -b.Compare(a) {
				t.Errorf("Compare(%v,%v) is not antisymmetric", a, b)
			}
			for _, c := range set {
				if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
					t.Errorf("Compare is not transitive over %v <= %v <= %v", a, b, c)
				}
			}
		}
	}
}

func TestDatumString(t *testing.T) {
	cases := []struct {
		d    Datum
		want string
	}{
		{Null(), "NULL"},
		{Int(42), "42"},
		{Float(2.5), "2.5"},
		{String_("it's"), "'it''s'"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestRowClone(t *testing.T) {
	r := Row{Int(1), String_("x")}
	c := r.Clone()
	c[0] = Int(99)
	if r[0].I != 1 {
		t.Fatal("Clone must not alias the original row")
	}
}

func TestDatumWidth(t *testing.T) {
	if Int(1).Width() != 8 || Float(1).Width() != 8 {
		t.Error("numeric widths should be 8")
	}
	if String_("abc").Width() != 4 {
		t.Errorf("string width = %d, want 4", String_("abc").Width())
	}
	if Null().Width() != 1 {
		t.Error("null width should be 1")
	}
}
