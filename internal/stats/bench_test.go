package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/catalog"
)

func BenchmarkAnalyze100k(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	cols := make([]catalog.Vector, 1)
	for range 100000 {
		cols[0].Append(catalog.Int(rng.Int63n(5000)))
	}
	t := oneColTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(t, cols, 8192); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistogramLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]catalog.Datum, 100000)
	for i := range vals {
		vals[i] = catalog.Float(rng.NormFloat64() * 100)
	}
	sort.Slice(vals, func(a, c int) bool { return vals[a].Less(vals[c]) })
	h := BuildEquiDepth(vals, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.LessEqFraction(catalog.Float(float64(i%400) - 200))
	}
}

// BenchmarkAblationHistogramBuckets measures range-selectivity error as a
// function of histogram resolution, an ablation of the statistics
// substrate. The reported metric is the mean absolute error
// against ground truth over random ranges of a skewed distribution.
func BenchmarkAblationHistogramBuckets(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 50000
	raw := make([]float64, n)
	vals := make([]catalog.Datum, n)
	for i := range vals {
		v := rng.ExpFloat64() * 100 // skewed
		raw[i] = v
		vals[i] = catalog.Float(v)
	}
	sort.Slice(vals, func(a, c int) bool { return vals[a].Less(vals[c]) })
	sort.Float64s(raw)
	truthLE := func(x float64) float64 {
		return float64(sort.SearchFloat64s(raw, x)) / float64(n)
	}
	for _, buckets := range []int{4, 16, 64, 256} {
		b.Run(name(buckets), func(b *testing.B) {
			h := BuildEquiDepth(vals, buckets)
			var mae float64
			for i := 0; i < b.N; i++ {
				var sum float64
				const probes = 200
				for p := 0; p < probes; p++ {
					x := rng.ExpFloat64() * 100
					sum += math.Abs(h.LessEqFraction(catalog.Float(x)) - truthLE(x))
				}
				mae = sum / probes
			}
			b.ReportMetric(mae*100, "mae_%")
		})
	}
}

func name(buckets int) string {
	switch buckets {
	case 4:
		return "buckets4"
	case 16:
		return "buckets16"
	case 64:
		return "buckets64"
	default:
		return "buckets256"
	}
}
