package benchmark

import (
	"context"
	"math"
	"regexp"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	nan := math.NaN()
	// Two clients, three laps of four answers. A burst (90) stays in the
	// pool; the answer that failed in lap 2 has no wait.
	outs := []*lapOut{
		{latMs: [][]float64{{10, 20}, {30, 40}}, wallS: 0.08, cpuMs: 120},
		{latMs: [][]float64{{12, 90}, {30, nan}}, wallS: 0.10, cpuMs: 100},
		{latMs: [][]float64{{11, 22}, {36, 44}}, wallS: 0.05, cpuMs: 160},
	}
	got, waits := summarize(outs, 4)
	if waits != 11 {
		t.Errorf("%d waits pooled, want 11", waits)
	}
	// Sorted pool: 10 11 12 20 22 30 30 36 40 44 90.
	want := map[string]float64{
		"answer_p50_ms":     30,
		"answer_p95_ms":     67, // halfway between 44 and 90
		"answers_per_s":     50, // laps give 50, 40 and 80
		"cpu_ms_per_answer": 30, // laps give 30, 25 and 40
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if got := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}); math.Abs(got-27.5/13.5) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// answer [0,100] has children a [10,40] and b [30,60] (overlapping:
	// covered 50) — self 50. a has child c [15,25] — self 20.
	spans := []span{
		{ID: 1, Parent: 0, Name: "answer", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "b", StartNs: 30, EndNs: 60},
		{ID: 4, Parent: 2, Name: "c", StartNs: 15, EndNs: 25},
	}
	got := selfTimes(spans)
	want := map[string]float64{"answer": 50, "a": 20, "b": 30, "c": 10}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
	var tr *tracer
	id := tr.begin(0, 1, "x")
	tr.end(id)
	tr.add(id, 1, "y", 5)
	if id != 0 || tr.all() != nil {
		t.Error("a nil tracer must record nothing")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smoke runs one workload at the smoke size.
func smoke(t *testing.T, workload string, seed int64, traced bool) *Result {
	t.Helper()
	res, err := Run(context.Background(), Options{
		Workload: workload, Seed: seed, Seconds: 2, Scale: 0.02, Trace: traced, OutDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", workload, seed, traced, err)
	}
	if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
		t.Fatalf("%s seed %d traced=%v: attempted %d, failed %d", workload, seed, traced, res.Attempted, res.Failed)
	}
	return res
}

// TestSmoke runs every workload untraced and traced at the smoke size,
// checks that BENCHMARK.json declares exactly what the runs print, and that
// the seed drives everything.
func TestSmoke(t *testing.T) {
	spec, err := LoadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 || len(spec.Workloads) < 2 || len(spec.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json: %d end-to-end, %d per-layer metrics, %d workloads", len(spec.EndToEnd), len(spec.PerLayer), len(spec.Workloads))
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	seen := map[string]bool{}
	for traced, list := range map[bool][]SpecMetric{false: spec.EndToEnd, true: spec.PerLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("BENCHMARK.json: bad or repeated metric name %q", m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("BENCHMARK.json: %s: better = %q", m.Name, m.Better)
			}
			if !traced && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("BENCHMARK.json: %s: bound %v", m.Name, m.Bound)
			}
			declared[traced][m.Name] = m.Unit
		}
	}
	if declared[false]["setup_s"] != "s" {
		t.Error("BENCHMARK.json: no setup_s in seconds")
	}
	names := Workloads()
	if len(spec.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %v", len(spec.Workloads), names)
	}
	for i, w := range spec.Workloads {
		if w.Name != names[i] || !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("BENCHMARK.json: workload %d is %q (why: %d chars), the benchmark has %q", i, w.Name, len(w.Why), names[i])
		}
	}

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			// One seed untraced and traced, another seed untraced: every
			// declared name is printed and nothing else is; the seed drives
			// everything, so the two runs of seed 1 give the same answers and
			// do the same work, and seed 2 gives other answers and passes too.
			runs := map[bool]*Result{false: smoke(t, name, 1, false), true: smoke(t, name, 1, true)}
			for traced, res := range runs {
				for metric, m := range res.Metrics {
					if unit, ok := declared[traced][metric]; !ok || unit != m.Unit {
						t.Errorf("traced=%v prints %s [%s]; BENCHMARK.json has unit %q (declared: %v)", traced, metric, m.Unit, unit, ok)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced=%v: %s = %v", traced, metric, m.Value)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", metric, m.Value)
					}
				}
				for metric := range declared[traced] {
					if _, ok := res.Metrics[metric]; !ok {
						t.Errorf("traced=%v does not print %s", traced, metric)
					}
				}
			}
			a, b := runs[false], runs[true]
			if a.Digest != b.Digest {
				t.Errorf("answers_digest %s then %s for the same seed", a.Digest, b.Digest)
			}
			for _, c := range []string{cNodes, cFullOpts, cStmts} {
				if a.Counts[c] != b.Counts[c] {
					t.Errorf("%s per answer %v then %v for the same seed", c, a.Counts[c], b.Counts[c])
				}
			}
			x, y := a.Seven["alloc_kb_per_answer"], b.Seven["alloc_kb_per_answer"]
			if math.Abs(x-y) > 0.01*x {
				t.Errorf("alloc_kb_per_answer %v then %v for the same seed", x, y)
			}
			if other := smoke(t, name, 2, false); other.Digest == a.Digest {
				t.Error("seed 2 gave seed 1's answers")
			}
		})
	}
}
