package benchmark

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric declaration; Bound is set on end-to-end metrics.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Agreement applies the acceptance rule to two sets of runs of the same
// code: in each set, a metric's spread (interquartile distance over the
// median, quartiles as Python's statistics.quantiles gives them) must stay
// within its bound, setup_s excepted; and the second set's median must not
// be worse than the first's by more than the bound. The k-th run of both
// sets has the same seed; the "same seed" column is the median over seeds of
// how much worse the second run of a seed read than the first, which leaves
// out what the seeds themselves differ by. It returns the table and whether
// every cell passed.
func Agreement(spec *Spec, workloads []string, a, b map[string][]*Result) (string, bool) {
	var out strings.Builder
	ok := true
	fmt.Fprintf(&out, "%-16s %-20s %12s %12s %8s %8s %8s %9s %7s\n",
		"workload", "metric", "median A", "median B", "spreadA", "spreadB", "worse", "same seed", "bound")
	for _, w := range workloads {
		for _, em := range spec.EndToEnd {
			xa, xb := values(a[w], em.Name), values(b[w], em.Name)
			ma, mb := median(xa), median(xb)
			sa, sb := spread(xa), spread(xb)
			worse := (mb - ma) / ma
			paired := make([]float64, min(len(xa), len(xb)))
			for i := range paired {
				paired[i] = (xb[i] - xa[i]) / xa[i]
			}
			same := median(paired)
			if em.Better == "higher" {
				worse, same = -worse, -same
			}
			verdict := ""
			if worse > em.Bound || (em.Name != "setup_s" && (sa > em.Bound || sb > em.Bound)) {
				verdict, ok = "  MISS", false
			}
			fmt.Fprintf(&out, "%-16s %-20s %12.4f %12.4f %7.2f%% %7.2f%% %+7.2f%% %+8.2f%% %6.1f%%%s\n",
				w, em.Name, ma, mb, 100*sa, 100*sb, 100*worse, 100*same, 100*em.Bound, verdict)
		}
	}
	return out.String(), ok
}

func values(rs []*Result, metric string) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.Metrics[metric].Value
	}
	return xs
}
