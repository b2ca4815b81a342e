package benchmark

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
)

// perLayer lists every per-layer metric of a traced run with its unit. The
// prefix of a name is the module it measures. BENCHMARK.json carries the
// same list (the smoke test compares the two).
var perLayer = map[string]string{
	// The timing figures of the measured phase, which hold no 10 % bound on
	// this box (README.md, "Bounds").
	"answer_p50_ms":     "ms",
	"answer_p95_ms":     "ms",
	"answers_per_s":     "1/s",
	"cpu_ms_per_answer": "ms",

	// Exact work counts of the workload's own answers.
	"sqlparse.stmts_per_answer":      "count",
	"optimizer.full_opts_per_answer": "count",
	"inum.costings_per_answer":       "count",
	"lp.nodes_per_answer":            "count",
	"cophy.warm_started_share":       "%",
	"engine.delta_recost_ratio":      "%",
	"colt.whatif_calls_per_epoch":    "count",
	"colt.alerts":                    "count",
	"serve.response_kb_per_answer":   "KB",

	// Stopwatches around one public call each, on the workload's statements.
	"sqlparse.parse_us_per_stmt":       "us",
	"whatif.candidates_ms":             "ms",
	"whatif.candidates_count":          "count",
	"whatif.hypothetical_us":           "us",
	"optimizer.optimize_us_per_stmt":   "us",
	"inum.prepare_ms_per_query":        "ms",
	"inum.costfor_ns_hit":              "ns",
	"inum.costfor_ns_miss":             "ns",
	"inum.costfor_allocs_hit":          "count",
	"inum.speedup_x":                   "x",
	"inum.retained_kb_per_stmt":        "KB",
	"engine.sweep_configs_ms":          "ms",
	"engine.sweep_parallel_x":          "x",
	"engine.evaluate_cold_ms":          "ms",
	"engine.evaluate_delta_ms":         "ms",
	"engine.open_ms":                   "ms",
	"cophy.advise_ms_unconstrained":    "ms",
	"cophy.advise_ms_budget25":         "ms",
	"cophy.build_ms":                   "ms",
	"cophy.pricing_calls":              "count",
	"lp.solve_ms":                      "ms",
	"lp.ms_per_node":                   "ms",
	"lp.mip_fixture_ms":                "ms",
	"autopart.advise_ms":               "ms",
	"autopart.costings":                "count",
	"interaction.analyze_ms":           "ms",
	"interaction.costings":             "count",
	"schedule.greedy_ms":               "ms",
	"schedule.costings":                "count",
	"designer.evaluate_delta_ms":       "ms",
	"designer.ddl_us":                  "us",
	"designer.workload_from_sql_ms":    "ms",
	"colt.observe_us":                  "us",
	"colt.close_ms":                    "ms",
	"autopilot.observe_us":             "us",
	"autopilot.overhead_x":             "x",
	"serve.handler_evaluate_ms":        "ms",
	"serve.loopback_overhead_ms":       "ms",
	"serve.overhead_x":                 "x",
	"admission.dispatch_us":            "us",
	"admission.rejected":               "count",
	"sessionmgr.create_close_us":       "us",
	"sessionmgr.evicted":               "count",
	"workload.generate_s":              "s",
	"storage.materialize_ms_per_index": "ms",

	// The traced lap against the untraced one, and the staged advise
	// pipeline's self time per stage as a share of the staged answer.
	"trace.answer_ms_untraced":    "ms",
	"trace.answer_ms_traced":      "ms",
	"trace.overhead_pct":          "%",
	"trace.staged_self_sum_ms":    "ms",
	"trace.share_pct.parse":       "%",
	"trace.share_pct.candidates":  "%",
	"trace.share_pct.prepare":     "%",
	"trace.share_pct.cophy":       "%",
	"trace.share_pct.lp":          "%",
	"trace.share_pct.autopart":    "%",
	"trace.share_pct.report":      "%",
	"trace.share_pct.interaction": "%",
	"trace.share_pct.schedule":    "%",
	"trace.share_pct.ddl":         "%",
}

// stagedGapLimit is how far the staged replica's summed self time may lie
// from the facade's answer time on advise_full before the traced run fails.
const stagedGapLimit = 0.10

// runTraced gives the per-layer metrics: the figures of the measured phase
// that are not bounded, a traced lap (spans kept in memory, written out at
// the end) against the untraced lap before it, then the per-layer
// stopwatches on the workload's own statements.
func runTraced(ctx context.Context, o Options, probe *probeEnv, r *runner, res *Result, seven map[string]float64, ref *lapOut) error {
	m := map[string]float64{}
	for name, v := range seven {
		if !bounded[name] {
			m[name] = v
		}
	}

	// On advise_full the traced answers are staged replicas of the facade's,
	// and their summed self time must land within stagedGapLimit of the
	// facade's answer time. The box slows for seconds at a time, so a miss
	// gets one more pair of laps, untraced then traced, before it fails.
	checked := o.Workload == "advise_full" && o.Scale >= 1
	var tr *tracer
	var traced *lapOut
	for attempt := 1; ; attempt++ {
		var err error
		if attempt > 1 {
			if ref, err = r.lap(ctx, false, nil); err != nil {
				return err
			}
			res.Failed += ref.failed
			res.Attempted += r.answers
		}
		tr = newTracer()
		if traced, err = r.lap(ctx, false, tr); err != nil {
			return err
		}
		res.Failed += traced.failed
		res.Attempted += r.answers
		if !checked {
			break
		}
		staged, facade := median(stagedAnswers(tr.all())), median(flat(ref.latMs))
		gap := staged/facade - 1
		fmt.Fprintf(o.Log, "  staged replica %.3f ms against the facade's %.3f ms an answer (%+.1f %%)\n", staged, facade, 100*gap)
		if math.Abs(gap) <= stagedGapLimit {
			break
		}
		if attempt == 2 {
			return fmt.Errorf("benchmark: the staged replica's summed self time is %+.1f %% from the untraced answer time, twice; the limit is %.0f %%", 100*gap, 100*stagedGapLimit)
		}
	}

	// For advise_full and readvise_budget this compares the staged replica
	// on the twin engine with the facade — two code paths, not the cost of
	// recording spans; for the other workloads the traced answer is the
	// untraced one plus spans.
	m["trace.answer_ms_untraced"] = median(flat(ref.latMs))
	m["trace.answer_ms_traced"] = median(flat(traced.latMs))
	m["trace.overhead_pct"] = (m["trace.answer_ms_traced"]/m["trace.answer_ms_untraced"] - 1) * 100

	// Per-layer stopwatches on the workload's own statements. When the
	// traced answers were not staged replicas themselves, the stopwatches
	// also run the staged advise pipeline on those statements, into the
	// same tracer, so every workload reports the stage shares.
	_, stagedOwn := selfTimes(tr.all())["cophy"]
	if err := layerProbes(ctx, o, probe, r.inst, tr, !stagedOwn, m); err != nil {
		return err
	}
	spans := tr.all()
	self := selfTimes(spans)
	var stagedSum float64
	for _, st := range replicaStages {
		stagedSum += self[st]
	}
	for _, st := range replicaStages {
		m["trace.share_pct."+st] = 100 * self[st] / stagedSum
	}
	m["trace.staged_self_sum_ms"] = median(stagedAnswers(spans))

	workloadCounts(res.Counts, m)

	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return err
	}
	if err := writeSpans(spanPath(o), spans); err != nil {
		return err
	}
	fmt.Fprintf(o.Log, "  %d spans written to %s; self time by span name:\n", len(spans), spanPath(o))
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(o.Log, "    %-20s %12.3f ms\n", name, self[name]/1e6)
	}

	for name, unit := range perLayer {
		v, ok := m[name]
		if !ok {
			return fmt.Errorf("benchmark: per-layer metric %s was not measured", name)
		}
		res.Metrics[name] = Metric{v, unit}
	}
	return nil
}

// stagedAnswers returns, per answer that went through the staged advise
// pipeline, the summed self time of its stage spans in milliseconds.
func stagedAnswers(spans []span) []float64 {
	byAnswer := map[int][]span{}
	for _, s := range spans {
		byAnswer[s.Answer] = append(byAnswer[s.Answer], s)
	}
	var out []float64
	for _, group := range byAnswer {
		self := selfTimes(group)
		if _, staged := self["cophy"]; !staged {
			continue
		}
		var sum float64
		for _, st := range replicaStages {
			sum += self[st]
		}
		out = append(out, sum/1e6)
	}
	return out
}

// flat pools the successful waits of one lap.
func flat(lat [][]float64) []float64 {
	var out []float64
	for _, l := range lat {
		for _, x := range l {
			if !math.IsNaN(x) {
				out = append(out, x)
			}
		}
	}
	return out
}
