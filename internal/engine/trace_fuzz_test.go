package engine

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadTrace feeds outside bytes to the trace loader. Whatever it does
// not refuse serves, for every key, the cost listed first for it — the rule
// the recorder and the replay index share — and serves the same after
// WriteFile and a reload. Corpus (testdata/fuzz/FuzzLoadTrace): a trace
// recorded from the tiny fixture, a wrong schema_version, an empty call list,
// one key listed twice with two costs among enough calls that an unstable
// sort reorders them, and two keys whose fields joined with a NUL would be
// one string.
func FuzzLoadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadTrace(in)
		if err != nil {
			return
		}
		first := make(map[traceKey]float64)
		for _, c := range loaded.Calls {
			k := traceKey{c.Op, c.SQL, c.Config}
			if _, seen := first[k]; !seen {
				first[k] = c.Cost
			}
		}
		servesFirst(t, "loaded", loaded, first)

		out := filepath.Join(dir, "out.json")
		if err := loaded.WriteFile(out); err != nil {
			t.Fatalf("a loaded trace does not write: %v", err)
		}
		again, err := LoadTrace(out)
		if err != nil {
			t.Fatalf("a written trace does not load: %v", err)
		}
		servesFirst(t, "written and reloaded", again, first)
	})
}

// servesFirst requires the trace to serve want's cost for every key, bit for
// bit.
func servesFirst(t *testing.T, what string, tr *Trace, want map[traceKey]float64) {
	t.Helper()
	for k, cost := range want {
		got, ok := tr.lookup(k.op, k.sql, k.config)
		if !ok || math.Float64bits(got) != math.Float64bits(cost) {
			t.Fatalf("%s trace serves %v (found %v) for %q under %q, first listed %v", what, got, ok, k.sql, k.config, cost)
		}
	}
}
