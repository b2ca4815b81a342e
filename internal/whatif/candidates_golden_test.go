package whatif_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/whatif"
	"repro/internal/workload"
)

var updateCandidates = flag.Bool("update-candidates", false,
	"rewrite testdata/candidates.golden from the current enumerator (only for an intentional change of the design space)")

// TestCandidatesArePinned lists every candidate GenerateCandidates emits, in
// order, with its key, name, estimated pages, height and rows, over a grid of
// datasets (tiny and small, seeds 1 and 5), the five workload profiles, four
// per-table caps and the structure kinds off and on. It compares the listing
// with testdata/candidates.golden byte for byte, so a refactor of the
// enumerator shows any candidate it adds, drops, reorders or resizes.
// Refresh the golden with -update-candidates only for an intentional change.
func TestCandidatesArePinned(t *testing.T) {
	const stmts = 48
	var got strings.Builder
	for _, size := range []string{"tiny", "small"} {
		for _, seed := range []int64{1, 5} {
			sz, err := workload.SizeByName(size)
			if err != nil {
				t.Fatal(err)
			}
			store, err := workload.Generate(sz, seed)
			if err != nil {
				t.Fatal(err)
			}
			s := whatif.NewSessionFromEnv(optimizer.NewEnv(store.Schema, store.Stats, nil), nil)
			for _, name := range workload.ProfileNames() {
				p, err := workload.ProfileByName(name)
				if err != nil {
					t.Fatal(err)
				}
				w, err := p.Generate(store.Schema, seed, stmts)
				if err != nil {
					t.Fatal(err)
				}
				for _, maxPerTable := range []int{0, 2, 6, 12} {
					for _, structures := range []bool{false, true} {
						opts := whatif.DefaultCandidateOptions()
						if maxPerTable > 0 {
							opts.MaxPerTable = maxPerTable
						}
						opts.IncludeProjections, opts.IncludeAggViews = structures, structures
						fmt.Fprintf(&got, "== %s seed=%d profile=%s max=%d structures=%t\n",
							size, seed, name, maxPerTable, structures)
						for _, ix := range s.GenerateCandidates(w, opts) {
							fmt.Fprintf(&got, "%s %s pages=%d height=%d rows=%d\n",
								ix.Key(), ix.Name, ix.EstimatedPages, ix.EstimatedHeight, ix.EstimatedRows)
						}
					}
				}
			}
		}
	}

	golden := filepath.Join("testdata", "candidates.golden")
	if *updateCandidates {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-candidates to create it)", err)
	}
	if got.String() == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("candidates differ from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
		}
	}
}
