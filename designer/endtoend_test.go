package designer_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/designer"
	"repro/internal/workload"
)

// TestMeasuredImprovementEndToEnd is the whole-system validation: advise,
// physically materialize, and verify that MEASURED I/O (not estimates)
// improves for the workload. This is the repository's strongest claim —
// the advisor's recommendations help when actually executed.
func TestMeasuredImprovementEndToEnd(t *testing.T) {
	ctx := context.Background()
	d, err := designer.OpenSDSS("small", 211)
	if err != nil {
		t.Fatal(err)
	}
	// Selective queries where indexes must win at execution time too.
	w, err := d.WorkloadFromSQL([]string{
		"SELECT objid, ra FROM photoobj WHERE objid BETWEEN 1000100 AND 1000300",
		"SELECT psfmag_r FROM photoobj WHERE type = 6 AND psfmag_r < 14",
		"SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 120 AND 124 AND dec BETWEEN 0 AND 4",
		"SELECT specobjid, z FROM specobj WHERE z > 1.5 ORDER BY z DESC LIMIT 50",
	})
	if err != nil {
		t.Fatal(err)
	}

	measure := func() int64 {
		var total int64
		for _, q := range w.Queries() {
			res, err := d.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			total += res.IO.Total()
		}
		return total
	}

	before := measure()
	advice, err := d.Advise(ctx, w, designer.AdviceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(advice.Indexes) == 0 {
		t.Fatal("advisor found nothing for an index-friendly workload")
	}
	if _, err := d.Materialize(ctx, advice.Indexes); err != nil {
		t.Fatal(err)
	}
	after := measure()

	if after >= before {
		t.Fatalf("measured I/O did not improve: %d -> %d pages", before, after)
	}
	// The win should be substantial for these selective queries.
	if after > before/2 {
		t.Errorf("measured improvement under 2x: %d -> %d pages", before, after)
	}
	t.Logf("measured workload I/O: %d -> %d pages (%.1fx)",
		before, after, float64(before)/float64(after))
}

// TestAllTemplatesExecutable runs every SDSS template end to end under
// both the empty design and an advised+materialized design, confirming
// the full dialect is executable, not just plannable, and holds each
// result to the committed digest in testdata/executor_results.txt: the
// sorted, rendered result rows (a multiset) and the measured I/O of every
// template, on tiny at two seeds, under both designs. The executor and the
// store are the ground truth the what-if layer is compared with, so a
// storage or executor change must leave every line unmoved.
// `go test ./designer -run TestAllTemplatesExecutable -update-executor-digest`
// rewrites the file after a deliberate change to what a query returns.
func TestAllTemplatesExecutable(t *testing.T) {
	var got strings.Builder
	for _, seed := range []int64{212, 7} {
		executeAllTemplates(t, seed, &got)
	}
	if *updateExecutorDigest {
		if err := os.WriteFile(executorDigestPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(executorDigestPath)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got.String(), "\n")
	for i := 0; i < max(len(wantLines), len(gotLines)); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}

var updateExecutorDigest = flag.Bool("update-executor-digest", false,
	"rewrite designer/testdata/executor_results.txt from the executor's results")

const executorDigestPath = "testdata/executor_results.txt"

// executeAllTemplates opens tiny at seed, runs one query of every template
// before and after materializing the advised design, and writes one digest
// line per query to out.
func executeAllTemplates(t *testing.T, seed int64, out *strings.Builder) {
	t.Helper()
	ctx := context.Background()
	d, err := designer.OpenSDSS("tiny", seed)
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.GenerateWorkload(seed+1, len(workload.Templates()))
	if err != nil {
		t.Fatal(err)
	}
	rowsBefore := make(map[string]int, w.Len())
	run := func(design string) {
		for _, q := range w.Queries() {
			res, err := d.Execute(q)
			if err != nil {
				t.Fatalf("%s under the %s design: %v", q.ID(), design, err)
			}
			if design == "empty" {
				rowsBefore[q.ID()] = len(res.Rows)
			} else if len(res.Rows) != rowsBefore[q.ID()] {
				t.Fatalf("%s: row count changed %d -> %d after indexing",
					q.ID(), rowsBefore[q.ID()], len(res.Rows))
			}
			fmt.Fprintf(out, "seed=%d design=%s %s rows=%d io=%d/%d/%d result=%s\n",
				seed, design, q.ID(), len(res.Rows),
				res.IO.SeqPages, res.IO.RandomPages, res.IO.TuplesRead, resultDigest(res))
		}
	}
	run("empty")
	advice, err := d.Advise(ctx, w, designer.AdviceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Materialize(ctx, advice.Indexes); err != nil {
		t.Fatal(err)
	}
	run("advised")
}

// resultDigest hashes a result's column names and its rows, rendered and
// sorted, so the digest reads the result as a multiset.
func resultDigest(res *designer.QueryResult) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(rows)
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", strings.Join(res.Columns, "\x1f"))
	for _, r := range rows {
		fmt.Fprintf(h, "%s\n", r)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
