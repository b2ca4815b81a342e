package livedb_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/livedb"
	"repro/internal/sqlparse"
)

// FuzzImportSQL feeds arbitrary bytes through the importer's front door (a
// SQL file over the fake snapshot) and holds what the DBA is promised: every
// statement is accounted for, every imported query is one the designer can
// take, and the splitter, the template and the binder read the text the way
// the parser does. The committed corpus (testdata/fuzz/FuzzImportSQL) holds
// the fake's pg_stat_statements rows and one statement per token kind and
// parameter position.
func FuzzImportSQL(f *testing.F) {
	_, snap := snapFake(f)
	f.Add("SELECT order_id FROM orders WHERE customer_id = $1; BEGIN")
	f.Fuzz(func(t *testing.T, text string) {
		stmts := sqlparse.SplitScript(text)
		if again := sqlparse.SplitScript(strings.Join(stmts, ";")); !reflect.DeepEqual(again, stmts) {
			t.Fatalf("split %q, joined and split again %q", stmts, again)
		}

		rep := livedb.ImportSQLFile("fuzz.sql", text, snap, livedb.ImportOptions{MaxTemplates: 1 << 20})
		if rep.Seen != len(stmts) {
			t.Fatalf("seen %d of %d statements", rep.Seen, len(stmts))
		}
		// Every statement is behind a skipped entry or an imported weight.
		skipped := map[string]bool{}
		for _, s := range rep.Skipped {
			if s.Reason == "" {
				t.Fatalf("%q skipped without a reason", s.SQL)
			}
			skipped[sqlparse.Template(s.SQL)] = true
		}
		seen := map[string]bool{}
		var first []string // of each template that was not skipped, the first text that instantiates
		var weight float64
		for _, s := range stmts {
			key := sqlparse.Template(s)
			if skipped[key] {
				continue
			}
			if !seen[key] {
				if _, _, err := livedb.Instantiate(s, snap); err == nil {
					seen[key] = true
					first = append(first, s)
				}
			}
			weight++
		}
		var imported float64
		for _, q := range rep.Queries {
			imported += q.Weight
		}
		if len(rep.Queries) != len(first) || imported != weight || len(skipped) != len(rep.Skipped) {
			t.Fatalf("%d statements in %d+%d templates, imported %d with weight %v, skipped %d",
				len(stmts), len(first), len(skipped), len(rep.Queries), imported, len(rep.Skipped))
		}

		// An imported query holds no parameter, and its SQL parses and
		// resolves to the statement the importer kept without re-parsing.
		var bound []string
		for _, q := range rep.Queries {
			if p := q.Stmt.FirstParam(); p != nil {
				t.Fatalf("%q imported with %s unbound", q.SQL, p)
			}
			again, err := sqlparse.ParseSelect(q.SQL)
			if err == nil {
				err = sqlparse.Resolve(again, snap.Schema)
			}
			if err != nil || again.String() != q.Stmt.String() {
				t.Fatalf("imported SQL %q: %v; reads %q, kept %q", q.SQL, err, again, q.Stmt)
			}
			bound = append(bound, sqlparse.Template(q.Stmt.String()))
		}
		// Binding replaces parameters by constants and nothing else: the
		// canonical rendering has one template before and after.
		var open []string
		for _, s := range first {
			stmt, err := sqlparse.ParseSelect(s)
			if err == nil {
				err = sqlparse.Resolve(stmt, snap.Schema)
			}
			if err != nil {
				t.Fatalf("%q was imported: %v", s, err)
			}
			open = append(open, sqlparse.Template(stmt.String()))
		}
		sort.Strings(open)
		sort.Strings(bound)
		if !reflect.DeepEqual(open, bound) {
			t.Fatalf("templates before binding %q, after %q", open, bound)
		}
	})
}

// FuzzLiveTrace feeds outside bytes to the one trace loader that reads them
// (dbdesigner --live-trace, serve's live_trace) and on through the offline
// pipeline's first stages: LoadTrace, NewFromTrace, TakeSnapshot and
// FitCalibration. Every input ends in a value or a clean error, never a
// panic, and a fitted calibration prices (positive, finite constants). A
// trace that loads replays the same after WriteFile and a reload. Seeds: the
// committed fixture, and the same fixture with the tables query's first row
// cut to one field, and with every planner setting not a finite number.
func FuzzLiveTrace(f *testing.F) {
	for _, path := range []string{
		"../../designer/testdata/live_shopdb.json",
		"../../designer/testdata/live_shopdb_short_row.json",
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	tr, err := livedb.LoadTrace("../../designer/testdata/live_shopdb.json")
	if err != nil {
		f.Fatal(err)
	}
	for i, c := range tr.Calls {
		if strings.Contains(c.SQL, "FROM pg_settings") {
			for j := range c.Rows {
				tr.Calls[i].Rows[j] = []string{c.Rows[j][0], []string{"NaN", "Inf", "-Inf"}[j%3]}
			}
		}
	}
	raw, err := json.Marshal(tr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{"version":1,"calls":[{"sql":"SELECT current_database()","rows":[[]]}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		tr, err := livedb.LoadTrace(in)
		if err != nil {
			if tr != nil {
				t.Fatalf("LoadTrace returned a trace with error %v", err)
			}
			return
		}
		first := replayTrace(t, tr)

		out := filepath.Join(dir, "out.json")
		if err := tr.WriteFile(out); err != nil {
			t.Fatal(err)
		}
		again, err := livedb.LoadTrace(out)
		if err != nil {
			t.Fatalf("a written trace does not load: %v", err)
		}
		if second := replayTrace(t, again); second != first {
			t.Fatalf("the reloaded trace replays differently:\n%s\nvs\n%s", first, second)
		}
	})
}

// replayTrace runs the snapshot and the calibration fit over the trace and
// renders what they return.
func replayTrace(t *testing.T, tr *livedb.Trace) string {
	ctx := context.Background()
	db := livedb.NewFromTrace(tr)
	defer db.Close()
	snap, serr := livedb.TakeSnapshot(ctx, db)
	if (snap == nil) == (serr == nil) {
		t.Fatalf("TakeSnapshot returned %v with error %v", snap, serr)
	}
	cal, cerr := livedb.FitCalibration(ctx, db, snap)
	if (cal == nil) == (cerr == nil) {
		t.Fatalf("FitCalibration returned %v with error %v", cal, cerr)
	}
	if cal != nil {
		for _, v := range []float64{cal.SeqPageCost, cal.RandomPageCost, cal.CPUTupleCost,
			cal.CPUIndexTupleCost, cal.CPUOperatorCost, cal.EffectiveCacheSizePages} {
			if !(v > 0) || math.IsInf(v, 1) {
				t.Fatalf("fitted calibration prices with %v: %+v", v, cal)
			}
		}
	}
	var b strings.Builder
	render(&b, reflect.ValueOf([]any{snap, fmt.Sprint(serr), cal, fmt.Sprint(cerr)}))
	return b.String()
}

// render prints v deterministically: pointers followed, map keys sorted,
// nil and empty slices alike, NaN as text. reflect.DeepEqual would call two
// replays of one NaN statistic different.
func render(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Invalid:
		b.WriteString("nil")
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		render(b, v.Elem())
	case reflect.Struct:
		b.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			render(b, v.Field(i))
			b.WriteByte(' ')
		}
		b.WriteByte('}')
	case reflect.Slice, reflect.Array:
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			render(b, v.Index(i))
			b.WriteByte(' ')
		}
		b.WriteByte(']')
	case reflect.Map:
		keys := make([]string, 0, v.Len())
		vals := map[string]reflect.Value{}
		for it := v.MapRange(); it.Next(); {
			k := fmt.Sprint(it.Key())
			keys = append(keys, k)
			vals[k] = it.Value()
		}
		sort.Strings(keys)
		b.WriteByte('{')
		for _, k := range keys {
			fmt.Fprintf(b, "%q:", k)
			render(b, vals[k])
			b.WriteByte(' ')
		}
		b.WriteByte('}')
	default:
		fmt.Fprint(b, v)
	}
}
