package autopilot_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/autopilot"
	"repro/internal/engine"
	"repro/internal/workload"
)

// savedState runs the test stream's first cut statements with persistence
// on, saves, and returns the state file decoded as plain JSON.
func savedState(t *testing.T, cut int) map[string]any {
	t.Helper()
	eng := newEngine(t)
	o := testOptions()
	o.StatePath = filepath.Join(t.TempDir(), "autopilot.json")
	ap, err := autopilot.New(eng, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ap.ObserveAll(context.Background(), fixedStream(t, eng)[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := ap.Save(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(o.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// fixedStream is 30 statements of the first phase, then 30 of the second.
func fixedStream(t testing.TB, eng *engine.Engine) []workload.Query {
	return append(stream(t, eng, 30, false), stream(t, eng, 30, true)...)
}

// entry returns st[path[0]][path[1]]... through objects and arrays.
func entry(t *testing.T, st map[string]any, path ...any) map[string]any {
	t.Helper()
	var cur any = st
	for _, p := range path {
		switch k := p.(type) {
		case string:
			cur = cur.(map[string]any)[k]
		case int:
			cur = cur.([]any)[k]
		}
	}
	m, ok := cur.(map[string]any)
	if !ok {
		t.Fatalf("no object at %v", path)
	}
	return m
}

// TestLoadRefusesStatesItCannotResume edits one persisted index of a
// real snapshot at a time. Each edit once resumed: an index without
// columns panicked in the first epoch, one on an unknown table or column
// was reported live, a candidate filed under another key was tracked
// under it, and a window weight of 1e308 priced the next epoch to +Inf,
// after which no snapshot could be written. Now New refuses, naming the
// entry and, for an index, giving the what-if constructor's refusal; a
// version-1 file, whose indexes carried sizes, is refused by version.
func TestLoadRefusesStatesItCannotResume(t *testing.T) {
	cases := []struct {
		name string
		cut  int // statements observed before the save
		edit func(t *testing.T, st map[string]any)
		want string
	}{
		{"live index without columns", 55, func(t *testing.T, st map[string]any) {
			entry(t, st, "tuner", "current", 0)["columns"] = []any{}
		}, "tuner.current[0]: whatif: index needs at least one column"},
		{"live index on an unknown table", 55, func(t *testing.T, st map[string]any) {
			ix := entry(t, st, "tuner", "current", 0)
			ix["table"], ix["columns"] = "nosuch", []any{"a"}
		}, `tuner.current[0]: whatif: unknown table "nosuch"`},
		{"live index on an unknown column", 55, func(t *testing.T, st map[string]any) {
			entry(t, st, "tuner", "current", 0)["columns"] = []any{"nosuch"}
		}, `tuner.current[0]: whatif: table neighbors has no column "nosuch"`},
		{"live index repeating a column", 55, func(t *testing.T, st map[string]any) {
			ix := entry(t, st, "tuner", "current", 0)
			ix["columns"] = append(ix["columns"].([]any), ix["columns"].([]any)[0])
		}, `tuner.current[0]: whatif: column "distance" repeats in the key`},
		{"a version-1 file, which carried sizes", 55, func(t *testing.T, st map[string]any) {
			st["version"] = 1
		}, "has version 1, want 2"},
		{"candidate filed under another key", 55, func(t *testing.T, st map[string]any) {
			entry(t, st, "tuner", "candidates", 0)["key"] = "photoobj(ra)"
		}, `tuner.candidates[0]: key "photoobj(ra)" is not its index's key`},
		{"candidate on an unknown column", 55, func(t *testing.T, st map[string]any) {
			entry(t, st, "tuner", "candidates", 0, "index")["columns"] = []any{"nosuch"}
		}, `tuner.candidates[0]: whatif: table neighbors has no column "nosuch"`},
		{"build on an unknown table", 15, func(t *testing.T, st map[string]any) {
			entry(t, st, "builds", 0, "index")["table"] = "nosuch"
		}, `builds[0]: whatif: unknown table "nosuch"`},
		{"window query weighted beyond a count", 55, func(t *testing.T, st map[string]any) {
			entry(t, st, "window", 0)["weight"] = 1e308
		}, "window[0]: weight 1e+308 is not a positive count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := savedState(t, tc.cut)
			tc.edit(t, st)
			blob, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			o := testOptions()
			o.StatePath = filepath.Join(t.TempDir(), "edited.json")
			if err := os.WriteFile(o.StatePath, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			ap, err := autopilot.New(newEngine(t), nil, o)
			if err == nil {
				t.Fatalf("resumed from the edited state: %+v", ap.Status())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// FuzzLoadAutopilotState feeds outside bytes to the state loader. New
// either refuses them or resumes into a supervisor that observes a fixed
// 60-statement stream without panicking and, once saved, resumes again to
// the same Status. Corpus (testdata/fuzz/FuzzLoadAutopilotState, state
// version 2): two real saved states (a build in progress; a live index in
// probation), an empty object, and the real state with its live index
// emptied of columns, moved to an unknown table or column, with a candidate
// filed under another key, or with a window weight of 1e308.
func FuzzLoadAutopilotState(f *testing.F) {
	eng := newEngine(f)
	qs := fixedStream(f, eng)
	f.Fuzz(func(t *testing.T, data []byte) {
		o := testOptions()
		o.StatePath = filepath.Join(t.TempDir(), "autopilot.json")
		if err := os.WriteFile(o.StatePath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ap, err := autopilot.New(eng, nil, o)
		if err != nil {
			return
		}
		if _, err := ap.ObserveAll(context.Background(), qs); err != nil {
			t.Logf("observe: %v", err)
		}
		if err := ap.Save(); err != nil {
			t.Fatalf("a resumed supervisor does not save: %v", err)
		}
		again, err := autopilot.New(eng, nil, o)
		if err != nil {
			t.Fatalf("a saved state does not resume: %v", err)
		}
		if got, want := again.Status(), ap.Status(); !reflect.DeepEqual(got, want) {
			t.Fatalf("resumed status\n%+v\nwant\n%+v", got, want)
		}
	})
}
