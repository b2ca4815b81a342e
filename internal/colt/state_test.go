package colt_test

import (
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/colt"
	"repro/internal/engine"
	"repro/internal/workload"
)

// TestAlertsReportsReturnCopies is the regression test for the slice
// aliasing fix: the slices handed out must be detached from the tuner's
// internals, so a caller's snapshot cannot observe in-place growth or be
// corrupted by mutation.
func TestAlertsReportsReturnCopies(t *testing.T) {
	opts := colt.DefaultOptions()
	opts.EpochLength = 10
	tuner, eng := newTuner(t, opts)
	stream := indexFriendlyStream(t, eng, 40, false)
	if _, err := tuner.ObserveAll(context.Background(), stream[:20]); err != nil {
		t.Fatal(err)
	}
	alerts := tuner.Alerts()
	reports := tuner.Reports()
	if len(alerts) == 0 || len(reports) == 0 {
		t.Fatalf("want alerts and reports after 2 epochs; got %d/%d", len(alerts), len(reports))
	}

	// Mutating the returned slices must not reach the tuner.
	alerts[0].Epoch = -99
	reports[0].Epoch = -99
	if tuner.Alerts()[0].Epoch == -99 || tuner.Reports()[0].Epoch == -99 {
		t.Fatal("returned slice aliases tuner internals")
	}

	// Continued observation must not grow (or reallocate under) a slice the
	// caller already holds.
	preAlerts, preReports := len(alerts), len(reports)
	if _, err := tuner.ObserveAll(context.Background(), stream[20:]); err != nil {
		t.Fatal(err)
	}
	if len(alerts) != preAlerts || len(reports) != preReports {
		t.Fatalf("caller's snapshot changed length: alerts %d->%d reports %d->%d",
			preAlerts, len(alerts), preReports, len(reports))
	}
	if len(tuner.Reports()) <= preReports {
		t.Fatal("tuner itself should have accumulated more reports")
	}
}

func TestAlertScoresCoverAddedIndexes(t *testing.T) {
	opts := colt.DefaultOptions()
	opts.EpochLength = 10
	tuner, eng := newTuner(t, opts)
	if _, err := tuner.ObserveAll(context.Background(), indexFriendlyStream(t, eng, 20, false)); err != nil {
		t.Fatal(err)
	}
	alerts := tuner.Alerts()
	if len(alerts) == 0 {
		t.Fatal("no alerts")
	}
	for _, a := range alerts {
		for _, ix := range a.Added {
			if a.Scores[ix.Key()] <= 0 {
				t.Fatalf("added index %s missing positive score: %v", ix.Key(), a.Scores)
			}
		}
	}
}

func TestSetCurrentDrivesPricing(t *testing.T) {
	opts := colt.DefaultOptions()
	opts.EpochLength = 10
	opts.AutoMaterialize = false
	tuner, eng := newTuner(t, opts)
	stream := indexFriendlyStream(t, eng, 10, false)
	base, err := tuner.Observe(context.Background(), stream[0])
	if err != nil {
		t.Fatal(err)
	}

	ix, err := eng.Pin().Session().HypotheticalIndex("photoobj", "psfmag_r")
	if err != nil {
		t.Fatal(err)
	}
	tuner.SetCurrent(catalog.NewConfiguration().WithIndex(ix))
	if !tuner.Current().HasIndex("photoobj(psfmag_r)") {
		t.Fatal("SetCurrent did not install the index")
	}
	withIx, err := tuner.Observe(context.Background(), stream[2])
	if err != nil {
		t.Fatal(err)
	}
	if withIx >= base {
		t.Fatalf("observation not priced under SetCurrent config: %f >= %f", withIx, base)
	}
	tuner.SetCurrent(nil)
	if len(tuner.Current().Indexes) != 0 {
		t.Fatal("SetCurrent(nil) should clear the configuration")
	}
}

// TestSnapshotRestoreResumesIdentically is the core crash-safety contract:
// a tuner snapshotted mid-epoch (JSON round-tripped, restored onto a fresh
// engine) must make bit-identical decisions on the remaining stream.
func TestSnapshotRestoreResumesIdentically(t *testing.T) {
	opts := colt.DefaultOptions()
	opts.EpochLength = 10

	// Reference run: one tuner over the whole stream.
	ref, refEng := newTuner(t, opts)
	stream := indexFriendlyStream(t, refEng, 40, false)
	stream = append(stream, indexFriendlyStream(t, refEng, 35, true)...)
	if _, err := ref.ObserveAll(context.Background(), stream); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: observe a prefix ending mid-epoch, snapshot through
	// JSON, restore onto a brand-new engine (fresh caches, like a restarted
	// process), then finish the stream.
	const cut = 35 // 3 full epochs + 5 queries into the 4th
	first, firstEng := newTuner(t, opts)
	firstStream := indexFriendlyStream(t, firstEng, 40, false)
	firstStream = append(firstStream, indexFriendlyStream(t, firstEng, 35, true)...)
	if _, err := first.ObserveAll(context.Background(), firstStream[:cut]); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(first.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var state colt.State
	if err := json.Unmarshal(blob, &state); err != nil {
		t.Fatal(err)
	}
	store, err := workload.Generate(workload.TinySize(), 101)
	if err != nil {
		t.Fatal(err)
	}
	freshEng := engine.New(store.Schema, store.Stats, nil)
	resumed, err := colt.Restore(freshEng, state, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Snapshot(), first.Snapshot()) {
		t.Fatalf("snapshot does not survive JSON and Restore:\nwas %+v\nnow %+v", first.Snapshot(), resumed.Snapshot())
	}
	// A state file written before "measured" existed restores to the same
	// tuner: the indexes it chose itself are not taken for a seeded design.
	if len(state.Current) == 0 {
		t.Fatal("the tuner holds no index at the cut: the old-file case is not exercised")
	}
	for i := range state.Candidates {
		state.Candidates[i].Measured = false
	}
	old, err := colt.Restore(freshEng, state, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old.Snapshot(), first.Snapshot()) {
		t.Fatalf("a state without the measured field restores differently:\nwas %+v\nnow %+v", first.Snapshot(), old.Snapshot())
	}
	resumedStream := indexFriendlyStream(t, freshEng, 40, false)
	resumedStream = append(resumedStream, indexFriendlyStream(t, freshEng, 35, true)...)
	if _, err := resumed.ObserveAll(context.Background(), resumedStream[cut:]); err != nil {
		t.Fatal(err)
	}

	got, want := keysOf(resumed.Current()), keysOf(ref.Current())
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("final configuration diverged: %v != %v", got, want)
	}
	refReports := ref.Reports()
	resReports := resumed.Reports()
	skip := len(refReports) - len(resReports)
	if skip < 0 {
		t.Fatalf("resumed tuner produced more reports (%d) than reference (%d)",
			len(resReports), len(refReports))
	}
	if !reflect.DeepEqual(refReports[skip:], resReports) {
		t.Fatalf("post-restore reports diverged:\nref: %+v\nres: %+v", refReports[skip:], resReports)
	}
	refAlerts := ref.Alerts()
	resAlerts := resumed.Alerts()
	askip := len(refAlerts) - len(resAlerts)
	if askip < 0 {
		t.Fatalf("resumed tuner raised more alerts (%d) than reference (%d)",
			len(resAlerts), len(refAlerts))
	}
	if !reflect.DeepEqual(refAlerts[askip:], resAlerts) {
		t.Fatalf("post-restore alerts diverged:\nref: %+v\nres: %+v", refAlerts[askip:], resAlerts)
	}
}

func TestCandidatesSnapshotIsDetached(t *testing.T) {
	opts := colt.DefaultOptions()
	opts.EpochLength = 10
	tuner, eng := newTuner(t, opts)
	if _, err := tuner.ObserveAll(context.Background(), indexFriendlyStream(t, eng, 20, false)); err != nil {
		t.Fatal(err)
	}
	cands := tuner.Candidates()
	if len(cands) == 0 {
		t.Fatal("no candidates tracked")
	}
	for i := 1; i < len(cands); i++ {
		if cands[i-1].Key >= cands[i].Key {
			t.Fatalf("candidates not sorted: %s >= %s", cands[i-1].Key, cands[i].Key)
		}
	}
	cands[0].Index.Columns[0] = "mutated"
	for _, c := range tuner.Candidates() {
		if c.Index.Columns[0] == "mutated" {
			t.Fatal("Candidates() aliases tuner internals")
		}
	}
}
