package autopilot

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/colt"
	"repro/internal/engine"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// stateVersion guards the on-disk format; a mismatch fails loudly instead
// of silently resuming from an incompatible snapshot. Version 2 persists an
// index as its spec (colt.IndexState); version 1 carried sizes.
const stateVersion = 2

type persistedBuild struct {
	Index   colt.IndexState `json:"index"`
	Done    int64           `json:"done"`
	Promise float64         `json:"promise"`
}

type persistedProbation struct {
	Key            string  `json:"key"`
	Promise        float64 `json:"promise"`
	EpochsObserved int     `json:"epochs_observed"`
	MeasuredTotal  float64 `json:"measured_total"`
}

type persistedQuery struct {
	ID     string  `json:"id"`
	SQL    string  `json:"sql"`
	Weight float64 `json:"weight"`
}

type persistedState struct {
	Version         int                  `json:"version"`
	Tuner           colt.State           `json:"tuner"`
	Epoch           int                  `json:"epoch"`
	Seq             int                  `json:"seq"`
	Builds          []persistedBuild     `json:"builds,omitempty"`
	Probation       []persistedProbation `json:"probation,omitempty"`
	Cooldown        map[string]int       `json:"cooldown,omitempty"`
	Decisions       []Decision           `json:"decisions,omitempty"`
	Regret          []RegretPoint        `json:"regret,omitempty"`
	Window          []persistedQuery     `json:"window,omitempty"`
	BuildsCompleted int64                `json:"builds_completed"`
	Rollbacks       int64                `json:"rollbacks"`
	BuildPages      int64                `json:"build_pages"`
}

// saveLocked writes the full snapshot crash-safely: marshal, write to a
// temp file in the same directory, fsync-free rename over the target (the
// rename is atomic on POSIX, so a crash leaves either the old or the new
// snapshot, never a torn one).
func (a *Autopilot) saveLocked() error {
	st := persistedState{
		Version:         stateVersion,
		Tuner:           a.tuner.Snapshot(),
		Epoch:           a.lastEpoch,
		Seq:             a.seq,
		Cooldown:        a.cooldown,
		Decisions:       a.decisions,
		Regret:          a.regret,
		BuildsCompleted: a.buildsCompleted,
		Rollbacks:       a.rollbacks,
		BuildPages:      a.buildPages,
	}
	for _, b := range a.builds {
		done, _ := b.build.Progress()
		ix := b.build.Index()
		st.Builds = append(st.Builds, persistedBuild{
			Index: colt.IndexState{Table: ix.Table, Columns: ix.Columns}, Done: done, Promise: b.promise,
		})
	}
	for _, key := range slices.Sorted(maps.Keys(a.probation)) {
		p := a.probation[key]
		st.Probation = append(st.Probation, persistedProbation{
			Key: key, Promise: p.promise,
			EpochsObserved: p.epochsObserved, MeasuredTotal: p.measuredTotal,
		})
	}
	for _, q := range a.window {
		st.Window = append(st.Window, persistedQuery{ID: q.ID, SQL: q.SQL, Weight: q.Weight})
	}

	blob, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("autopilot: marshal state: %w", err)
	}
	dir := filepath.Dir(a.opts.StatePath)
	tmp, err := os.CreateTemp(dir, ".autopilot-*.json")
	if err != nil {
		return fmt.Errorf("autopilot: save state: %w", err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("autopilot: save state: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("autopilot: save state: %w", err)
	}
	if err := os.Rename(tmp.Name(), a.opts.StatePath); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("autopilot: save state: %w", err)
	}
	return nil
}

// load resumes from a snapshot. Returns (false, nil) when the file does
// not exist (fresh start).
func (a *Autopilot) load(path string) (bool, error) {
	blob, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("autopilot: load state: %w", err)
	}
	var st persistedState
	if err := json.Unmarshal(blob, &st); err != nil {
		return false, fmt.Errorf("autopilot: load state %s: %w", path, err)
	}
	if st.Version != stateVersion {
		return false, fmt.Errorf("autopilot: state %s has version %d, want %d", path, st.Version, stateVersion)
	}
	for i, q := range st.Window {
		if !(q.Weight > 0 && q.Weight <= maxWeight) {
			return false, fmt.Errorf("autopilot: state %s: window[%d]: weight %v is not a positive count", path, i, q.Weight)
		}
	}
	v := a.eng.Pin()
	builds := make([]*buildState, len(st.Builds))
	for i, pb := range st.Builds {
		ix, err := pb.Index.Structure(v)
		if err != nil {
			return false, fmt.Errorf("autopilot: state %s: builds[%d]: %w", path, i, err)
		}
		// The same spec and statistics yield the same total, so progress
		// resumes exactly where the snapshot left off.
		builds[i] = &buildState{build: engine.NewIndexBuild(ix, v.Stats()), promise: pb.Promise}
		builds[i].build.Advance(pb.Done)
	}
	if a.tuner, err = colt.Restore(a.eng, st.Tuner, a.opts.Colt); err != nil {
		return false, fmt.Errorf("autopilot: state %s: %w", path, err)
	}
	a.tuner.OnAlert(func(al colt.Alert) { a.pendingAlerts = append(a.pendingAlerts, al) })
	a.lastEpoch = st.Epoch
	a.seq = st.Seq
	a.decisions = st.Decisions
	a.regret = st.Regret
	a.buildsCompleted = st.BuildsCompleted
	a.rollbacks = st.Rollbacks
	a.buildPages = st.BuildPages
	if st.Cooldown != nil {
		a.cooldown = st.Cooldown
	}
	a.builds = builds
	for _, pp := range st.Probation {
		a.probation[pp.Key] = &probationState{
			key: pp.Key, promise: pp.Promise,
			epochsObserved: pp.EpochsObserved, measuredTotal: pp.MeasuredTotal,
		}
	}
	// Re-resolve the mid-epoch window against the schema; statements that
	// no longer parse (schema changed underneath the snapshot) are dropped
	// from measurement rather than failing the resume.
	for _, pq := range st.Window {
		stmt, err := sqlparse.ParseSelect(pq.SQL)
		if err != nil {
			continue
		}
		if err := sqlparse.Resolve(stmt, a.eng.Schema()); err != nil {
			continue
		}
		a.window = append(a.window, workload.Query{ID: pq.ID, SQL: pq.SQL, Weight: pq.Weight, Stmt: stmt})
	}
	return true, nil
}

// maxWeight bounds a window query's weight, an execution count: float64
// counts are exact up to 2^53, and a weight beyond it could overflow a
// priced window to an infinite cost, which no state file can hold.
const maxWeight = 1 << 53
