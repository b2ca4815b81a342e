package colt

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/engine"
)

// IndexState is the JSON-serializable spec of one secondary index, its
// table and key columns; Restore resolves it through the what-if
// constructor (Structure), so a state file names no size.
type IndexState struct {
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
}

func indexState(ix *catalog.Index) IndexState {
	return IndexState{Table: ix.Table, Columns: slices.Clone(ix.Columns)}
}

// Structure resolves the spec on the view as the tuner's candidates are.
func (s IndexState) Structure(v *engine.View) (*catalog.Index, error) {
	return structure(v, s.Table, s.Columns)
}

// CandidateState persists one candidate's learning state.
type CandidateState struct {
	Key           string     `json:"key"`
	Index         IndexState `json:"index"`
	Observations  int        `json:"observations"`
	LastSeenEpoch int        `json:"last_seen_epoch"`
	Hot           bool       `json:"hot,omitempty"`
	EWMABenefit   float64    `json:"ewma_benefit"`
	EpochRelevant int        `json:"epoch_relevant,omitempty"`
	Measured      bool       `json:"measured,omitempty"`
}

// State is a point-in-time snapshot of everything a Tuner has learned:
// epoch counters (including mid-epoch accumulators, so a snapshot taken
// between epoch boundaries resumes exactly), per-candidate statistics, and
// the live configuration. It JSON-round-trips losslessly — Go encodes
// float64 with enough digits to restore the identical bit pattern — which
// is what makes "restart and make the same decisions" testable.
type State struct {
	Epoch           int              `json:"epoch"`
	QueriesInEpoch  int              `json:"queries_in_epoch"`
	EpochCost       float64          `json:"epoch_cost"`
	WhatIfUsed      int              `json:"what_if_used"`
	BudgetThisEpoch int              `json:"budget_this_epoch"`
	StableEpochs    int              `json:"stable_epochs"`
	Current         []IndexState     `json:"current"`
	Candidates      []CandidateState `json:"candidates"`
}

// Snapshot captures the tuner's full learning state. Safe to call at any
// point between Observe calls; the caller serializes it (autopilot writes
// it inside a crash-safe temp-file-and-rename journal step).
func (t *Tuner) Snapshot() State {
	st := State{
		Epoch:           t.epoch,
		QueriesInEpoch:  t.queriesInEpoch,
		EpochCost:       t.epochCost,
		WhatIfUsed:      t.whatIfUsed,
		BudgetThisEpoch: t.budgetThisEpoch,
		StableEpochs:    t.stableEpochs,
	}
	byKey := func(a, b *catalog.Index) int { return strings.Compare(a.Key(), b.Key()) }
	for _, ix := range slices.SortedFunc(slices.Values(t.current.Indexes), byKey) {
		st.Current = append(st.Current, indexState(ix))
	}
	for _, k := range slices.Sorted(maps.Keys(t.candidates)) {
		c := t.candidates[k]
		st.Candidates = append(st.Candidates, CandidateState{
			Key:           k,
			Index:         indexState(c.ix),
			Observations:  c.observations,
			LastSeenEpoch: c.lastSeenEpoch,
			Hot:           c.hot,
			EWMABenefit:   c.ewmaBenefit,
			EpochRelevant: c.epochRelevant,
			Measured:      c.measured,
		})
	}
	return st
}

// Restore builds a tuner that resumes from a snapshot instead of learning
// from scratch. The engine is fresh (a restarted process has an empty INUM
// cache, which only costs re-preparation, not decisions); opts must match
// the original tuner's options for decision-identical resumption. It
// refuses, naming the entry, an index spec the what-if constructor refuses
// and a candidate filed under another key than its index's.
func Restore(eng *engine.Engine, st State, opts Options) (*Tuner, error) {
	v := eng.Pin()
	cfg := catalog.NewConfiguration()
	for i, s := range st.Current {
		ix, err := s.Structure(v)
		if err != nil {
			return nil, fmt.Errorf("tuner.current[%d]: %w", i, err)
		}
		cfg = cfg.WithIndex(ix)
	}
	t := New(eng, cfg, opts)
	t.epoch = st.Epoch
	t.queriesInEpoch = st.QueriesInEpoch
	t.epochCost = st.EpochCost
	t.whatIfUsed = st.WhatIfUsed
	t.budgetThisEpoch = st.BudgetThisEpoch
	t.stableEpochs = st.StableEpochs
	for i, cs := range st.Candidates {
		ix, err := cs.Index.Structure(v)
		if err != nil {
			return nil, fmt.Errorf("tuner.candidates[%d]: %w", i, err)
		}
		if key := ix.Key(); cs.Key != key {
			return nil, fmt.Errorf("tuner.candidates[%d]: key %q is not its index's key %q", i, cs.Key, key)
		}
		t.candidates[cs.Key] = &candState{
			ix:            ix,
			observations:  cs.Observations,
			lastSeenEpoch: cs.LastSeenEpoch,
			hot:           cs.Hot,
			ewmaBenefit:   cs.EWMABenefit,
			epochRelevant: cs.EpochRelevant,
			// In a state older than the field, a non-zero reading says so.
			measured: cs.Measured || cs.EWMABenefit != 0,
		}
	}
	return t, nil
}

// CandidateStat is a read-only view of one tracked candidate.
type CandidateStat struct {
	Key           string
	Index         *catalog.Index
	Observations  int
	LastSeenEpoch int
	Hot           bool
	EWMABenefit   float64
	EpochRelevant int
}

// Candidates returns a snapshot of all tracked candidates, sorted by key.
// Indexes are copies; mutating them does not affect the tuner.
func (t *Tuner) Candidates() []CandidateStat {
	out := make([]CandidateStat, 0, len(t.candidates))
	for _, k := range slices.Sorted(maps.Keys(t.candidates)) {
		c := t.candidates[k]
		out = append(out, CandidateStat{
			Key:           k,
			Index:         c.ix.Clone(),
			Observations:  c.observations,
			LastSeenEpoch: c.lastSeenEpoch,
			Hot:           c.hot,
			EWMABenefit:   c.ewmaBenefit,
			EpochRelevant: c.epochRelevant,
		})
	}
	return out
}
