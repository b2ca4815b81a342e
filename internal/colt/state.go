package colt

import (
	"sort"

	"repro/internal/catalog"
	"repro/internal/engine"
)

// IndexState is the JSON-serializable spec of one (hypothetical or
// materialized) index, sufficient to reconstruct the *catalog.Index the
// tuner priced with. Pages/Height round-trip so a restored tuner makes the
// same knapsack and costing decisions bit-for-bit.
type IndexState struct {
	Name         string   `json:"name"`
	Table        string   `json:"table"`
	Columns      []string `json:"columns"`
	Unique       bool     `json:"unique,omitempty"`
	Hypothetical bool     `json:"hypothetical,omitempty"`
	Pages        int64    `json:"pages"`
	Height       int      `json:"height"`
}

func indexState(ix *catalog.Index) IndexState {
	return IndexState{
		Name:         ix.Name,
		Table:        ix.Table,
		Columns:      append([]string(nil), ix.Columns...),
		Unique:       ix.Unique,
		Hypothetical: ix.Hypothetical,
		Pages:        ix.EstimatedPages,
		Height:       ix.EstimatedHeight,
	}
}

// Index reconstructs the catalog index the state describes.
func (s IndexState) Index() *catalog.Index {
	return &catalog.Index{
		Name:            s.Name,
		Table:           s.Table,
		Columns:         append([]string(nil), s.Columns...),
		Unique:          s.Unique,
		Hypothetical:    s.Hypothetical,
		EstimatedPages:  s.Pages,
		EstimatedHeight: s.Height,
	}
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
	for _, ix := range t.current.Indexes {
		st.Current = append(st.Current, indexState(ix))
	}
	sort.Slice(st.Current, func(i, j int) bool {
		return st.Current[i].Index().Key() < st.Current[j].Index().Key()
	})
	keys := make([]string, 0, len(t.candidates))
	for k := range t.candidates {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
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
// the original tuner's options for decision-identical resumption.
func Restore(eng *engine.Engine, st State, opts Options) *Tuner {
	cfg := catalog.NewConfiguration()
	for _, ixs := range st.Current {
		cfg = cfg.WithIndex(ixs.Index())
	}
	t := New(eng, cfg, opts)
	t.epoch = st.Epoch
	t.queriesInEpoch = st.QueriesInEpoch
	t.epochCost = st.EpochCost
	t.whatIfUsed = st.WhatIfUsed
	t.budgetThisEpoch = st.BudgetThisEpoch
	t.stableEpochs = st.StableEpochs
	for _, cs := range st.Candidates {
		t.candidates[cs.Key] = &candState{
			ix:            cs.Index.Index(),
			observations:  cs.Observations,
			lastSeenEpoch: cs.LastSeenEpoch,
			hot:           cs.Hot,
			ewmaBenefit:   cs.EWMABenefit,
			epochRelevant: cs.EpochRelevant,
			// In a state older than the field, a non-zero reading says so.
			measured: cs.Measured || cs.EWMABenefit != 0,
		}
	}
	return t
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
	keys := make([]string, 0, len(t.candidates))
	for k := range t.candidates {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]CandidateStat, 0, len(keys))
	for _, k := range keys {
		c := t.candidates[k]
		out = append(out, CandidateStat{
			Key:           k,
			Index:         indexState(c.ix).Index(),
			Observations:  c.observations,
			LastSeenEpoch: c.lastSeenEpoch,
			Hot:           c.hot,
			EWMABenefit:   c.ewmaBenefit,
			EpochRelevant: c.epochRelevant,
		})
	}
	return out
}
