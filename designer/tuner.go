package designer

import (
	"context"

	"repro/internal/colt"
)

// Tuner is the COLT continuous online tuner (Scenario 3): it watches the
// incoming query stream, profiles promising single-column indexes within a
// bounded what-if budget, and proposes (or applies) configuration changes
// at epoch boundaries. It is not safe for concurrent Observe calls —
// serialize observation (the serve layer does).
type Tuner struct {
	t *colt.Tuner
}

// Observe feeds one query through the tuner and returns its estimated cost
// under the live configuration. A cancelled context aborts before pricing.
func (t *Tuner) Observe(ctx context.Context, q Query) (float64, error) {
	if err := q.valid(); err != nil {
		return 0, err
	}
	return t.t.Observe(ctx, q.internal())
}

// ObserveAll feeds a whole stream and returns the total estimated cost
// experienced. A cancelled context aborts between queries.
func (t *Tuner) ObserveAll(ctx context.Context, qs []Query) (float64, error) {
	stream, err := queriesToInternal(qs)
	if err != nil {
		return 0, err
	}
	return t.t.ObserveAll(ctx, stream)
}

// OnAlert registers a callback invoked for every alert.
func (t *Tuner) OnAlert(fn func(TunerAlert)) {
	t.t.OnAlert(func(a colt.Alert) { fn(alertFromInternal(a)) })
}

// Current returns the live configuration's index set.
func (t *Tuner) Current() []Index {
	return indexesFromInternal(t.t.Current().Indexes)
}

// Alerts returns all alerts raised so far.
func (t *Tuner) Alerts() []TunerAlert { return alertsFromInternal(t.t.Alerts()) }

// Reports returns per-epoch summaries.
func (t *Tuner) Reports() []TunerReport { return reportsFromInternal(t.t.Reports()) }

// Close releases nothing: the tuner keeps no costing state between
// observations, since each observation prices on a pinned view of its own
// that is dropped when the observation returns. It is kept so callers that
// retire tuners explicitly still compile.
func (t *Tuner) Close() { t.t.Close() }
