package designer

import (
	"fmt"

	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// Query is one parsed, schema-resolved workload member. Obtain one from
// ParseQuery (or a Workload); the zero Query is invalid.
type Query struct {
	id     string
	sql    string
	weight float64
	stmt   *sqlparse.SelectStmt
}

// ID returns the query's identifier.
func (q Query) ID() string { return q.id }

// SQL returns the query's SQL text.
func (q Query) SQL() string { return q.sql }

// Weight returns the query's workload weight (frequency).
func (q Query) Weight() float64 { return q.weight }

// WithWeight returns a copy of the query with the given weight.
func (q Query) WithWeight(weight float64) Query {
	q.weight = weight
	return q
}

// valid reports whether the query carries a parsed statement.
func (q Query) valid() error {
	if q.stmt == nil {
		return fmt.Errorf("designer: query %q was not produced by ParseQuery", q.id)
	}
	return nil
}

// internal converts to the internal workload representation.
func (q Query) internal() workload.Query {
	return workload.Query{ID: q.id, SQL: q.sql, Weight: q.weight, Stmt: q.stmt}
}

func queryFromInternal(q workload.Query) Query {
	return Query{id: q.ID, sql: q.SQL, weight: q.Weight, stmt: q.Stmt}
}

// queriesToInternal unwraps parsed queries, rejecting any that did not come
// from ParseQuery.
func queriesToInternal(qs []Query) ([]workload.Query, error) {
	out := make([]workload.Query, 0, len(qs))
	for _, q := range qs {
		if err := q.valid(); err != nil {
			return nil, err
		}
		out = append(out, q.internal())
	}
	return out, nil
}

func queriesFromInternal(qs []workload.Query) []Query {
	out := make([]Query, len(qs))
	for i, q := range qs {
		out[i] = queryFromInternal(q)
	}
	return out
}

// Workload is a weighted query set to design for.
type Workload struct {
	w *workload.Workload
}

// NewWorkload assembles a workload from parsed queries.
func NewWorkload(queries ...Query) (*Workload, error) {
	qs, err := queriesToInternal(queries)
	if err != nil {
		return nil, err
	}
	return &Workload{w: &workload.Workload{Queries: qs}}, nil
}

func workloadFromInternal(w *workload.Workload) *Workload { return &Workload{w: w} }

// internal unwraps. A nil or zero-value Workload reads as empty rather
// than panicking.
func (w *Workload) internal() *workload.Workload {
	if w == nil || w.w == nil {
		return &workload.Workload{}
	}
	return w.w
}

// Len returns the number of queries.
func (w *Workload) Len() int { return len(w.internal().Queries) }

// TotalWeight sums the query weights.
func (w *Workload) TotalWeight() float64 {
	var total float64
	for _, q := range w.internal().Queries {
		total += q.Weight
	}
	return total
}

// Queries lists the workload members.
func (w *Workload) Queries() []Query { return queriesFromInternal(w.internal().Queries) }

// Query returns the i-th member.
func (w *Workload) Query(i int) Query { return queryFromInternal(w.internal().Queries[i]) }

// CompressWorkload merges queries with identical canonical SQL, summing
// their weights — the standard preprocessing step before advising on a
// query log, where the same template instance repeats many times.
func CompressWorkload(w *Workload) *Workload {
	in := w.internal()
	seen := make(map[string]int, len(in.Queries))
	out := &workload.Workload{}
	for _, q := range in.Queries {
		key := q.Stmt.Key()
		if i, ok := seen[key]; ok {
			out.Queries[i].Weight += q.Weight
			continue
		}
		seen[key] = len(out.Queries)
		out.Queries = append(out.Queries, q)
	}
	return workloadFromInternal(out)
}
