package engine

// AffectedQueries is the delta's relevance rule, for the external tests:
// the queries, by footprint, whose costs can differ between two
// configurations.
var AffectedQueries = affectedQueries
