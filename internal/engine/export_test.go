package engine

// AffectedQueries is the delta's relevance rule, for the external tests:
// the queries whose costs can differ between two configurations.
var AffectedQueries = affectedQueries
