// Package livedb closes the designer's loop against a real PostgreSQL
// database: it imports a workload from pg_stat_statements (or a SQL file),
// snapshots the live catalog and pg_stats into the designer's statistics
// substrate, reads the server's own cost constants so the calibrated model
// prices plans the way the live optimizer does, cross-checks that model
// against EXPLAIN cost probes, and applies an advised schedule back to the
// server — secondary indexes natively, wider structures as advisory DDL.
//
// The importer reads SQL through internal/sqlparse and holds no scanner of
// its own: SplitScript cuts a file into statements, Template groups them,
// and a $n parameter is a node of the parsed tree that Instantiate binds to
// a constant from the compared column's statistics. A statement it cannot
// use — outside the grammar, or with a parameter no column is compared with,
// LIMIT $n included — is reported with a positioned reason, not dropped.
//
// Every interaction with the server flows through a Querier, and the
// record/replay tracer (Trace, Recorder, Replayer) captures those
// interactions at the SQL level. A recorded trace committed under testdata/
// replays the entire import→advise→apply pipeline bit-deterministically in
// ordinary `go test` with no database; the //go:build livedb tagged suite
// runs the same code against a real server in CI.
package livedb
