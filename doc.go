// Package repro reproduces "An Automated, yet Interactive and Portable DB
// Designer" (Alagiannis, Dash, Schnaitter, Ailamaki, Polyzotis; SIGMOD 2010
// demonstration) as a self-contained Go library.
//
// The public API is the v2 facade in repro/designer: every exported
// signature speaks only designer-owned types (no internal/... type is
// reachable from the public surface — enforced by the api_hygiene test),
// and every long-running entry point takes a context.Context whose
// cancellation is honored inside the engine's parallel sweeps and the
// CoPhy branch-and-bound. repro/designer/serve exposes the same facade as
// a JSON-over-HTTP service with what-if design sessions, automatic advice,
// and online-tuning status streaming; `dbdesigner serve` runs it with
// graceful shutdown.
//
// The runnable tool lives in repro/cmd/dbdesigner; the paper's component
// techniques in repro/internal/{whatif,inum,cophy,autopart,interaction,
// schedule,colt}; and the database substrate (SQL parser, catalog,
// statistics, storage with a real B-tree, executor, cost-based optimizer,
// SDSS-like workload) in the remaining internal packages.
//
// The design space is wider than secondary indexes: every candidate is a
// catalog.Structure whose kind is a plain index, a covering projection
// with an INCLUDE payload, or a single-table aggregate materialized view
// (the optimizer rewrites matching aggregate queries — including rollups
// over key subsets — to MV scans). Projections and views are opt-in
// (the two AdviceOptions.CandidateOptions flags, whose zero value is the
// default design space) and advisory-only; with the flags off,
// candidate enumeration and advice are bit-identical to the index-only
// designer. See README.md ("Design space"). All cost
// estimation is unified behind repro/internal/engine: an Engine builds
// immutable, versioned generations of the optimizer environment and the
// what-if session (a new one after Materialize or Analyze), and a pinned
// View of one generation, with its own INUM cache, is the only what-if
// interface — every advisor, session, observation and facade call pins
// once and asks all its costing questions, sweeps over a bounded worker
// pool included, on that view, so an answer never mixes two generations.
// Within a view a costing is arithmetic: each INUM entry keeps the access
// terms of every structure the view numbered, and the index advisors price
// sets of candidate ordinals (engine.Pricing) as min-plus sums over them.
//
// The cost model is swappable — the paper's "portable" pillar: a backend
// is the cost constants a generation's environment plans with, and every
// plan search and INUM entry of a view prices under them. Two ship
// in-tree: native (the built-in optimizer's constants) and calibrated (the
// same analytical machinery on PostgreSQL-style cost constants loaded from
// a JSON calibration file). The facade adds live: a calibrated backend whose
// constants are fitted from a PostgreSQL server's planner settings
// (internal/livedb). Select a backend at open time (designer.WithBackend),
// per interactive session (designer.SessionOptions / the serve API's
// per-session backend field), or per CLI run (dbdesigner --backend).
// Designer.Describe reports the active backend.
//
// The one offline artifact is the livedb trace: designer.OpenLive with
// designer.WithRecording (dbdesigner --live-record) records a live
// server's wire traffic, and designer.OpenLiveTrace (--live-trace) replays
// the whole import → advise → apply pipeline from it with no server. See
// README.md ("Portability & backends") for the calibration file format and
// the live workflow.
//
// The paper's experiments (E2–E12) run as the deterministic suite behind
// `dbdesigner bench` (repro/internal/bench): quality and count cells only,
// pinned by the committed BENCH_*.json baselines. Latency is measured by
// benchmark/ (BENCHMARK.json, `bash benchmark/run.sh`) and nowhere else.
package repro
