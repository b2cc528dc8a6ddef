//! # wdr-conformance
//!
//! Conformance and differential-testing subsystem for the Wu–Yao (PODC
//! 2022) reproduction: a seed-replayable scenario corpus, oracles that
//! check every distributed run against the centralized kernels and the
//! paper's stated guarantees, and a round-complexity envelope fitted
//! against the Table 1 asymptotics.
//!
//! The moving parts (see DESIGN.md §3f):
//!
//! * [`scenario`] — [`scenario::ScenarioSpec`], a *pure function of a
//!   `u64` seed*: graph family × `(n, D, weight-range)` regime × fault
//!   plan × parallelism mode × workload. Specs are self-describing so a
//!   failing seed can be shrunk (halve `n`, drop faults, …) and the
//!   shrunken spec replayed verbatim.
//! * [`corpus`] — the on-disk format (`tests/corpus/*.ron`) and directory
//!   loader.
//! * [`ron`] — the hand-rolled RON-subset lexer (no `ron` crate is
//!   vendored) behind both corpus files and `wdr-ablate` plans.
//! * [`oracle`] — runs one scenario and checks it: exact-answer agreement
//!   for the classical baselines, the `(1+o(1))` sandwich for
//!   [`congest_wdr::algorithm::quantum_weighted`] with the `o(1)` term as
//!   the explicit tolerance [`oracle::o1_tolerance`], Confidence
//!   consistency under faults, seed determinism, and no-panic totality.
//! * [`envelope`] — trace-derived round counts fitted against the
//!   [`congest_wdr::table_one`] asymptotic rows: per-regime constants with
//!   a regression gate, exported as `BENCH_conformance.json`.
//! * [`runner`] — corpus execution, aggregate (soft-side) statistics, the
//!   mutation self-check (`--mutate skip-grover-phase` must make the suite
//!   fail), and the failing-seed shrinker behind `wdr-conform replay`.
//! * [`batch`] — the many-seed batch engine (DESIGN.md §3j): one
//!   graph-grouped executor, shared with the ablation harness. Specs are
//!   grouped by graph identity, each group gets one shared setup, and groups
//!   fan across a dedicated pool (`lanes: None` is one lane) with
//!   index-ordered reduction, so results are bit-identical at every lane
//!   count (experiment E12 gates the fan-out speedup).
//!
//! # Examples
//!
//! ```
//! use wdr_conformance::scenario::ScenarioSpec;
//!
//! // The replay invariant: a spec is a pure function of its seed.
//! let spec = ScenarioSpec::from_seed(42);
//! assert_eq!(spec, ScenarioSpec::from_seed(42));
//!
//! // And it roundtrips through the corpus format.
//! let text = wdr_conformance::corpus::to_ron(&spec);
//! assert_eq!(wdr_conformance::corpus::parse(&text).unwrap(), spec);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod corpus;
pub mod envelope;
pub mod oracle;
pub mod ron;
pub mod runner;
pub mod scenario;
