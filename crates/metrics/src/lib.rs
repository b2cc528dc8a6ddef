//! # wdr-metrics
//!
//! The aggregate observability layer of the WDR reproduction: a
//! zero-steady-state-allocation metrics registry plus the perf-trajectory
//! tooling built on top of it.
//!
//! PR 1's [`Tracer`](https://docs.rs/congest-sim) gives *event-level*
//! traces; this crate is the complementary *aggregate* layer — cheap enough
//! to stay on in every run:
//!
//! * [`Counter`] — monotonic `u64` counters (one relaxed atomic add);
//! * [`Gauge`] — last-written `f64` values (stored as bit patterns);
//! * [`Histogram`] — 65-bucket log₂ histograms with p50/p90/p99/max,
//!   mergeable across threads with index-ordered reduction so parallel
//!   runs stay bit-identical to sequential ones;
//! * [`MetricsRegistry`] — a named, idempotent registry handing out cloned
//!   handles; registration allocates, the increment/observe paths do not
//!   (pinned by `tests/zero_alloc.rs`);
//! * [`heap`] — the counting-allocator machinery shared by every
//!   `zero_alloc`-style integration test, plus a peak-RSS probe;
//! * [`provenance`] — the [`RunMeta`] header stamped
//!   on every `BENCH_*.json` artifact;
//! * [`trajectory`] — canonical-JSON trajectory rows, the FNV artifact
//!   hashes, and the `compare` gate behind the `wdr-perf` binary;
//! * [`util`] — the workspace's one SplitMix64 and one FNV-1a.
//!
//! # Examples
//!
//! ```
//! use wdr_metrics::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let rounds = registry.counter("sim.rounds");
//! let latency = registry.histogram("sim.bits_per_round");
//! rounds.inc();
//! latency.observe(96);
//! let snap = registry.snapshot();
//! assert_eq!(snap.flatten()["sim.rounds"], 1.0);
//! assert!(snap.to_canonical_json().starts_with('{'));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
pub mod heap;
pub mod histogram;
pub mod provenance;
pub mod registry;
pub mod snapshot;
pub mod table;
pub mod trajectory;
pub mod util;

pub use histogram::{Histogram, HistogramSummary};
pub use provenance::RunMeta;
pub use registry::{Counter, Gauge, Metric, MetricsRegistry};
pub use snapshot::{MetricValue, MetricsSnapshot};
pub use table::Table;
